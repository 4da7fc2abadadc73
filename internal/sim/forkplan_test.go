package sim

import (
	"fmt"
	"testing"

	"awgsim/internal/fault"
	"awgsim/internal/metrics"
)

// disableForking turns the fork planner off for one test.
func disableForking(t *testing.T) {
	t.Helper()
	SetForking(false)
	t.Cleanup(func() { SetForking(true) })
}

// faultJobs builds a fork-friendly sweep: one base config per (bench,
// policy) crossed with scripted and random fault schedules, oversubscribed
// 2x so Baseline deadlocks (exercising the diagnosis path through a fork).
func faultJobs() []Job {
	benches := []string{"SPM_G"}
	policies := []string{"Baseline", "Timeout", "AWG"}
	base := quickConfig("SPM_G", "Baseline", false, 0)
	scheds := fault.Scripted(base.GPU.NumCUs, 10_000)[:2]
	scheds = append(scheds,
		fault.Random(1, base.GPU.NumCUs, 10_000, 80_000),
		fault.Random(2, base.GPU.NumCUs, 10_000, 80_000))
	var jobs []Job
	for _, b := range benches {
		for _, p := range policies {
			for i := range scheds {
				cfg := quickConfig(b, p, false, 0)
				cfg.Params.NumWGs = 2 * cfg.GPU.NumCUs * cfg.GPU.MaxWGsPerCU
				s := scheds[i]
				cfg.Faults = &s
				cfg.CycleBudget = 20_000_000
				jobs = append(jobs, Job{
					Key:    fmt.Sprintf("%s/%s/%s", b, p, s.Name),
					Config: cfg,
				})
			}
		}
	}
	return jobs
}

// normalize strips the Diagnosis pointer so Results compare by value, and
// returns its rendering for a separate comparison (two equal deadlocks
// allocate distinct Diagnosis objects).
func normalize(r metrics.Result) (metrics.Result, string) {
	diag := ""
	if r.Diagnosis != nil {
		diag = r.Diagnosis.String() // includes the time-travel trace when present
	}
	r.Diagnosis = nil
	return r, diag
}

// TestForkMatchesCold is the planner's bit-identity contract: every member
// of a prefix-forked sweep must produce exactly the result its cold run
// produces — including deadlocked cells and their diagnoses.
func TestForkMatchesCold(t *testing.T) {
	disableDedupe(t)
	jobs := faultJobs()

	disableForking(t)
	cold := RunAllWorkers(jobs, 1)

	SetForking(true)
	ResetForkStats()
	forked := RunAllWorkers(jobs, 1)

	forks, saved, bytes := ForkStats()
	if forks == 0 || saved == 0 || bytes == 0 {
		t.Fatalf("fork planner idle on a forkable sweep: ForkStats() = %d, %d, %d", forks, saved, bytes)
	}
	deadlocks := 0
	for i := range jobs {
		if (cold[i].Err == nil) != (forked[i].Err == nil) {
			t.Fatalf("%s: error mismatch: cold %v, forked %v", jobs[i].Key, cold[i].Err, forked[i].Err)
		}
		cr, cd := normalize(cold[i].Result)
		fr, fd := normalize(forked[i].Result)
		if cr != fr {
			t.Errorf("%s: forked result diverged from cold:\n  cold:   %+v\n  forked: %+v", jobs[i].Key, cr, fr)
		}
		if cd != fd {
			t.Errorf("%s: forked diagnosis diverged from cold:\n--- cold ---\n%s\n--- forked ---\n%s", jobs[i].Key, cd, fd)
		}
		if cr.Deadlocked {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Fatal("sweep produced no deadlocked cell; the diagnosis path went untested")
	}
}

// TestForkComposesWithRunCache runs the sweep with deduplication on, twice,
// with duplicated jobs: cached members must replay inside fork groups and
// still match the cold results.
func TestForkComposesWithRunCache(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	jobs := faultJobs()

	t.Cleanup(func() { setDedupe(true); SetForking(true) })
	setDedupe(false)
	SetForking(false)
	cold := RunAllWorkers(jobs, 1)
	setDedupe(true)
	SetForking(true)
	doubled := append(append([]Job{}, jobs...), jobs...)
	hits0 := CacheHits()
	outs := RunAllWorkers(doubled, 1)
	again := RunAllWorkers(doubled, 1)
	if CacheHits() == hits0 {
		t.Fatal("duplicated sweep produced no cache hits")
	}
	for i := range doubled {
		j := i % len(jobs)
		for name, got := range map[string]Outcome{"first": outs[i], "second": again[i]} {
			if (got.Err == nil) != (cold[j].Err == nil) {
				t.Fatalf("%s (%s): error mismatch: cold %v, got %v", doubled[i].Key, name, cold[j].Err, got.Err)
			}
			cr, cd := normalize(cold[j].Result)
			gr, gd := normalize(got.Result)
			if cr != gr || cd != gd {
				t.Errorf("%s (%s): cached/forked result diverged from cold:\n  cold: %+v\n  got:  %+v",
					doubled[i].Key, name, cr, gr)
			}
		}
	}
}

// TestForkEntriesObeyCacheCap: fork-group members publish into the run
// cache through the same insertion order as any run, so the cap bounds
// them and every resident entry is reachable by the evictor.
func TestForkEntriesObeyCacheCap(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
	setRunCacheCap(4)
	t.Cleanup(func() { setRunCacheCap(defaultRunCacheCap) })
	ResetForkStats()
	jobs := faultJobs()
	for _, o := range RunAllWorkers(jobs, 1) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Key, o.Err)
		}
	}
	if forks, _, _ := ForkStats(); forks == 0 {
		t.Fatal("fork planner idle; the test exercises nothing")
	}
	cacheMu.Lock()
	n, q := len(runCache), liveQueueLen()
	cacheMu.Unlock()
	if n != 4 || q != 4 {
		t.Fatalf("cache holds %d entries (queue %d) after %d forked runs at cap 4", n, q, len(jobs))
	}

	// Two workers publish concurrently. The last insert cannot evict the
	// other worker's in-flight entry, so one entry over the cap may stay.
	ResetCache()
	RunAllWorkers(jobs, 2)
	cacheMu.Lock()
	n, q = len(runCache), liveQueueLen()
	cacheMu.Unlock()
	if n > 5 || q != n {
		t.Fatalf("cache holds %d entries (queue %d) after %d forked runs on 2 workers at cap 4", n, q, len(jobs))
	}
}

// TestPlanUnitsGrouping pins the planner's partitioning rules: schedules
// over one base config group; non-fault, injected, and snapshot-ring jobs
// stay single; a lone fault job (singleton group) is demoted.
func TestPlanUnitsGrouping(t *testing.T) {
	jobs := faultJobs()
	n := len(jobs)
	plain := quickConfig("SPM_G", "Baseline", false, 0)
	ringed := jobs[0].Config
	ringed.GPU.SnapshotEvery = 5_000
	lone := quickConfig("TB_LG", "AWG", false, 9)
	sched := fault.Scripted(lone.GPU.NumCUs, 10_000)[0]
	lone.Faults = &sched
	jobs = append(jobs,
		Job{Key: "plain", Config: plain},
		Job{Key: "ringed", Config: ringed},
		Job{Key: "lone-fault", Config: lone},
	)

	units := planUnits(jobs)
	groups, singles := 0, 0
	for _, u := range units {
		if u.group != nil {
			groups++
			if len(u.group.members) != 4 {
				t.Errorf("group has %d members, want 4 (one per schedule)", len(u.group.members))
			}
			if u.group.diverge != 10_000 {
				t.Errorf("group diverges at %d, want 10000", u.group.diverge)
			}
			if u.group.reserve == 0 {
				t.Error("group reserved no sequence numbers")
			}
			continue
		}
		singles++
	}
	if groups != n/4 {
		t.Errorf("planned %d groups, want %d (one per (bench, policy))", groups, n/4)
	}
	if singles != 3 {
		t.Errorf("planned %d singles, want 3 (plain, ringed, lone-fault)", singles)
	}

	disableForking(t)
	units = planUnits(jobs)
	if len(units) != len(jobs) {
		t.Fatalf("forking off planned %d units, want %d singles", len(units), len(jobs))
	}
	for i, u := range units {
		if u.group != nil || u.single != i {
			t.Fatalf("forking off produced non-trivial unit %d: %+v", i, u)
		}
	}
}
