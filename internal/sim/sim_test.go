package sim

import (
	"fmt"
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
)

// quickConfig builds a reduced-scale config matching the experiment
// packages' quick mode: quarter occupancy, three synchronization rounds.
func quickConfig(bench, policy string, oversub bool, seed uint64) Config {
	g := gpu.DefaultConfig()
	g.MaxWGsPerCU /= 4
	p := kernels.DefaultParams()
	p.NumWGs = g.NumCUs * g.MaxWGsPerCU
	p.Iters = 3
	return Config{
		Benchmark:     bench,
		Policy:        policy,
		GPU:           g,
		Params:        p,
		Oversubscribe: oversub,
		PreemptAt:     10_000,
		Seed:          seed,
	}
}

// setDedupe toggles run deduplication (on by default).
func setDedupe(on bool) { dedupeOff.Store(!on) }

// setRunCacheCap bounds how many completed runs stay resident (n <= 0
// removes the bound) and evicts down to it. Eviction never changes results
// or the Totals() ledger: an evicted duplicate simply re-simulates,
// bit-identically, on its next arrival.
func setRunCacheCap(n int) {
	cacheMu.Lock()
	cacheCap = n
	evictLocked()
	cacheMu.Unlock()
}

// disableDedupe turns the run cache off for one test, so repeated runs
// genuinely re-simulate (replays would make determinism checks vacuous).
func disableDedupe(t *testing.T) {
	t.Helper()
	setDedupe(false)
	t.Cleanup(func() { setDedupe(true) })
}

// TestRunAllMatchesSerial is the determinism regression the package doc
// promises: a (benchmark × policy × seed) grid, including oversubscribed
// runs, simulated twice through the parallel pool and once serially, must
// produce equal metrics.Result values cell for cell.
func TestRunAllMatchesSerial(t *testing.T) {
	disableDedupe(t)
	benches := []string{"SPM_G", "FAM_G", "TB_LG", "SLM_G"}
	policies := []string{"Baseline", "Timeout", "MonNR-All", "AWG"}
	seeds := []uint64{0, 1, 42}
	var jobs []Job
	for _, b := range benches {
		for _, p := range policies {
			for _, s := range seeds {
				oversub := p != "Baseline" // Baseline deadlocks oversubscribed; keep it resident-only
				jobs = append(jobs, Job{
					Key:    fmt.Sprintf("%s/%s/seed%d", b, p, s),
					Config: quickConfig(b, p, oversub, s),
				})
			}
		}
	}
	serial := RunAllWorkers(jobs, 1)
	parallel1 := RunAll(jobs)
	parallel2 := RunAllWorkers(jobs, 4)
	for i := range jobs {
		if err := serial[i].Err; err != nil {
			t.Fatalf("%s: serial run failed: %v", jobs[i].Key, err)
		}
		for run, got := range map[string]Outcome{"pool": parallel1[i], "pool-4": parallel2[i]} {
			if got.Err != nil {
				t.Fatalf("%s: %s run failed: %v", jobs[i].Key, run, got.Err)
			}
			if got.Key != jobs[i].Key {
				t.Fatalf("outcome %d key %q, want %q", i, got.Key, jobs[i].Key)
			}
			if got.Result != serial[i].Result {
				t.Errorf("%s: %s result diverged from serial:\n  serial:   %+v\n  parallel: %+v",
					jobs[i].Key, run, serial[i].Result, got.Result)
			}
		}
	}
}

// TestSeedPerturbsRun checks the seed axis is live: different seeds may
// produce different timings, equal seeds must reproduce exactly.
func TestSeedPerturbsRun(t *testing.T) {
	disableDedupe(t)
	a1, err := Run(quickConfig("SPM_G", "AWG", false, 7))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Run(quickConfig("SPM_G", "AWG", false, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("equal seeds diverged:\n  %+v\n  %+v", a1, a2)
	}
}

func TestRunAllCarriesErrors(t *testing.T) {
	jobs := []Job{
		{Key: "good", Config: quickConfig("SPM_G", "Baseline", false, 0)},
		{Key: "bad-policy", Config: quickConfig("SPM_G", "NoSuchPolicy", false, 0)},
		{Key: "bad-bench", Config: quickConfig("NoSuchBench", "Baseline", false, 0)},
	}
	outs := RunAll(jobs)
	if outs[0].Err != nil {
		t.Fatalf("good job failed: %v", outs[0].Err)
	}
	if outs[1].Err == nil || outs[2].Err == nil {
		t.Fatalf("bad jobs did not carry errors: %+v", outs)
	}
	if outs[0].Result.Cycles == 0 {
		t.Fatal("good job reported zero cycles")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Policy: "AWG"}); err == nil {
		t.Error("config without benchmark or kernel accepted")
	}
	if _, err := Run(Config{Benchmark: "SPM_G"}); err == nil {
		t.Error("config without policy accepted")
	}
}

func TestTotalsAccumulate(t *testing.T) {
	ResetTotals()
	if _, err := Run(quickConfig("SPM_G", "Baseline", false, 0)); err != nil {
		t.Fatal(err)
	}
	cycles, runs := Totals()
	if runs != 1 || cycles == 0 {
		t.Fatalf("Totals() = %d cycles, %d runs after one run", cycles, runs)
	}
}
