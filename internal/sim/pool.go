package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"awgsim/internal/metrics"
)

// Job names one simulation in a batch. Key is the caller's identifier for
// matching outcomes back to grid cells; it is carried through untouched.
type Job struct {
	Key    string
	Config Config
}

// Outcome is one Job's result. Outcomes are returned in Job order, so
// callers may also index instead of matching keys.
type Outcome struct {
	Key             string
	Result          metrics.Result
	InjectedLatency uint64
	Err             error
}

// RunAll executes every job, fanning them out over min(GOMAXPROCS,
// len(jobs)) workers. Each job constructs and runs its own machine with its
// own single-goroutine event engine, so per-job results are bit-identical
// to the serial path regardless of scheduling; only completion order (and
// wall-clock) varies, and the returned slice restores Job order.
//
// A job whose construction or validation fails carries its error in
// Outcome.Err; other jobs are unaffected.
func RunAll(jobs []Job) []Outcome {
	return RunAllWorkers(jobs, 0)
}

// RunAllWorkers is RunAll with an explicit worker count; n <= 0 selects
// GOMAXPROCS. n == 1 reproduces the serial path exactly (same order, same
// goroutine).
//
// Jobs are first partitioned into work units by the fork planner
// (forkplan.go): configs identical except for their fault schedules become
// one unit that simulates the shared prefix once and forks each member from
// a snapshot. Forking changes wall-clock only — each outcome stays
// bit-identical to its cold run and lands at its job's index.
func RunAllWorkers(jobs []Job, n int) []Outcome {
	units := planUnits(jobs)
	out := make([]Outcome, len(jobs))
	ForEach(len(units), n, func(i int) {
		if u := units[i]; u.group != nil {
			u.group.run(jobs, out)
		} else {
			out[u.single] = runJob(jobs[u.single])
		}
	})
	return out
}

// ForEach calls fn(i) for every i in [0, n) over min(workers, n) goroutines
// that claim indices in order from a shared counter; workers <= 0 selects
// GOMAXPROCS. With one worker the calls run in index order on the calling
// goroutine. fn must only write state owned by its index.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func runJob(j Job) Outcome {
	o := Outcome{Key: j.Key}
	if j.Config.Inject == nil {
		// No injected kernel means no InjectedLatency to extract, so the
		// job can go through Run's deduplication cache.
		o.Result, o.Err = Run(j.Config)
		return o
	}
	s, err := NewSession(j.Config)
	if err != nil {
		o.Err = err
		return o
	}
	o.Result, o.Err = s.Run()
	o.InjectedLatency = s.InjectedLatency()
	s.Release()
	return o
}
