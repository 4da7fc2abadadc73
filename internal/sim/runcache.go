package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"awgsim/internal/metrics"
)

// Run deduplication: experiment sweeps share many identical cells (every
// policy column repeats the same baseline, every sweep repeats its
// endpoints), and a simulation is a pure function of its Config — the
// engine is single-goroutine deterministic, so two equal Configs produce
// bit-identical Results. The session layer therefore fingerprints each
// fully-declarative Config, simulates each unique fingerprint once per
// process, and replays the cached Result for duplicates.
//
// A Config is only fingerprintable when it is closed under its own data:
// any closure or pointer the caller can reach back through (explicit
// Kernel/Init/Verify, a mid-run Injection, an attached Tracer) makes runs
// distinguishable in ways the fingerprint cannot see, so those run fresh.
// Faults schedules are pure data and fingerprint fine.
//
// Replays still account one run's cycles in Totals(), so the simulated-work
// ledger (and the golden record's sim_cycles/sim_runs) is identical with
// and without deduplication; only wall-clock changes. Fork-group members
// (forkplan.go) claim, replay and publish through the same helpers, so
// their entries share the insertion order and the cap.

type cacheEntry struct {
	done chan struct{} // closed when res/err/ran are final
	res  metrics.Result
	err  error
	ran  bool // the session was constructed and executed
	// completed mirrors "done is closed" for readers holding cacheMu (the
	// evictor must not select still-running entries, and a channel cannot
	// be polled under a mutex without racing the closer).
	completed bool
}

// cacheQueueEntry records insertion order for FIFO eviction. A queue slot
// can go stale — its entry evicted or deleted on a construction error, or
// its key re-inserted with a fresh entry — so the evictor checks the map
// still holds this exact entry before acting on it.
type cacheQueueEntry struct {
	key string
	e   *cacheEntry
}

// defaultRunCacheCap bounds the resident cache. Sweeps hold a few thousand
// unique cells; long-lived processes (litmus hunts, fuzzers) churn through
// unbounded fingerprints and previously grew the map without limit.
const defaultRunCacheCap = 8192

var (
	cacheMu  sync.Mutex
	runCache = map[string]*cacheEntry{}
	// cacheQueue[cacheHead:] is the insertion order; the slots before
	// cacheHead are zeroed. Both guarded by cacheMu.
	cacheQueue []cacheQueueEntry
	cacheHead  int
	// cacheCap bounds the resident entries (a value <= 0 removes the
	// bound). Only tests change it (setRunCacheCap), or set dedupeOff to
	// make every run simulate.
	cacheCap  = defaultRunCacheCap
	dedupeOff atomic.Bool

	cacheHits atomic.Uint64

	// testHookConstruct, when set (tests only), runs in Run just before
	// session construction: for a first arrival, after it claims its
	// fingerprint, the window where ResetCache can swap the map out from
	// under it.
	testHookConstruct func()
)

// CacheHits reports how many runs were satisfied by replaying a cached
// duplicate since process start (or the last ResetCache).
func CacheHits() uint64 { return cacheHits.Load() }

// ResetCache drops every cached run and zeroes the hit counter.
func ResetCache() {
	cacheMu.Lock()
	runCache = map[string]*cacheEntry{}
	cacheQueue, cacheHead = nil, 0
	cacheMu.Unlock()
	cacheHits.Store(0)
}

// evictLocked trims the cache to cacheCap, oldest insertion first. Entries
// still simulating are never evicted — waiters are parked on their done
// channel and the singleflight contract needs the map entry stable — so
// the cache can transiently exceed the cap while everything resident is
// in flight. Caller holds cacheMu.
//
// The cost is amortized O(1) per insert (times the handful of entries in
// flight): the head advances over each evicted or stale slot, and an
// in-flight entry it passes slides up one slot so it keeps its place in
// the order. The queue is compacted once the head passes half its length,
// or once stale slots (construction-error deletes) outnumber live ones.
func evictLocked() {
	if over := len(runCache) - cacheCap; cacheCap > 0 && over > 0 {
		// cacheQueue[head:i] holds the in-flight entries passed so far.
		head := cacheHead
		for i := head; over > 0 && i < len(cacheQueue); i++ {
			qe := cacheQueue[i]
			live := runCache[qe.key] == qe.e
			if live && !qe.e.completed {
				continue
			}
			if live {
				delete(runCache, qe.key)
				over--
			}
			copy(cacheQueue[head+1:i+1], cacheQueue[head:i])
			cacheQueue[head] = cacheQueueEntry{}
			head++
		}
		cacheHead = head
	}
	if n := len(cacheQueue) - cacheHead; cacheHead > n || n > 2*len(runCache)+64 {
		w := 0
		for _, qe := range cacheQueue[cacheHead:] {
			if runCache[qe.key] == qe.e {
				cacheQueue[w] = qe
				w++
			}
		}
		clear(cacheQueue[w:])
		cacheQueue, cacheHead = cacheQueue[:w], 0
	}
}

// insertLocked files a fresh in-flight entry for key at the tail of the
// insertion order and evicts down to the cap. Caller holds cacheMu.
func insertLocked(key string) *cacheEntry {
	e := &cacheEntry{done: make(chan struct{})}
	runCache[key] = e
	cacheQueue = append(cacheQueue, cacheQueueEntry{key, e})
	evictLocked()
	return e
}

// dropFailedLocked removes a first arrival's entry after its construction
// failed. Only its own entry goes: ResetCache may have swapped the map
// mid-run and a fresh first arrival can own this key by now. The queue slot
// goes stale and is skipped. Caller holds cacheMu.
func dropFailedLocked(key string, e *cacheEntry) {
	if runCache[key] == e {
		delete(runCache, key)
	}
}

// fingerprint canonically encodes a declarative Config, reporting ok=false
// for Configs carrying closures or pointers the encoding cannot capture.
// fill() has already run, so defaulted and explicit Configs that denote the
// same machine encode identically.
func fingerprint(c *Config) (string, bool) {
	if c.Kernel != nil || c.Init != nil || c.Verify != nil || c.Inject != nil || c.Tracer != nil {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%q|%q|%#v|%#v|%#v|%v|%d|%d|%v|%d",
		c.Benchmark, c.Policy, c.GPU, c.Mem, c.Params,
		c.Oversubscribe, c.PreemptAt, c.CycleBudget, c.SkipVerify, c.Seed)
	if c.Faults != nil {
		fmt.Fprintf(&b, "|%q", c.Faults.Name)
		for _, e := range c.Faults.Events {
			fmt.Fprintf(&b, "|%#v", e)
		}
	}
	return b.String(), true
}

// claim files key in the run cache for the caller to simulate. When a
// prior arrival holds key, claim waits for its outcome (singleflight) and
// returns that entry with owner=false for the caller to replay. Otherwise
// owner=true and the caller must publish the returned entry, which is nil
// when deduplication is off (publishing nil is a no-op).
func claim(key string) (e *cacheEntry, owner bool) {
	if dedupeOff.Load() {
		return nil, true
	}
	cacheMu.Lock()
	if e = runCache[key]; e != nil {
		cacheMu.Unlock()
		<-e.done
		return e, false
	}
	e = insertLocked(key)
	cacheMu.Unlock()
	return e, true
}

// replay returns a finished entry's outcome, accounting one run in Totals()
// exactly like the simulation it stands for. An entry whose first arrival
// failed before running (construction or fault-arm error) cached nothing,
// so the same failure is reported afresh.
func (e *cacheEntry) replay() (metrics.Result, error) {
	if !e.ran {
		return metrics.Result{}, e.err
	}
	cacheHits.Add(1)
	totalCycles.Add(e.res.Cycles)
	totalRuns.Add(1)
	return e.res, e.err
}

// publish files the owner's outcome under key and wakes its waiters.
// ran=false marks a failure before simulating: the entry is dropped so a
// later arrival retries.
func (e *cacheEntry) publish(key string, res metrics.Result, err error, ran bool) {
	if e == nil {
		return
	}
	e.res, e.err, e.ran = res, err, ran
	cacheMu.Lock()
	if ran {
		e.completed = true
	} else {
		dropFailedLocked(key, e)
	}
	cacheMu.Unlock()
	close(e.done)
}

// Run builds and executes one simulation through the run cache: the first
// arrival of a fingerprint simulates (concurrent duplicates wait on it),
// later arrivals replay the cached Result. Configs that cannot be
// fingerprinted simulate without touching the cache. Callers needing
// post-run access to the machine use NewSession directly, which always
// simulates.
func Run(cfg Config) (metrics.Result, error) {
	if err := cfg.fill(); err != nil {
		return metrics.Result{}, err
	}
	var e *cacheEntry
	key, ok := fingerprint(&cfg)
	if ok {
		var owner bool
		if e, owner = claim(key); !owner {
			return e.replay()
		}
	}
	if h := testHookConstruct; h != nil {
		h()
	}
	s, err := NewSession(cfg)
	if err != nil {
		e.publish(key, metrics.Result{}, err, false)
		return metrics.Result{}, err
	}
	res, err := s.Run()
	s.Release()
	e.publish(key, res, err, true)
	return res, err
}
