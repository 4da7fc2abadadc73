package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"awgsim/internal/mem"
)

// TestFingerprintCoversConfig pins Config's exact field list. If this
// fails, a field was added (or renamed): decide whether it changes a run's
// outcome, teach fingerprint() about it — either encode it or treat it as
// non-fingerprintable — and then update the list here.
func TestFingerprintCoversConfig(t *testing.T) {
	want := []string{
		"Benchmark", "Policy", "Kernel", "Init", "Verify", "GPU", "Mem",
		"Params", "Oversubscribe", "PreemptAt", "Inject", "Faults",
		"CycleBudget", "SkipVerify", "Tracer", "Seed",
	}
	rt := reflect.TypeOf(Config{})
	got := make([]string, rt.NumField())
	for i := range got {
		got[i] = rt.Field(i).Name
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sim.Config fields changed without updating fingerprint():\n  got  %v\n  want %v", got, want)
	}
}

// TestDedupeReplaysIdenticalResult: a duplicate Config replays the cached
// Result bit for bit, counts a cache hit, and still accounts a run in
// Totals() — and the replay equals what a genuine re-simulation produces.
func TestDedupeReplaysIdenticalResult(t *testing.T) {
	ResetCache()
	ResetTotals()
	cfg := quickConfig("SPM_G", "AWG", false, 3)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("cache hits %d after duplicate run, want %d", CacheHits(), h0+1)
	}
	if r1 != r2 {
		t.Fatalf("replayed result diverged:\n  first:  %+v\n  replay: %+v", r1, r2)
	}
	if cycles, runs := Totals(); runs != 2 || cycles != 2*r1.Cycles {
		t.Fatalf("Totals() = %d cycles, %d runs; replay must account a run (want %d, 2)",
			cycles, runs, 2*r1.Cycles)
	}
	SetDedupe(false)
	defer SetDedupe(true)
	r3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatalf("fresh simulation diverged from cached result:\n  cached: %+v\n  fresh:  %+v", r1, r3)
	}
}

// TestDedupeDistinguishesConfigs: any field difference — here the jitter
// seed — is a different fingerprint, so no replay happens.
func TestDedupeDistinguishesConfigs(t *testing.T) {
	ResetCache()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 11)); err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 12)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0 {
		t.Fatalf("different seeds shared a cache entry (%d hits, want %d)", CacheHits(), h0)
	}
}

// TestDedupeSkipsClosures: a Config carrying any closure field is not
// fingerprintable and always simulates fresh.
func TestDedupeSkipsClosures(t *testing.T) {
	ResetCache()
	cfg := quickConfig("SPM_G", "AWG", false, 5)
	cfg.Init = func(write func(mem.Addr, int64)) {}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	h0 := CacheHits()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0 {
		t.Fatalf("closure-carrying config was deduplicated (%d hits, want %d)", CacheHits(), h0)
	}
}

// TestRunCacheBounded: the cache holds at most the configured cap, FIFO —
// the newest entries replay, the oldest re-simulate after eviction.
func TestRunCacheBounded(t *testing.T) {
	ResetCache()
	SetRunCacheCap(4)
	defer SetRunCacheCap(defaultRunCacheCap)
	for seed := uint64(101); seed <= 108; seed++ {
		if _, err := Run(quickConfig("SPM_G", "AWG", false, seed)); err != nil {
			t.Fatal(err)
		}
	}
	cacheMu.Lock()
	n, q := len(runCache), liveQueueLen()
	cacheMu.Unlock()
	if n != 4 || q != 4 {
		t.Fatalf("cache holds %d entries (queue %d) after 8 runs at cap 4", n, q)
	}
	h0 := CacheHits()
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 108)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("newest entry did not replay (%d hits, want %d)", CacheHits(), h0+1)
	}
	if _, err := Run(quickConfig("SPM_G", "AWG", false, 101)); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != h0+1 {
		t.Fatalf("oldest entry replayed after eviction (%d hits, want %d)", CacheHits(), h0+1)
	}
}

// TestEvictionSkipsInFlight: an entry still simulating is never evicted —
// waiters are parked on its done channel and the singleflight contract
// needs the map slot stable — so eviction passes over it to the next
// completed entry.
func TestEvictionSkipsInFlight(t *testing.T) {
	ResetCache()
	defer ResetCache()
	SetRunCacheCap(2)
	defer SetRunCacheCap(defaultRunCacheCap)
	cacheMu.Lock()
	inflight := &cacheEntry{done: make(chan struct{})}
	runCache["k0"] = inflight
	cacheQueue = append(cacheQueue, cacheQueueEntry{"k0", inflight})
	for i := 1; i <= 3; i++ {
		e := &cacheEntry{done: make(chan struct{}), completed: true}
		k := fmt.Sprintf("k%d", i)
		runCache[k] = e
		cacheQueue = append(cacheQueue, cacheQueueEntry{k, e})
	}
	evictLocked()
	defer cacheMu.Unlock()
	if runCache["k0"] != inflight {
		t.Fatal("in-flight entry evicted")
	}
	if len(runCache) != 2 || runCache["k3"] == nil {
		t.Fatalf("want in-flight k0 + newest k3 resident, have %d entries", len(runCache))
	}
	if q := liveQueueLen(); q != 2 {
		t.Fatalf("queue holds %d slots, want 2", q)
	}
}

// TestResetCacheRacesConstructionError pins the first-arrival error
// cleanup against a mid-run ResetCache: the map is swapped while the
// arrival is constructing, a fresh arrival claims the same fingerprint in
// the new map, and the old arrival's failure cleanup must not delete the
// new owner's entry.
func TestResetCacheRacesConstructionError(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := quickConfig("no-such-bench", "AWG", false, 1)
	keyCfg := cfg
	if err := keyCfg.fill(); err != nil {
		t.Fatal(err)
	}
	key, ok := fingerprint(&keyCfg)
	if !ok {
		t.Fatal("config not fingerprintable")
	}

	ready := make(chan int)
	proceed := make(chan struct{})
	arrivals := 0
	testHookConstruct = func() {
		arrivals++
		ready <- arrivals
		<-proceed
	}
	defer func() { testHookConstruct = nil }()

	errs := make(chan error, 2)
	go func() { _, err := Run(cfg); errs <- err }()
	<-ready      // arrival 1 holds the key, construction not started
	ResetCache() // the map swap arrival 1 cannot see
	go func() { _, err := Run(cfg); errs <- err }()
	<-ready // arrival 2 owns the key in the new map, parked mid-construction

	proceed <- struct{}{} // arrival 1: construction fails, cleanup runs
	if err := <-errs; err == nil {
		t.Fatal("unknown benchmark built")
	}
	cacheMu.Lock()
	survived := runCache[key] != nil
	cacheMu.Unlock()
	if !survived {
		t.Fatal("arrival 1's cleanup deleted arrival 2's in-flight entry")
	}

	proceed <- struct{}{} // arrival 2 finishes (and removes its own entry)
	if err := <-errs; err == nil {
		t.Fatal("unknown benchmark built")
	}
	cacheMu.Lock()
	gone := runCache[key] == nil
	cacheMu.Unlock()
	if !gone {
		t.Fatal("construction-error entry left resident")
	}
}

// TestDedupeSingleflight: concurrent duplicates collapse onto one
// simulation — one miss, the rest hits, every outcome identical.
func TestDedupeSingleflight(t *testing.T) {
	ResetCache()
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Key: fmt.Sprintf("dup%d", i), Config: quickConfig("SPM_G", "Timeout", false, 21)}
	}
	outs := RunAllWorkers(jobs, 4)
	if CacheHits() != n-1 {
		t.Fatalf("cache hits %d for %d concurrent duplicates, want %d", CacheHits(), n, n-1)
	}
	for i := 1; i < n; i++ {
		if outs[i].Err != nil {
			t.Fatalf("%s: %v", outs[i].Key, outs[i].Err)
		}
		if outs[i].Result != outs[0].Result {
			t.Fatalf("duplicate %d diverged from first outcome", i)
		}
	}
}

// liveQueueLen reports the length of the insertion-order queue past its
// head. Caller holds cacheMu.
func liveQueueLen() int { return len(cacheQueue) - cacheHead }

// fifoModel is the naive reference for the run cache's eviction: a list of
// resident entries in insertion order, trimmed from the front by skipping
// in-flight entries and removing completed ones until the cap holds.
type fifoModel struct {
	cap  int
	list []*cacheEntry
	keys map[*cacheEntry]string
}

func (m *fifoModel) evict() {
	if m.cap <= 0 {
		return
	}
	over := len(m.list) - m.cap
	kept := m.list[:0:0]
	for _, e := range m.list {
		if over > 0 && e.completed {
			over--
			continue
		}
		kept = append(kept, e)
	}
	m.list = kept
}

func (m *fifoModel) remove(e *cacheEntry) {
	for i, x := range m.list {
		if x == e {
			m.list = append(m.list[:i:i], m.list[i+1:]...)
			return
		}
	}
}

// TestRunCacheEvictionMatchesFIFOModel drives the cache's internals with
// random inserts, completions, construction-error deletes (singly and in
// bursts), ResetCache and SetRunCacheCap changes, and after every step checks that the resident
// entries, in queue order, are exactly the naive FIFO model's — so the
// eviction order is the model's — and that the queue stays O(cap +
// in-flight) long.
func TestRunCacheEvictionMatchesFIFOModel(t *testing.T) {
	defer SetRunCacheCap(defaultRunCacheCap)
	defer ResetCache()
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		ResetCache()
		SetRunCacheCap(1 + rng.IntN(16))
		cacheMu.Lock()
		m := &fifoModel{cap: cacheCap, keys: map[*cacheEntry]string{}}
		cacheMu.Unlock()
		var inflight []*cacheEntry // including entries orphaned by ResetCache
		for step := 0; step < 3000; step++ {
			cacheMu.Lock()
			switch r := rng.IntN(100); {
			case r < 55: // first arrival of a fingerprint
				key := fmt.Sprintf("k%d", rng.IntN(64))
				if runCache[key] != nil {
					break // a duplicate: replays, no insert
				}
				e := insertLocked(key)
				m.keys[e] = key
				m.list = append(m.list, e)
				m.evict()
				inflight = append(inflight, e)
			case r < 85 && len(inflight) > 0: // a run completes
				i := rng.IntN(len(inflight))
				inflight[i].completed = true
				inflight = append(inflight[:i], inflight[i+1:]...)
			case r < 95 && len(inflight) > 0: // construction error
				i := rng.IntN(len(inflight))
				e := inflight[i]
				dropFailedLocked(m.keys[e], e)
				m.remove(e)
				inflight = append(inflight[:i], inflight[i+1:]...)
			case r < 97: // a burst of first arrivals that all fail
				for range rng.IntN(100) {
					key := fmt.Sprintf("f%d", rng.IntN(1000))
					if runCache[key] != nil {
						continue
					}
					e := insertLocked(key)
					m.list = append(m.list, e)
					m.evict()
					dropFailedLocked(key, e)
					m.remove(e)
				}
			case r < 99 && rng.IntN(10) == 0:
				cacheMu.Unlock()
				ResetCache()
				cacheMu.Lock()
				m.list = nil
			case r < 99:
				n := rng.IntN(20) - 2
				cacheMu.Unlock()
				SetRunCacheCap(n)
				cacheMu.Lock()
				m.cap = n
				m.evict()
			}
			var got []*cacheEntry
			for _, qe := range cacheQueue[cacheHead:] {
				if runCache[qe.key] == qe.e {
					got = append(got, qe.e)
				}
			}
			if len(got) != len(runCache) || !slices.Equal(got, m.list) {
				cacheMu.Unlock()
				t.Fatalf("seed %d step %d: resident entries %d (map %d) diverge from the FIFO model's %d",
					seed, step, len(got), len(runCache), len(m.list))
			}
			dead := slices.Concat(cacheQueue[:cacheHead], cacheQueue[len(cacheQueue):cap(cacheQueue)])
			for _, qe := range dead {
				if qe != (cacheQueueEntry{}) {
					cacheMu.Unlock()
					t.Fatalf("seed %d step %d: a slot outside the live queue still holds %q", seed, step, qe.key)
				}
			}
			if bound := 4*(max(m.cap, 0)+len(inflight)) + 130; m.cap > 0 && len(cacheQueue) > bound {
				cacheMu.Unlock()
				t.Fatalf("seed %d step %d: queue length %d exceeds %d (cap %d, %d in flight)",
					seed, step, len(cacheQueue), bound, m.cap, len(inflight))
			}
			cacheMu.Unlock()
		}
	}
}

// BenchmarkRunCacheInsert times one first-arrival insert into a full cache
// (an eviction each time); ns/insert must not grow with the cap.
func BenchmarkRunCacheInsert(b *testing.B) {
	for _, capN := range []int{64, 8192} {
		b.Run(fmt.Sprintf("cap=%d", capN), func(b *testing.B) {
			ResetCache()
			SetRunCacheCap(capN)
			defer SetRunCacheCap(defaultRunCacheCap)
			defer ResetCache()
			// A key comes back 2*cap+1 inserts later, long after its eviction.
			keys := make([]string, 2*capN+1)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%d", i)
			}
			cacheMu.Lock()
			defer cacheMu.Unlock()
			for i := 0; i < capN; i++ {
				insertLocked(keys[i]).completed = true
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insertLocked(keys[(capN+i)%len(keys)]).completed = true
			}
		})
	}
}
