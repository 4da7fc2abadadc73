package core

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
	"awgsim/internal/mem"
	"awgsim/internal/syncmon"
)

func classes(rmw, load int) []syncmon.OpClass {
	var out []syncmon.OpClass
	for i := 0; i < load; i++ {
		out = append(out, syncmon.ClassLoad)
	}
	for i := 0; i < rmw; i++ {
		out = append(out, syncmon.ClassRMW)
	}
	return out
}

func TestResumeAll(t *testing.T) {
	s := ResumeAll{}
	if got := s.Select(0, 0, classes(3, 4)); got != 7 {
		t.Fatalf("ResumeAll.Select = %d, want 7", got)
	}
	s.ObserveUpdate(0, 1) // no-ops must not panic
	s.AddressUnmonitored(0)
}

func TestResumeOne(t *testing.T) {
	s := ResumeOne{}
	if got := s.Select(0, 0, classes(5, 5)); got != 1 {
		t.Fatalf("ResumeOne.Select = %d, want 1", got)
	}
}

func TestOracle(t *testing.T) {
	o := Oracle{}
	// Pure RMW contention (mutex): exactly one.
	if got := o.Select(0, 0, classes(5, 0)); got != 1 {
		t.Fatalf("pure RMW: %d, want 1", got)
	}
	// Pure load waiters (barrier): all.
	if got := o.Select(0, 0, classes(0, 6)); got != 6 {
		t.Fatalf("pure load: %d, want 6", got)
	}
	// Mixed: loads + one RMW contender.
	if got := o.Select(0, 0, classes(3, 4)); got != 5 {
		t.Fatalf("mixed: %d, want 5", got)
	}
}

func TestOracleNeverExceedsWaiters(t *testing.T) {
	f := func(rmw, load uint8) bool {
		r, l := int(rmw%16), int(load%16)
		if r+l == 0 {
			return true
		}
		n := Oracle{}.Select(0, 0, classes(r, l))
		return n >= 1 && n <= r+l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorMutexPattern(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x1000)
	// A lock toggles between two values: resume one.
	for i := 0; i < 50; i++ {
		p.ObserveUpdate(addr, int64(i%2))
	}
	if got := p.Select(addr, 0, classes(8, 0)); got != 1 {
		t.Fatalf("mutex pattern: Select = %d, want 1", got)
	}
	if p.PredictedOne == 0 {
		t.Fatal("PredictedOne not counted")
	}
}

func TestPredictorBarrierPattern(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x2000)
	// A barrier counter sweeps many values: resume all.
	for i := 1; i <= 8; i++ {
		p.ObserveUpdate(addr, int64(i))
	}
	if got := p.Select(addr, 8, classes(0, 7)); got != 7 {
		t.Fatalf("barrier pattern: Select = %d, want 7 (uniques=%d)",
			got, p.UniqueUpdates(addr))
	}
	if p.PredictedAll == 0 {
		t.Fatal("PredictedAll not counted")
	}
}

func TestPredictorSingleWaiter(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	if got := p.Select(0x10, 0, classes(1, 0)); got != 1 {
		t.Fatalf("single waiter: %d, want 1", got)
	}
	if got := p.Select(0x10, 0, nil); got != 0 {
		t.Fatalf("no waiters: %d, want 0", got)
	}
	// Neither case should count as a prediction.
	if p.PredictedAll+p.PredictedOne != 0 {
		t.Fatal("trivial selects counted as predictions")
	}
}

func TestPredictorReset(t *testing.T) {
	p := NewPredictor(DefaultPredictorConfig())
	addr := mem.Addr(0x3000)
	for i := 1; i <= 8; i++ {
		p.ObserveUpdate(addr, int64(i))
	}
	p.AddressUnmonitored(addr)
	if p.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", p.Resets)
	}
	if got := p.UniqueUpdates(addr); got != 0 {
		t.Fatalf("uniques after reset = %d, want 0", got)
	}
	// Post-reset, a two-value pattern predicts one again.
	p.ObserveUpdate(addr, 0)
	p.ObserveUpdate(addr, 1)
	if got := p.Select(addr, 0, classes(4, 0)); got != 1 {
		t.Fatalf("after reset: Select = %d, want 1", got)
	}
}

func TestPredictorConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-filter predictor accepted")
		}
	}()
	NewPredictor(PredictorConfig{Filters: 0, BloomBits: 24, BloomK: 6})
}

func TestStallPredictorDefaults(t *testing.T) {
	s := NewStallPredictor(100, 5000)
	if got := s.Predict(0x10); got != 5000 {
		t.Fatalf("no-history prediction = %d, want the 5000 max", got)
	}
}

func TestStallPredictorClamps(t *testing.T) {
	s := NewStallPredictor(100, 5000)
	s.Record(0x10, 10)
	if got := s.Predict(0x10); got != 100 {
		t.Fatalf("tiny history predicted %d, want clamp to 100", got)
	}
	s.Record(0x20, 1_000_000)
	if got := s.Predict(0x20); got != 5000 {
		t.Fatalf("huge history predicted %d, want clamp to 5000", got)
	}
}

func TestStallPredictorEWMATracks(t *testing.T) {
	s := NewStallPredictor(1, 1_000_000)
	for i := 0; i < 50; i++ {
		s.Record(0x30, 2000)
	}
	got := s.Predict(0x30)
	if got < 1900 || got > 2100 {
		t.Fatalf("EWMA of constant 2000 predicted %d", got)
	}
	// Shift the regime; the EWMA must follow.
	for i := 0; i < 50; i++ {
		s.Record(0x30, 8000)
	}
	got = s.Predict(0x30)
	if got < 7000 {
		t.Fatalf("EWMA stuck at %d after regime change to 8000", got)
	}
}

func TestStallPredictorSwappedBounds(t *testing.T) {
	s := NewStallPredictor(5000, 100) // swapped: must normalize
	s.Record(0x40, 1)
	if got := s.Predict(0x40); got != 100 {
		t.Fatalf("prediction %d with swapped bounds, want 100", got)
	}
}

func TestStallPredictorPerAddressIsolation(t *testing.T) {
	s := NewStallPredictor(1, event.Cycle(1)<<40)
	s.Record(0xA0, 100)
	s.Record(0xB0, 9000)
	if a, b := s.Predict(0xA0), s.Predict(0xB0); a >= b {
		t.Fatalf("addresses leaked: %d vs %d", a, b)
	}
}

// TestPredictorsShareNoMutableState: predictors built from one config copy
// the config's template, so updating one — directly or through a restored
// snapshot — never moves another's counts or the template's.
func TestPredictorsShareNoMutableState(t *testing.T) {
	cfg := DefaultPredictorConfig()
	p1, p2 := NewPredictor(cfg), NewPredictor(cfg)
	addrs := make([]mem.Addr, 64)
	for i := range addrs {
		addrs[i] = mem.Addr(0x1000 + 8*i)
	}
	zero := p2.Snapshot()
	for round := int64(0); round < 5; round++ {
		for _, a := range addrs {
			p1.ObserveUpdate(a, round)
		}
	}
	checkZero := func(where string, p *Predictor) {
		t.Helper()
		for _, a := range addrs {
			if got := p.UniqueUpdates(a); got != 0 {
				t.Fatalf("%s: address %#x counts %d unique updates, want 0", where, a, got)
			}
		}
	}
	checkZero("untouched peer", p2)

	s1 := p1.Snapshot()
	p2.Restore(s1)
	for _, a := range addrs {
		p2.ObserveUpdate(a, 100)
		p2.AddressUnmonitored(a + 8*64)
	}
	if got := p1.Snapshot(); !equalSnaps(got, s1) {
		t.Fatal("updates to a predictor restored from a peer's snapshot moved the peer")
	}
	p1.Restore(zero)
	checkZero("rewound to the zero snapshot", p1)
	p2.Restore(s1)
	if got := p2.Snapshot(); !equalSnaps(got, s1) {
		t.Fatal("snapshot changed after being restored and updated through")
	}
	checkZero("fresh predictor", NewPredictor(cfg))
}

func equalSnaps(a, b *PredictorSnap) bool {
	return a.predictedAll == b.predictedAll && a.predictedOne == b.predictedOne &&
		a.resets == b.resets && slices.Equal(a.counters, b.counters)
}

// TestPredictorTemplateMatchesFreshCounters: every template counter hashes
// exactly as a counter built afresh with hashutil.NewUniqueCounter(m, k,
// seed+i), value for value.
func TestPredictorTemplateMatchesFreshCounters(t *testing.T) {
	for _, cfg := range []PredictorConfig{
		DefaultPredictorConfig(),
		{Filters: 7, BloomBits: 64, BloomK: 3, Seed: 5},
	} {
		NewPredictor(cfg) // build the template
		p := NewPredictor(cfg)
		rng := rand.New(rand.NewPCG(cfg.Seed, 1))
		for i := range p.counters {
			fresh := hashutil.NewUniqueCounter(cfg.BloomBits, cfg.BloomK, cfg.Seed+uint64(i))
			for j := 0; j < 40; j++ {
				v := rng.Uint64() % 64
				if got, want := p.counters[i].Observe(v), fresh.Observe(v); got != want ||
					p.counters[i].State() != fresh.State() {
					t.Fatalf("cfg %+v counter %d value %d: template state %+v, fresh %+v",
						cfg, i, v, p.counters[i].State(), fresh.State())
				}
			}
		}
	}
}

// TestPredictorTemplateConcurrent builds and drives predictors of one new
// config from several goroutines at once, as a parallel sweep does: the
// first builds race to publish the template, and every predictor must
// still start from zero and count alone.
func TestPredictorTemplateConcurrent(t *testing.T) {
	cfg := PredictorConfig{Filters: 64, BloomBits: 24, BloomK: 6, Seed: 0xc0c0}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				p := NewPredictor(cfg)
				if n := p.UniqueUpdates(0x40); n != 0 {
					t.Errorf("fresh predictor counts %d unique updates", n)
					return
				}
				for v := int64(0); v < 10; v++ {
					p.ObserveUpdate(0x40, v)
				}
			}
		}()
	}
	wg.Wait()
}
