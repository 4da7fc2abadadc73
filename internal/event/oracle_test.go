package event

import (
	"container/heap"
	"fmt"
	"testing"

	"awgsim/internal/hashutil"
)

// oracleEngine is the pre-overhaul calendar — a container/heap of closures —
// kept verbatim as the reference model. The determinism regression replays
// randomized schedules against it: the wheel+heap engine must reproduce its
// firing order exactly, including same-cycle seq ties.
type oracleEngine struct {
	now       Cycle
	seq       uint64
	events    oracleHeap
	executed  uint64
	stopped   bool
	budget    uint64
	budgetHit bool
}

type oracleScheduled struct {
	at  Cycle
	seq uint64
	fn  func()
}

type oracleHeap []oracleScheduled

func (h oracleHeap) Len() int { return len(h) }

func (h oracleHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *oracleHeap) Push(x any) { *h = append(*h, x.(oracleScheduled)) }

func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = oracleScheduled{}
	*h = old[:n-1]
	return ev
}

func newOracle() *oracleEngine { return &oracleEngine{} }

func (e *oracleEngine) Now() Cycle              { return e.now }
func (e *oracleEngine) Executed() uint64        { return e.executed }
func (e *oracleEngine) Pending() int            { return len(e.events) }
func (e *oracleEngine) Stop()                   { e.stopped = true }
func (e *oracleEngine) SetEventBudget(n uint64) { e.budget = n }
func (e *oracleEngine) BudgetExhausted() bool   { return e.budgetHit }

func (e *oracleEngine) At(at Cycle, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("event: scheduling at cycle %d before now %d", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, oracleScheduled{at: at, seq: e.seq, fn: fn})
}

func (e *oracleEngine) After(d Cycle, fn func()) { e.At(e.now+d, fn) }

func (e *oracleEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(oracleScheduled)
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

func (e *oracleEngine) RunUntil(limit Cycle) uint64 {
	e.stopped = false
	start := e.executed
	for !e.stopped && len(e.events) > 0 {
		if e.events[0].at > limit {
			break
		}
		if e.budget != 0 && e.executed >= e.budget {
			e.budgetHit = true
			break
		}
		e.Step()
	}
	return e.executed - start
}

func (e *oracleEngine) Run() uint64 { return e.RunUntil(Never) }

func (e *oracleEngine) NextEventAt() Cycle {
	if len(e.events) == 0 {
		return Never
	}
	return e.events[0].at
}

// calendar is the surface both implementations share; the workload driver
// runs against it.
type calendar interface {
	Now() Cycle
	Executed() uint64
	Pending() int
	At(Cycle, func())
	After(Cycle, func())
	Step() bool
	RunUntil(Cycle) uint64
	Run() uint64
	Stop()
	SetEventBudget(uint64)
	BudgetExhausted() bool
	NextEventAt() Cycle
}

var (
	_ calendar = (*Engine)(nil)
	_ calendar = (*oracleEngine)(nil)
)

// randDelta draws a delay spanning every calendar region: same-cycle, the
// near wheel, the far wheel, and the overflow heap.
func randDelta(rng *uint64) Cycle {
	switch hashutil.Next(rng) % 10 {
	case 0:
		return 0
	case 1, 2, 3, 4:
		return Cycle(hashutil.Next(rng) % 256)
	case 5, 6, 7:
		return Cycle(256 + hashutil.Next(rng)%65_000)
	case 8:
		return Cycle(65_536 + hashutil.Next(rng)%500_000)
	default:
		return Cycle(hashutil.Next(rng) % 16)
	}
}

type firing struct {
	at Cycle
	id uint64
}

// runWorkload drives c through a seed-derived schedule of At/After/Step/
// RunUntil/Stop/budget operations — including events that schedule children
// and segments that leave the near window ahead of the clock (exercising
// the below-base heap path) — and returns the exact firing trace.
func runWorkload(c calendar, seed uint64) []firing {
	rng := seed
	var trace []firing
	var nextID uint64

	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		d := randDelta(&rng)
		body := func() {
			trace = append(trace, firing{c.Now(), id})
			// Children reseed from the id so both engines make identical
			// decisions regardless of host state.
			crng := seed ^ (id+1)*0x9e3779b97f4a7c15
			n := hashutil.Next(&crng) % 3
			for i := uint64(0); i < n && depth > 0; i++ {
				cid := nextID
				nextID++
				cd := randDelta(&crng)
				cbody := func() { trace = append(trace, firing{c.Now(), cid}) }
				if hashutil.Next(&crng)%2 == 0 {
					c.After(cd, cbody)
				} else {
					c.At(c.Now()+cd, cbody)
				}
			}
			if depth > 0 && hashutil.Next(&crng)%16 == 0 {
				c.Stop()
			}
		}
		if hashutil.Next(&rng)%2 == 0 {
			c.After(d, body)
		} else {
			c.At(c.Now()+d, body)
		}
	}

	for round := 0; round < 40; round++ {
		for i := uint64(0); i < hashutil.Next(&rng)%8; i++ {
			schedule(1)
		}
		switch hashutil.Next(&rng) % 6 {
		case 0:
			c.Step()
		case 1:
			c.SetEventBudget(c.Executed() + hashutil.Next(&rng)%64 + 1)
			c.RunUntil(c.Now() + Cycle(hashutil.Next(&rng)%200_000))
			c.SetEventBudget(0)
		default:
			c.RunUntil(c.Now() + Cycle(hashutil.Next(&rng)%200_000))
		}
		trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
		if c.NextEventAt() != Never {
			trace = append(trace, firing{c.NextEventAt(), ^uint64(0) - 1})
		}
	}
	c.Run()
	trace = append(trace, firing{c.Now(), ^uint64(c.Pending())})
	return trace
}

// TestCalendarMatchesHeapOracle is the determinism regression for the
// wheel+heap calendar: over many randomized schedules, the firing order
// (including same-cycle seq ties), clock, pending counts, and budget
// behaviour must match the pre-overhaul container/heap engine exactly.
func TestCalendarMatchesHeapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got := runWorkload(New(), seed)
		want := runWorkload(newOracle(), seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: %d vs oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverged at step %d: got (at=%d id=%d), oracle (at=%d id=%d)",
					seed, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	}
}

// TestTaskOrderingMatchesClosures checks that AtTask entries interleave
// with At closures in strict scheduling order and that fired tasks are
// recycled through the free list.
func TestTaskOrderingMatchesClosures(t *testing.T) {
	e := New()
	var order []int
	mk := func(i int) *Task {
		tk := e.NewTask(func(tk *Task) { order = append(order, int(tk.I[0])) })
		tk.I[0] = int64(i)
		return tk
	}
	e.At(5, func() { order = append(order, 0) })
	e.AtTask(5, mk(1))
	e.At(5, func() { order = append(order, 2) })
	e.AtTask(3, mk(3))
	e.AfterTask(5, mk(4))
	e.Run()
	want := []int{3, 0, 1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	// All three tasks came back to the free list: three NewTask calls in a
	// row must reuse them without growing the pool.
	a, b, c := e.NewTask(nil), e.NewTask(nil), e.NewTask(nil)
	if a == b || b == c || a == c {
		t.Fatal("free list handed out the same task twice")
	}
	// Recycling clears the pointer-shaped slots (GC + snapshot safety); the
	// I slots are deliberately left stale — callees read only what their
	// scheduler wrote.
	for _, tk := range []*Task{a, b, c} {
		if tk.Env[0] != nil {
			t.Fatalf("recycled task kept an Env reference: %+v", tk)
		}
	}
}

// TestBelowBaseScheduling pins the regression where a cascade advances the
// near window past the clock and a subsequent event lands below nearBase.
func TestBelowBaseScheduling(t *testing.T) {
	e := New()
	var fired []Cycle
	log := func() { fired = append(fired, e.Now()) }
	e.At(5, log)
	e.At(70_000, log)
	e.RunUntil(10) // fires 5; the peek at 70k cascades the window forward
	if len(fired) != 1 {
		t.Fatalf("fired %v, want just cycle 5", fired)
	}
	e.At(20, log) // below the advanced nearBase: must take the heap path
	e.At(70_001, log)
	e.Run()
	want := []Cycle{5, 20, 70_000, 70_001}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func BenchmarkEngineShortDelays(b *testing.B) {
	// Four concurrent chains of small After delays — the CU-issue/bank-
	// service shape that dominates the experiment workloads.
	b.ReportAllocs()
	e := New()
	remaining := b.N
	var chain func()
	chain = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		e.After(Cycle(remaining%61+1), chain)
	}
	for i := 0; i < 4; i++ {
		e.After(Cycle(i+1), chain)
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineTaskShortDelays(b *testing.B) {
	// Same shape as BenchmarkEngineShortDelays but through the pooled Task
	// path: steady-state this must not allocate at all.
	b.ReportAllocs()
	e := New()
	remaining := b.N
	var chain TaskFunc
	chain = func(t *Task) {
		if remaining <= 0 {
			return
		}
		remaining--
		e.AfterTask(Cycle(remaining%61+1), e.NewTask(chain))
	}
	for i := 0; i < 4; i++ {
		e.AfterTask(Cycle(i+1), e.NewTask(chain))
	}
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineMixedHorizon(b *testing.B) {
	// Delays spanning near wheel, far wheel and overflow heap, like a run
	// with firmware cadences and watchdogs in flight.
	b.ReportAllocs()
	e := New()
	rng := uint64(1)
	remaining := b.N
	var chain func()
	chain = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		e.After(randDelta(&rng)+1, chain)
	}
	for i := 0; i < 8; i++ {
		e.After(Cycle(i+1), chain)
	}
	b.ResetTimer()
	e.Run()
}
