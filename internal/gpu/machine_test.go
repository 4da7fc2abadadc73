package gpu

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// spinPolicy is a minimal busy-wait policy for machine tests.
type spinPolicy struct{ m *Machine }

func (p *spinPolicy) Name() string            { return "spin" }
func (p *spinPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *spinPolicy) Wait(w *WG, v Var, op AtomicOp, a, b, want int64, cmp Cmp, _ WaitHint, done func(int64)) {
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, v, op, a, b, nil, func(ret int64) {
			if cmp.Test(ret, want) {
				done(ret)
				return
			}
			p.m.Engine().After(16, attempt)
		})
	}
	attempt()
}

// yieldPolicy context-switches waiters out whenever the machine is
// oversubscribed, for dispatcher/preemption tests.
type yieldPolicy struct{ m *Machine }

func (p *yieldPolicy) Name() string            { return "yield" }
func (p *yieldPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *yieldPolicy) Wait(w *WG, v Var, op AtomicOp, a, b, want int64, cmp Cmp, _ WaitHint, done func(int64)) {
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, v, op, a, b, nil, func(ret int64) {
			if cmp.Test(ret, want) {
				done(ret)
				return
			}
			if p.m.Oversubscribed() {
				p.m.SwitchOut(w)
			}
			p.m.Engine().After(2000, func() { p.m.Deliver(w, attempt) })
		})
	}
	attempt()
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCUs = 2
	cfg.MaxWGsPerCU = 4
	cfg.ProgressWindow = 200_000
	cfg.MaxCycles = 10_000_000
	return cfg
}

func newTestMachine(t *testing.T, cfg Config, spec *KernelSpec, pol Policy) *Machine {
	t.Helper()
	if pol == nil {
		pol = &spinPolicy{}
	}
	m, err := NewMachine(cfg, mem.DefaultConfig(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineValidation(t *testing.T) {
	spec := irKernel("k", 1, noop)
	if _, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, nil); err == nil {
		t.Error("nil policy accepted")
	}
	bad := testConfig()
	bad.NumCUs = 0
	if _, err := NewMachine(bad, mem.DefaultConfig(), spec, &spinPolicy{}); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewMachine(testConfig(), mem.DefaultConfig(), &KernelSpec{}, &spinPolicy{}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestTrivialKernelCompletes(t *testing.T) {
	const ranBase = mem.Addr(0x800)
	spec := irKernel("trivial", 8, func(b *prog.Builder) {
		b.Compute(prog.Imm(100))
		b.Store(wgWord(b, ranBase, 8), prog.Imm(1))
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("trivial kernel deadlocked")
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d WGs, want 8", res.Completed)
	}
	for i := 0; i < 8; i++ {
		if m.Mem().Read(resultWord(ranBase, i)) != 1 {
			t.Errorf("WG %d never ran", i)
		}
	}
	if res.Cycles == 0 {
		t.Fatal("zero runtime")
	}
}

func TestRunTwicePanics(t *testing.T) {
	spec := irKernel("k", 1, noop)
	m := newTestMachine(t, testConfig(), spec, nil)
	m.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run()
}

func TestAtomicAddAccumulates(t *testing.T) {
	const counter = mem.Addr(0x1000)
	spec := irKernel("adders", 8, func(b *prog.Builder) {
		repeat(b, 10, func(prog.Src) { b.AtomicAddX(b.GVar(uint64(counter)), prog.Imm(1)) })
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(counter); got != 80 {
		t.Fatalf("counter = %d, want 80", got)
	}
	if res.Atomics != 80 {
		t.Fatalf("atomics counted = %d, want 80", res.Atomics)
	}
}

func TestAtomicOpsReturnOldValue(t *testing.T) {
	const a, out = mem.Addr(0x2000), mem.Addr(0x2800)
	spec := irKernel("ops", 1, func(b *prog.Builder) {
		v := b.GVar(uint64(a))
		b.AtomicStore(v, prog.Imm(5))
		exch := b.AtomicExch(v, prog.Imm(9))
		cas := b.AtomicCAS(v, prog.Imm(9), prog.Imm(13))
		load := b.AtomicLoad(v)
		for i, r := range []prog.Src{exch, cas, load} {
			b.Store(b.GVar(uint64(resultWord(out, i))), r)
		}
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	exchOld, casOld, loadVal := m.Mem().Read(resultWord(out, 0)), m.Mem().Read(resultWord(out, 1)), m.Mem().Read(resultWord(out, 2))
	if exchOld != 5 || casOld != 9 || loadVal != 13 {
		t.Fatalf("exch=%d cas=%d load=%d, want 5 9 13", exchOld, casOld, loadVal)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	const a, out = mem.Addr(0x3000), mem.Addr(0x3800)
	spec := irKernel("ls", 1, func(b *prog.Builder) {
		b.Store(b.GVar(uint64(a)), prog.Imm(42))
		b.Store(b.GVar(uint64(out)), b.Load(b.GVar(uint64(a))))
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if got := m.Mem().Read(out); got != 42 {
		t.Fatalf("loaded %d, want 42", got)
	}
}

func TestProducerConsumerViaAwait(t *testing.T) {
	const flag, out = mem.Addr(0x4000), mem.Addr(0x4800)
	b := prog.NewBuilder()
	v := b.GVar(uint64(flag))
	obs := b.Reg()
	ifWG0(b, func() {
		b.Compute(prog.Imm(5000))
		b.AtomicStore(v, prog.Imm(7))
	}, func() {
		b.AwaitEq(v, prog.Imm(7))
		b.Store(b.GVar(uint64(out)), obs)
	})
	p := b.MustBuild()
	// Builder.AwaitEq discards the observed value; deliver it into obs.
	for i := range p.Code {
		if p.Code[i].Kind == prog.OpAwaitEq {
			p.Code[i].Dst = obs.Reg
		}
	}
	spec := &KernelSpec{Name: "pc", NumWGs: 2, WIsPerWG: 64, IR: p}
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if observed := m.Mem().Read(out); observed != 7 {
		t.Fatalf("consumer observed %d, want 7", observed)
	}
}

func TestAwaitGE(t *testing.T) {
	const c = mem.Addr(0x5000)
	spec := irKernel("ge", 4, func(b *prog.Builder) {
		v := b.GVar(uint64(c))
		b.AtomicAddX(v, prog.Imm(1))
		b.AwaitGE(v, prog.Imm(4)) // everyone waits for all arrivals
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("GE barrier deadlocked")
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() *Machine {
		const lock = mem.Addr(0x6000)
		spec := irKernel("replay", 8, func(b *prog.Builder) {
			v := b.GVar(uint64(lock))
			repeat(b, 5, func(prog.Src) {
				b.AcquireExch(v, prog.Imm(1), prog.Imm(0), false)
				b.Compute(prog.Imm(50))
				b.AtomicExchX(v, prog.Imm(0))
			})
		})
		return newTestMachine(t, testConfig(), spec, nil)
	}
	a := build().Run()
	b := build().Run()
	if a.Cycles != b.Cycles || a.Atomics != b.Atomics {
		t.Fatalf("replay diverged: %d/%d cycles, %d/%d atomics",
			a.Cycles, b.Cycles, a.Atomics, b.Atomics)
	}
}

func TestDeadlockDetection(t *testing.T) {
	const never = mem.Addr(0x7000)
	cfg := testConfig()
	cfg.ProgressWindow = 50_000
	spec := irKernel("stuck", 2, func(b *prog.Builder) {
		b.AwaitEq(b.GVar(uint64(never)), prog.Imm(1)) // no one ever sets it
	})
	m := newTestMachine(t, cfg, spec, nil)
	res := m.Run()
	if !res.Deadlocked {
		t.Fatal("watchdog missed an obvious deadlock")
	}
	if res.Completed != 0 {
		t.Fatalf("%d WGs completed in a deadlocked run", res.Completed)
	}
}

func TestOccupancyLimitedDispatch(t *testing.T) {
	// 16 WGs on a machine with 8 slots: the second half must start only
	// after the first half finishes (no policy-driven context switching
	// here).
	cfg := testConfig() // 2 CUs x 4 slots
	// Each finisher takes a ticket and records its ID in that order slot.
	const ticket, order = mem.Addr(0x800), mem.Addr(0x1000)
	spec := irKernel("waves", 16, func(b *prog.Builder) {
		b.Compute(prog.Imm(1000))
		slots := make([]uint64, 16)
		for i := range slots {
			slots[i] = uint64(resultWord(order, i))
		}
		first := b.AddrRange(slots)
		tk := b.AtomicAdd(b.GVar(uint64(ticket)), prog.Imm(1))
		b.Store(prog.At(b.Add(prog.Imm(first), tk), prog.Global), b.Geom(prog.GeomID))
	})
	m := newTestMachine(t, cfg, spec, nil)
	res := m.Run()
	if res.Deadlocked || res.Completed != 16 {
		t.Fatalf("run failed: deadlocked=%v completed=%d", res.Deadlocked, res.Completed)
	}
	var ids []WGID
	for i := 0; i < 16; i++ {
		ids = append(ids, WGID(m.Mem().Read(resultWord(order, i))))
	}
	// The first 8 finishers must be exactly WGs 0..7 (dispatch order).
	seen := map[WGID]bool{}
	for _, id := range ids[:8] {
		seen[id] = true
	}
	for i := WGID(0); i < 8; i++ {
		if !seen[i] {
			t.Fatalf("WG %d not in first dispatch wave: %v", i, ids[:8])
		}
	}
}

func TestHomeGroupsAndPlacement(t *testing.T) {
	cfg := testConfig() // 2 CUs x 4
	const sizes, groups = mem.Addr(0x1000), mem.Addr(0x2000)
	spec := irKernel("groups", 8, func(b *prog.Builder) {
		b.Store(wgWord(b, sizes, 8), b.Geom(prog.GeomGroupSize))
		b.Store(wgWord(b, groups, 8), b.Geom(prog.GeomGroup))
	})
	m := newTestMachine(t, cfg, spec, nil)
	if res := m.Run(); res.Deadlocked {
		t.Fatal("deadlocked")
	}
	for id := 0; id < 8; id++ {
		if size := m.Mem().Read(resultWord(sizes, id)); size != 4 {
			t.Errorf("WG %d group size %d, want 4", id, size)
		}
		want := id / 4
		if group := int(m.Mem().Read(resultWord(groups, id))); group != want {
			t.Errorf("WG %d in group %d, want %d", id, group, want)
		}
		// Initial placement puts each WG on its home CU.
		if id/4 != want {
			t.Errorf("placement mismatch")
		}
	}
	for _, w := range m.WGs() {
		if w.Home() != int(w.ID())/4 {
			t.Errorf("WG %d home %d", w.ID(), w.Home())
		}
	}
}

func TestPreemptCUForcesWGsOut(t *testing.T) {
	// Long-running WGs on 2 CUs; preempt CU 1 mid-run. With the yield
	// policy, everything still completes on CU 0.
	const flag = mem.Addr(0x8000)
	cfg := testConfig()
	spec := irKernel("preempt", 8, producerConsumer(flag, 60_000))
	m := newTestMachine(t, cfg, spec, &yieldPolicy{})
	m.Engine().At(10_000, func() { m.PreemptCU(1) })
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked after preemption under a yielding policy")
	}
	if m.EnabledCUs() != 1 {
		t.Fatalf("EnabledCUs = %d, want 1", m.EnabledCUs())
	}
	if res.SwitchesOut == 0 {
		t.Fatal("preemption recorded no context switches")
	}
	// Preempting again is a no-op.
	prev := m.Count.SwitchesOut
	m.PreemptCU(1)
	if m.Count.SwitchesOut != prev {
		t.Fatal("double preemption switched WGs again")
	}
}

func TestStalledWGsFreeIssueSlots(t *testing.T) {
	// Two WGs on one CU with one SIMD: when the neighbour busy-spins,
	// compute takes ~2x as long as when it is stalled.
	run := func(stallNeighbour bool) uint64 {
		const flag = mem.Addr(0x9000)
		cfg := testConfig()
		cfg.NumCUs = 1
		cfg.SIMDsPerCU = 1
		cfg.MaxWGsPerCU = 2
		var pol Policy = &spinPolicy{}
		if stallNeighbour {
			pol = &stallingPolicy{}
		}
		spec := irKernel("interfere", 2, producerConsumer(flag, 100_000))
		m := newTestMachine(t, cfg, spec, pol)
		res := m.Run()
		if res.Deadlocked {
			t.Fatal("deadlocked")
		}
		return res.Cycles
	}
	spinning := run(false)
	stalled := run(true)
	if spinning < stalled*3/2 {
		t.Fatalf("busy neighbour (%d cycles) not meaningfully slower than stalled neighbour (%d)",
			spinning, stalled)
	}
}

// stallingPolicy stalls waiters (releasing issue slots) and re-polls on a
// long timer.
type stallingPolicy struct{ m *Machine }

func (p *stallingPolicy) Name() string            { return "stalling" }
func (p *stallingPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *stallingPolicy) Wait(w *WG, v Var, op AtomicOp, a, b, want int64, cmp Cmp, _ WaitHint, done func(int64)) {
	var attempt func()
	attempt = func() {
		p.m.IssueAtomic(w, v, op, a, b, nil, func(ret int64) {
			if cmp.Test(ret, want) {
				p.m.SetStalled(w, false)
				done(ret)
				return
			}
			p.m.SetStalled(w, true)
			p.m.Engine().After(5_000, attempt)
		})
	}
	attempt()
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	spec := irKernel("k", 1, noop)
	m1 := newTestMachine(t, testConfig(), spec, nil)
	m2 := newTestMachine(t, testConfig(), spec, nil)
	for i := 0; i < 1000; i++ {
		a, b := m1.Jitter(100), m2.Jitter(100)
		if a != b {
			t.Fatal("jitter not deterministic across machines")
		}
		if a >= 100 {
			t.Fatalf("jitter %d out of range", a)
		}
	}
	if m1.Jitter(0) != 0 {
		t.Fatal("Jitter(0) != 0")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	const flag = mem.Addr(0xa000)
	spec := irKernel("breakdown", 2, producerConsumer(flag, 20_000))
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.Breakdown.Waiting == 0 {
		t.Fatal("consumer recorded no waiting time")
	}
	if res.Breakdown.Running == 0 {
		t.Fatal("no running time recorded")
	}
	// The consumer waited roughly as long as the producer computed.
	if res.Breakdown.Waiting < 15_000 {
		t.Fatalf("waiting = %d, expected ~20k", res.Breakdown.Waiting)
	}
}

func TestCharacterizationStats(t *testing.T) {
	const lock = mem.Addr(0xb000)
	spec := irKernel("charz", 4, func(b *prog.Builder) {
		v := b.GVar(uint64(lock))
		repeat(b, 3, func(prog.Src) {
			b.AcquireExch(v, prog.Imm(1), prog.Imm(0), false)
			b.Compute(prog.Imm(100))
			b.AtomicExchX(v, prog.Imm(0))
		})
	})
	m := newTestMachine(t, testConfig(), spec, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatal("deadlocked")
	}
	if res.SyncVars != 1 {
		t.Fatalf("SyncVars = %d, want 1", res.SyncVars)
	}
	if res.VarStats.MaxWaiters < 1 || res.VarStats.MaxWaiters > 4 {
		t.Fatalf("MaxWaiters = %d, want in [1,4]", res.VarStats.MaxWaiters)
	}
}

func TestSyncThreadsCost(t *testing.T) {
	cfg := testConfig()
	spec := irKernel("sync", 1, func(b *prog.Builder) {
		repeat(b, 10, func(prog.Src) { b.SyncThreads() })
	})
	m := newTestMachine(t, cfg, spec, nil)
	res := m.Run()
	minCost := uint64(10 * cfg.SyncThreadsLatency)
	if res.Cycles < minCost {
		t.Fatalf("10 syncthreads took %d cycles, want >= %d", res.Cycles, minCost)
	}
}

func TestOversubscribedFlag(t *testing.T) {
	cfg := testConfig() // capacity 8
	spec := irKernel("k", 12, computeOnly(1000))
	m := newTestMachine(t, cfg, spec, nil)
	if !m.Oversubscribed() {
		t.Fatal("12 WGs on 8 slots not reported oversubscribed before dispatch")
	}
	res := m.Run()
	if res.Deadlocked || res.Completed != 12 {
		t.Fatalf("oversubscribed-by-launch run failed: %+v", res)
	}
	if m.Oversubscribed() {
		t.Fatal("still oversubscribed after completion")
	}
}

func TestEventEngineExposed(t *testing.T) {
	spec := irKernel("k", 1, noop)
	m := newTestMachine(t, testConfig(), spec, nil)
	fired := false
	m.Engine().At(event.Cycle(1), func() { fired = true })
	m.Run()
	if !fired {
		t.Fatal("harness event did not fire")
	}
}
