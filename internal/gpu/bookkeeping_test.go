package gpu

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// This file checks the machine's O(1) per-operation bookkeeping against
// direct recomputation: each CU's issue tally against a sum over its
// resident map, the Table 2 update counter against hand-counted episodes,
// and the ready queue's tail placement against a full sort.

// checkIssueTallies recomputes every CU's issue tally from its resident map
// — the wavefronts of its resident, non-stalled WGs — and fails on any
// difference from the running count.
func checkIssueTallies(t *testing.T, m *Machine) {
	t.Helper()
	for id := 0; id < m.cfg.NumCUs; id++ {
		cu := m.sched.cu(CUID(id))
		want := 0
		for _, w := range cu.resident {
			if w.state == StateResident && !w.stalled {
				want += w.spec.Wavefronts(m.cfg.SIMDWidth)
			}
		}
		if cu.issuingWFs != want {
			t.Fatalf("cycle %d: cu%d issue tally %d, resident WGs issue %d wavefronts",
				m.eng.Now(), id, cu.issuingWFs, want)
		}
	}
}

// runChecked fires events one at a time up to cycle until, checking every
// CU's issue tally after each, and returns the number of events fired.
func runChecked(t *testing.T, m *Machine, until event.Cycle) int {
	t.Helper()
	n := 0
	for !m.eng.Stopped() && m.eng.NextEventAt() <= until && m.eng.Step() {
		n++
		checkIssueTallies(t, m)
	}
	return n
}

// finishChecked runs m to completion under the tally oracle and checks that
// every tally drained to zero.
func finishChecked(t *testing.T, m *Machine) (events int, res string) {
	t.Helper()
	events = runChecked(t, m, m.CycleLimit())
	r := m.FinishRun()
	if r.Deadlocked {
		t.Fatalf("deadlocked: %v", r.Diagnosis)
	}
	for id := 0; id < m.cfg.NumCUs; id++ {
		if n := m.sched.cu(CUID(id)).issuingWFs; n != 0 {
			t.Fatalf("cu%d issue tally %d after the run, want 0", id, n)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return events, string(b)
}

// stallPolicy parks each waiter stalled (freeing its issue slots) and polls
// its condition every 1500 cycles. When the machine is oversubscribed every
// other unmet poller is switched out, half of those staying stalled through
// the save and restore and half unstalling while they are off the CU; every
// poll re-stalls the waiter, and a met condition unstalls it.
type stallPolicy struct {
	m              *Machine
	polls, stalls  int
	unstallsAbsent int // unstalls landing while the WG was not resident
}

func (p *stallPolicy) Name() string            { return "stall" }
func (p *stallPolicy) Attach(m *Machine) error { p.m = m; return nil }

func (p *stallPolicy) Wait(w *WG, v Var, op AtomicOp, a, b, want int64, cmp Cmp, _ WaitHint, done func(int64)) {
	var attempt func()
	attempt = func() {
		p.m.SetStalled(w, true)
		p.stalls++
		p.m.IssueAtomic(w, v, op, a, b, nil, func(ret int64) {
			if cmp.Test(ret, want) {
				p.m.SetStalled(w, false)
				done(ret)
				return
			}
			p.polls++
			if p.polls%2 == 0 && p.m.Oversubscribed() {
				p.m.SwitchOut(w)
				if p.polls%4 == 0 && !w.Resident() {
					p.m.SetStalled(w, false)
					p.unstallsAbsent++
				}
			}
			p.m.Engine().After(1500, func() { p.m.Deliver(w, attempt) })
		})
	}
	attempt()
}

// stallEvictMachine builds an oversubscribed launch of 4-wavefront WGs
// under stallPolicy, plus a priority-1 kernel of 2-wavefront WGs injected
// mid-run onto the full machine, which forceEvicts residents for room.
func stallEvictMachine(t *testing.T) (*Machine, *stallPolicy, KernelHandle) {
	t.Helper()
	const flag = mem.Addr(0x8000)
	spec := irKernel("stall-tally", 16, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		ifWG0(b, func() {
			repeat(b, 4, func(prog.Src) {
				b.Compute(prog.Imm(20_000))
				b.AtomicAddX(v, prog.Imm(1))
			})
		}, func() {
			id := b.Geom(prog.GeomID)
			b.Compute(b.Mul(prog.Imm(500), b.Add(prog.Imm(1), b.Mod(id, prog.Imm(5)))))
			b.AwaitEq(v, prog.Imm(4))
			b.Compute(prog.Imm(2_000))
		})
	})
	spec.WIsPerWG = 256
	pol := &stallPolicy{}
	m := newTestMachine(t, testConfig(), spec, pol)
	hp := irKernel("hp-tally", 4, computeOnly(6_000))
	hp.WIsPerWG = 128
	h, err := m.InjectKernel(hp, 12_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, pol, h
}

func TestIssueTallyOracleFlapping(t *testing.T) {
	m, _ := flappingMachine(t)
	m.Prepare()
	events, _ := finishChecked(t, m)
	if events == 0 || m.Count.SwitchesOut == 0 {
		t.Fatalf("flapping run fired %d events and %d switch-outs", events, m.Count.SwitchesOut)
	}
}

func TestIssueTallyOracleStallAndForceEvict(t *testing.T) {
	m, pol, h := stallEvictMachine(t)
	m.Prepare()
	finishChecked(t, m)
	if !h.Done() {
		t.Fatal("injected kernel did not finish")
	}
	evicted := 0
	for _, w := range m.allWGs {
		if w.forcePreempted {
			evicted++
		}
	}
	if pol.stalls == 0 || pol.unstallsAbsent == 0 || evicted == 0 || m.Count.SwitchesOut == 0 {
		t.Fatalf("schedule did not exercise the transitions: %d stalls, %d unstalls while switched out, %d forced evictions, %d switch-outs",
			pol.stalls, pol.unstallsAbsent, evicted, m.Count.SwitchesOut)
	}
}

func TestIssueTallyOracleSnapshotRestore(t *testing.T) {
	ref, _, _ := stallEvictMachine(t)
	ref.Prepare()
	_, want := finishChecked(t, ref)

	m, _, _ := stallEvictMachine(t)
	m.Prepare()
	runChecked(t, m, 15_000)
	snap := m.Snapshot()
	// Run on far enough that residency and stall states differ from the
	// snapshot's, so the restore must rebuild the tallies, not keep them.
	runChecked(t, m, 45_000)
	m.Restore(snap)
	checkIssueTallies(t, m)
	if _, got := finishChecked(t, m); got != want {
		t.Fatalf("restored run diverged from the uninterrupted one:\n got %s\nwant %s", got, want)
	}
}

// TestCharEpisodeRestart pins the Table 2 update counting when a WG begins
// an episode it already has open: the restarted episode counts only the
// updates after its second charBegin, and other episodes are unaffected.
func TestCharEpisodeRestart(t *testing.T) {
	spec := irKernel("char", 2, noop)
	m := newTestMachine(t, testConfig(), spec, nil)
	au := m.atomics.(*atomicUnit)
	v := GlobalVar(0x8000)
	w0, w1 := m.allWGs[0], m.allWGs[1]
	update := func(n int) {
		for i := 0; i < n; i++ {
			au.observeUpdate(v.Addr + 4) // a sub-word address counts for its word
		}
		au.observeUpdate(0x9000) // another variable's updates never count
	}
	au.charBegin(w0, v, 1)
	update(3)
	au.charBegin(w1, v, 1)
	update(2)
	au.charBegin(w0, v, 1) // w0 restarts its open episode
	update(4)
	au.charMet(w0, v, 1)
	update(1)
	au.charMet(w1, v, 1)
	c := au.charFor(v)
	if got, want := fmt.Sprint(c.updatesPerMet), "[4 7]"; got != want {
		t.Fatalf("updates per met condition %s, want %s", got, want)
	}
	if len(c.epWGs) != 0 || len(c.epStarts) != 0 {
		t.Fatalf("episodes left open: %v / %v", c.epWGs, c.epStarts)
	}
	if got := au.characterization().stats.UpdatesPerCond; got != 5.5 {
		t.Fatalf("UpdatesPerCond %v, want 5.5", got)
	}
}

// TestCharSnapshotMidEpisode restores a snapshot taken while wait episodes
// are open and updates have been counted, after running on past it: the
// restored run's Table 2 UpdatesPerCond must equal an uninterrupted run's.
func TestCharSnapshotMidEpisode(t *testing.T) {
	const flag = mem.Addr(0x8000)
	spec := irKernel("char-snap", 6, func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		ifWG0(b, func() {
			repeat(b, 6, func(prog.Src) {
				b.Compute(prog.Imm(3_000))
				b.AtomicAddX(v, prog.Imm(1))
			})
		}, func() {
			// Staggered starts: episodes open at different update counts.
			b.Compute(b.Mul(prog.Imm(2_500), b.Geom(prog.GeomID)))
			b.AwaitEq(v, prog.Imm(6))
		})
	})
	ref := newTestMachine(t, testConfig(), spec, nil)
	want := ref.Run().VarStats.UpdatesPerCond
	if want == 0 {
		t.Fatal("uninterrupted run counted no updates per met condition")
	}

	m := newTestMachine(t, testConfig(), spec, nil)
	m.Prepare()
	au := m.atomics.(*atomicUnit)
	c := func() *varChar { return au.charFor(GlobalVar(flag)) }
	cut := event.Cycle(0)
	for c().updates == 0 || len(c().epWGs) < 2 {
		if m.Done() {
			t.Fatal("no mid-episode cut found")
		}
		cut += 500
		m.RunTo(cut)
	}
	snap := m.Snapshot()
	m.RunTo(cut + 8_000)
	m.Restore(snap)
	m.RunTo(m.CycleLimit())
	if got := m.FinishRun().VarStats.UpdatesPerCond; got != want {
		t.Fatalf("restored run UpdatesPerCond %v, uninterrupted %v", got, want)
	}
}

// TestReadyQueueOrderMatchesFullSort drives random interleavings of
// enqueueReady, requeueReady, dispatcher pops and machine Snapshot/Restore
// against a reference queue that runs a full sortWGQueue after every
// enqueueReady append and takes a bare append for requeueReady (a requeued
// WG keeps its old sequence). The two queues must agree after every
// operation.
func TestReadyQueueOrderMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		spec := irKernel("rq", 10, noop)
		m := newTestMachine(t, testConfig(), spec, nil)
		for pri := 1; pri <= 2; pri++ {
			hp := irKernel(fmt.Sprint("rq-hp", pri), 5, noop)
			if _, err := m.InjectKernel(hp, 1_000, pri); err != nil {
				t.Fatal(err)
			}
		}
		s := m.sched.(*scheduler)
		rng := rand.New(rand.NewSource(seed))
		var ref []*WG
		type saved struct {
			snap *Snapshot
			ref  []*WG
		}
		var snaps []saved
		queued := func(w *WG) bool {
			for _, r := range ref {
				if r == w {
					return true
				}
			}
			return false
		}
		for op := 0; op < 400; op++ {
			w := m.allWGs[rng.Intn(len(m.allWGs))]
			switch k := rng.Intn(10); {
			case k < 4 && !queued(w):
				s.enqueueReady(w)
				ref = append(ref, w)
				sortWGQueue(ref)
			case k < 5 && !queued(w):
				s.requeueReady(w)
				ref = append(ref, w)
			case k < 8 && len(ref) > 0:
				s.readyQueue = s.readyQueue[1:] // a dispatcher pop
				ref = ref[1:]
			case k == 8:
				snaps = append(snaps, saved{m.Snapshot(), append([]*WG(nil), ref...)})
			case k == 9 && len(snaps) > 0:
				sv := snaps[rng.Intn(len(snaps))]
				m.Restore(sv.snap)
				ref = append(ref[:0:0], sv.ref...)
			}
			if got, want := fmt.Sprint(s.readyQueue), fmt.Sprint(ref); got != want {
				t.Fatalf("seed %d op %d: ready queue %s, full-sort reference %s", seed, op, got, want)
			}
		}
	}
}

// BenchmarkComputeIssue times one compute chunk on the CU-issue hot path —
// the event that samples issueFactor — with 1, 8 and 24 WGs resident on the
// CU. The other residents are parked in waits that never end and issue
// nothing, so the only events are the measured WG's chunks; ns/op must stay
// flat as residency grows.
func BenchmarkComputeIssue(b *testing.B) {
	for _, resident := range []int{1, 8, 24} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NumCUs = 1
			spec := irKernel("compute-issue", resident, func(b *prog.Builder) {
				ifWG0(b, func() {
					b.Compute(prog.Imm(1 << 60))
				}, func() {
					b.AwaitEq(b.GVar(0x8000), prog.Imm(1))
				})
			})
			m, err := NewMachine(cfg, mem.DefaultConfig(), spec, parkPolicy{})
			if err != nil {
				b.Fatal(err)
			}
			m.Prepare()
			// Dispatch every WG and let the parked ones reach their waits.
			m.RunTo(event.Cycle(cfg.DispatchLatency) * event.Cycle(resident+4))
			for _, w := range m.allWGs {
				if !w.Resident() {
					b.Fatalf("%v not resident after dispatch", w)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.eng.Step()
			}
			b.StopTimer()
			m.FinishRun()
		})
	}
}

// parkPolicy leaves every waiter resident and issuing but never completes
// its wait, and sends no traffic.
type parkPolicy struct{}

func (parkPolicy) Name() string          { return "park" }
func (parkPolicy) Attach(*Machine) error { return nil }
func (parkPolicy) Wait(*WG, Var, AtomicOp, int64, int64, int64, Cmp, WaitHint, func(int64)) {
}
