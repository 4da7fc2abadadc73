package gpu

import (
	"testing"

	"awgsim/internal/event"
	"awgsim/internal/mem"
)

// TestRepeatedPreemptRestoreAccounting flaps both CUs through six
// loss/restore rounds at odd strides — landing preemptions mid-atomic and
// mid-context-switch — on an oversubscribed launch with a real LDS
// footprint, then checks every CU's resource pools (WG slots, wavefront
// slots, LDS) drained back to exactly their configured capacity.
func TestRepeatedPreemptRestoreAccounting(t *testing.T) {
	m, cfg := flappingMachine(t)
	res := m.Run()
	if res.Deadlocked {
		t.Fatalf("deadlocked under repeated preempt/restore: %v", res.Diagnosis)
	}
	if res.Completed != 16 {
		t.Fatalf("completed %d WGs, want 16", res.Completed)
	}
	if res.SwitchesOut == 0 {
		t.Fatal("flapping CUs recorded no context switches")
	}
	if got := m.EnabledCUs(); got != cfg.NumCUs {
		t.Fatalf("EnabledCUs = %d, want %d", got, cfg.NumCUs)
	}
	for id := 0; id < cfg.NumCUs; id++ {
		cu := m.sched.cu(CUID(id))
		if !cu.enabled {
			t.Errorf("cu%d left disabled", id)
		}
		if cu.wgSlots != cfg.MaxWGsPerCU {
			t.Errorf("cu%d wgSlots = %d, want %d", id, cu.wgSlots, cfg.MaxWGsPerCU)
		}
		if cu.wfSlots != cfg.wfSlotsPerCU() {
			t.Errorf("cu%d wfSlots = %d, want %d", id, cu.wfSlots, cfg.wfSlotsPerCU())
		}
		if cu.ldsFree != cfg.LDSPerCU {
			t.Errorf("cu%d ldsFree = %d, want %d", id, cu.ldsFree, cfg.LDSPerCU)
		}
		if len(cu.resident) != 0 {
			t.Errorf("cu%d still hosts %d WGs", id, len(cu.resident))
		}
	}
}

// flappingMachine builds the flapping schedule: an oversubscribed launch
// with an LDS footprint under yieldPolicy, with both CUs of the 2-CU test
// machine preempted and restored six times each.
func flappingMachine(t *testing.T) (*Machine, Config) {
	t.Helper()
	const flag = mem.Addr(0x8000)
	cfg := testConfig() // 2 CUs, 4 WGs/CU
	spec := &KernelSpec{
		Name: "flap-accounting", NumWGs: 16, WIsPerWG: 64, LDSBytes: 1024,
		Program: func(d Device) {
			if d.ID() == 0 {
				d.Compute(120_000)
				d.AtomicStore(GlobalVar(flag), 1)
				return
			}
			d.Compute(1_000)
			d.AwaitEq(GlobalVar(flag), 1)
		},
	}
	m := newTestMachine(t, cfg, spec, &yieldPolicy{})
	// Odd, co-prime strides so the outages drift across every phase of the
	// atomic and context-switch pipelines over the rounds. The two CUs'
	// outages briefly overlap in some rounds; both restores always land
	// within a few thousand cycles, far inside the progress window.
	eng := m.Engine()
	for i := 0; i < 6; i++ {
		at := event.Cycle(5_000 + 17_123*i)
		eng.At(at, func() { m.PreemptCU(1) })
		eng.At(at+7_919, func() { m.RestoreCU(1) })
		eng.At(at+3_557, func() { m.PreemptCU(0) })
		eng.At(at+9_973, func() { m.RestoreCU(0) })
	}
	return m, cfg
}
