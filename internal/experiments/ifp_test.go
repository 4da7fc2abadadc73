package experiments

import (
	"testing"

	"awgsim/internal/fault"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/sim"
)

// TestSpilledTicketLockUnderSqueezeCompletes runs the ticket lock whose
// waiters all spill onto one word: FAM_L under AWG at 12 WGs per CU and a
// 2x launch, with the scripted squeeze schedule shrinking the SyncMon.
// The CP's check passes must not flood the word's L2 bank, so the run
// completes within twice its fault-free cycles.
func TestSpilledTicketLockUnderSqueezeCompletes(t *testing.T) {
	g := gpu.DefaultConfig()
	g.MaxWGsPerCU /= 2
	p := kernels.DefaultParams()
	p.Groups = g.NumCUs
	p.NumWGs = 2 * g.NumCUs * g.MaxWGsPerCU
	cfg := sim.Config{Benchmark: "FAM_L", Policy: "AWG", GPU: g, Params: p}
	ff, err := sim.Run(cfg)
	if err != nil || ff.Deadlocked {
		t.Fatalf("fault-free run: err %v, deadlocked %v", err, ff.Deadlocked)
	}
	for _, s := range fault.Scripted(g.NumCUs, 100_000) {
		if s.Name == "squeeze" {
			cfg.Faults = &s
		}
	}
	if cfg.Faults == nil {
		t.Fatal("no squeeze schedule")
	}
	cfg.CycleBudget = 2 * ff.Cycles
	res, err := sim.Run(cfg)
	if err := fault.CheckOutcome(cfg.Policy, res, err); err != nil {
		t.Fatal(err)
	}
}

// TestAblationNoCacheCompletes: with the SyncMon cache off, every waiter
// goes through the Monitor Log and the CP. AWG-nocache must still finish
// the oversubscribed ticket lock, the ablation's FAM_G cell.
func TestAblationNoCacheCompletes(t *testing.T) {
	c := cell{bench: "FAM_G", policy: "AWG-nocache", oversub: true, iters: fig15Iters(quick)}
	res, err := sim.Run(quick.simConfig(c))
	if err := fault.CheckOutcome(c.policy, res, err); err != nil {
		t.Fatal(err)
	}
}
