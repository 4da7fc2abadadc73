package experiments

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/fleet"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// fleetDevices is the experiment's fleet size K; fleetFloor its
// survivable-capacity floor. Every scripted churn schedule keeps at least
// fleetFloor devices on the bus, so only the worked example's blackout
// actually drains.
const (
	fleetDevices = 4
	fleetFloor   = 2
)

// fleetRandomSeeds addresses the randomized churn schedules; fixed so the
// experiment is a regression artifact, not a dice roll.
var fleetRandomSeeds = []uint64{1, 2}

// fleetScale bundles the fleet experiment's time constants at the
// configured scale: where the churn window opens, the checkpoint cadence
// (the bound on work a migration or ECC rewind loses), and the fleet
// budget that terminates hung fleets diagnosed. The budget is generous —
// it only costs wall-clock when a workload genuinely takes that long, and
// multiplexing plus thermal derates legitimately stretch fleet-relative
// completion times severalfold.
func (o Options) fleetScale() (base, checkpoint, budget event.Cycle) {
	if o.Quick {
		return 10_000, 100_000, 100_000_000
	}
	return 100_000, 1_000_000, 1_000_000_000
}

// fleetSchedules enumerates the churn-schedule set: the scripted
// sequences (every event kind, both migration flavors, compound churn)
// plus the seeded random ones.
func (o Options) fleetSchedules() []fleet.Schedule {
	base, _, _ := o.fleetScale()
	scheds := fleet.Scripted(fleetDevices, base)
	for _, seed := range fleetRandomSeeds {
		scheds = append(scheds, fleet.Random(seed, fleetDevices, fleetFloor, base, 8*base))
	}
	return scheds
}

// fleetConfig assembles one fleet cell: K devices, one 2x-oversubscribed
// workload per device (benchmarks alternating global/local-memory
// synchronization), a device-coupled machine-fault schedule per device,
// and the given churn plane.
func (o Options) fleetConfig(policy string, plane fleet.Schedule) fleet.Config {
	base, checkpoint, budget := o.fleetScale()
	gcfg := o.gpuConfig()
	benches := []string{"SPM_G", "TB_LG"}
	wls := make([]sim.Config, fleetDevices)
	for i := range wls {
		cfg := o.faultConfig(benches[i%len(benches)], policy, fault.Schedule{})
		cfg.Faults = nil
		cfg.Seed = uint64(i + 1)
		wls[i] = cfg
	}
	faults := make([]fault.Schedule, fleetDevices)
	for d := range faults {
		faults[d] = fault.Random(uint64(100+d), gcfg.NumCUs, base, 8*base)
	}
	return fleet.Config{
		Devices:         fleetDevices,
		MinDevices:      fleetFloor,
		Workloads:       wls,
		Plane:           plane,
		DeviceFaults:    faults,
		CheckpointEvery: checkpoint,
		FleetBudget:     budget,
		SLO:             fleet.SLO{StallWindow: budget / 2},
	}
}

// Fleet is the fleet-scale robustness experiment: K devices, every IFP
// policy (plus the Baseline control), every churn schedule — device loss
// with mid-kernel WG migration, restore with rebalance, thermal derates,
// uncorrectable ECC with retire-and-rewind — on top of per-device
// machine-fault schedules. The fleet SLO is enforced on every cell: IFP
// policies complete with zero violations, Baseline may hang but hangs
// diagnosed, and the loss schedules must actually migrate work off the
// lost device.
func Fleet(o Options) (*metrics.Table, error) {
	scheds := o.fleetSchedules()
	var cfgs []fleet.Config
	type key struct {
		policy string
		sched  int
	}
	var keys []key
	for _, p := range faultPolicies {
		for si, s := range scheds {
			cfgs = append(cfgs, o.fleetConfig(p, s))
			keys = append(keys, key{p, si})
		}
	}
	// Each fleet drives its own machines (each with its own single-goroutine
	// engine), so per-cell results are bit-identical to serial execution.
	results := make([]*fleet.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	sim.ForEach(len(cfgs), 0, func(i int) { results[i], errs[i] = fleet.New(cfgs[i]).Run() })

	t := metrics.NewTable(
		fmt.Sprintf("Fleet: %d devices x policy x churn schedule (2x capacity per device)", fleetDevices),
		"Policy", "Schedule", "Outcome", "Migrations", "Rewinds", "HealthEvents", "LostCycles")
	var violations []string
	for i, r := range results {
		k := keys[i]
		if errs[i] != nil {
			return nil, fmt.Errorf("fleet %s under %s: %w", k.policy, scheds[k.sched].Name, errs[i])
		}
		outcome := fmt.Sprintf("%d", r.FleetCycles)
		deadlocked := false
		for _, w := range r.Workloads {
			if w.Result.Deadlocked && !w.Drained {
				deadlocked = true
			}
		}
		switch {
		case r.Degraded:
			outcome = "DEGRADED"
		case deadlocked:
			outcome = deadlockMark
		}
		migrations, rewinds, lost := len(r.Migrations), 0, uint64(0)
		for _, w := range r.Workloads {
			rewinds += w.Recoveries
			lost += w.LostCycles
		}
		t.AddRow(k.policy, scheds[k.sched].Name, outcome, migrations, rewinds, len(r.Events), lost)
		for _, v := range r.Violations {
			violations = append(violations, fmt.Sprintf("%s under %s: %s", k.policy, scheds[k.sched].Name, v))
		}
		// The loss schedules must exercise the migration path, and the
		// Baseline control must actually hang (diagnosed) — otherwise the
		// oversubscription that gives the experiment its teeth is gone.
		if scheds[k.sched].Name == "single-loss" && migrations == 0 {
			violations = append(violations, fmt.Sprintf("%s under single-loss: no migration off the lost device", k.policy))
		}
		if k.policy == "Baseline" && scheds[k.sched].Name == "steady" && !deadlocked {
			violations = append(violations, "Baseline under steady: control did not deadlock")
		}
	}
	if len(violations) > 0 {
		return t, fmt.Errorf("fleet: %d SLO violation(s), first: %s", len(violations), violations[0])
	}
	return t, nil
}

// FleetWorkedExample renders two fleet runs in full — the worked examples
// README documents. First, AWG under the single-loss schedule: the
// health-event log shows device 3 falling off the bus and its mid-kernel
// workload migrating (checkpoint restore, re-homing, fresh checkpoint on
// the surviving device) with every workload still completing verified.
// Second, a blackout below the survivable floor: the fleet degrades
// cleanly, each drained workload carrying a structured fleet-drain
// diagnosis.
func FleetWorkedExample(o Options) (string, error) {
	scheds := o.fleetSchedules()
	var single fleet.Schedule
	for _, s := range scheds {
		if s.Name == "single-loss" {
			single = s
		}
	}
	r, err := fleet.New(o.fleetConfig("AWG", single)).Run()
	if err != nil {
		return "", fmt.Errorf("fleet example: %w", err)
	}
	if len(r.Migrations) == 0 || len(r.Violations) != 0 {
		return "", fmt.Errorf("fleet example: expected a clean migration, got:\n%s", r)
	}

	base, _, _ := o.fleetScale()
	blackout := fleet.Schedule{Name: "blackout", Events: []fleet.Event{
		{At: 3 * base, Kind: fleet.DeviceLoss, Device: 3},
		{At: 4 * base, Kind: fleet.DeviceLoss, Device: 2},
		{At: 5 * base, Kind: fleet.DeviceLoss, Device: 1},
	}}
	cfg := o.fleetConfig("AWG", blackout)
	d, err := fleet.New(cfg).Run()
	if err != nil {
		return "", fmt.Errorf("fleet blackout example: %w", err)
	}
	if !d.Degraded {
		return "", fmt.Errorf("fleet blackout example: fleet did not degrade:\n%s", d)
	}
	for _, v := range d.Violations {
		return "", fmt.Errorf("fleet blackout example: drain violated the SLO: %s", v)
	}
	return fmt.Sprintf(
		"Worked example: migration under churn — AWG, %d devices, schedule %q\n%s\nWorked example: graceful degradation — losses below the floor of %d, schedule %q\n%s",
		fleetDevices, single.Name, r, cfg.MinDevices, blackout.Name, d), nil
}
