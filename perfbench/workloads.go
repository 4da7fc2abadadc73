package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"awgsim/internal/event"
	"awgsim/internal/fault"
	"awgsim/internal/fleet"
	"awgsim/internal/gpu"
	"awgsim/internal/kernels"
	"awgsim/internal/litmus"
	"awgsim/internal/metrics"
	"awgsim/internal/sim"
)

// Seed streams: every generated input draws from its own stream of the
// workload seed, so adding an input never shifts another.
const (
	streamJitter uint64 = iota + 1
	streamFaultSched
	streamPlane
	streamDeviceFault
	streamLitmus
)

// subSeed derives input i of a stream from the workload seed (splitmix64).
func subSeed(seed, stream uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + uint64(i+1)*0x94d049bb133111eb
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// resultDigest is the part of a run's result that a simulator-only change
// must leave identical. The diagnosis is reduced to its summary line.
func resultDigest(res metrics.Result, err error) []any {
	diag := ""
	if res.Diagnosis != nil {
		diag = res.Diagnosis.Summary()
	}
	res.Diagnosis = nil
	e := ""
	if err != nil {
		e = err.Error()
	}
	return []any{res, diag, e}
}

// diagnosis names why a run stopped short.
func diagnosis(res metrics.Result) string {
	if res.Diagnosis == nil {
		return "stopped without a diagnosis"
	}
	return res.Diagnosis.Summary()
}

// oversubscribed returns the Table-1 machine config at a 2x launch: twice
// as many WGs as resident slots.
func oversubscribed(bench, policy string, maxWGsPerCU int) sim.Config {
	g := gpu.DefaultConfig()
	g.MaxWGsPerCU = maxWGsPerCU
	p := kernels.DefaultParams()
	p.Groups = g.NumCUs
	p.NumWGs = 2 * g.NumCUs * g.MaxWGsPerCU
	return sim.Config{Benchmark: bench, Policy: policy, GPU: g, Params: p}
}

// runSession drives one simulation through sim.NewSession, Session.Run and
// Session.Release, recording a span around each call.
func runSession(cfg sim.Config, lay *layers, tr *tracer, parent int) (metrics.Result, error) {
	sp := tr.begin("sim.NewSession", parent, "")
	t0 := time.Now()
	s, err := sim.NewSession(cfg)
	tNew := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return metrics.Result{}, err
	}
	sp = tr.begin("sim.Session.Run", parent, "")
	t0 = time.Now()
	res, err := s.Run()
	tRun := time.Since(t0)
	tr.end(sp)
	lay.session(s, res, tNew, tRun)
	sp = tr.begin("sim.Session.Release", parent, "")
	t0 = time.Now()
	s.Release()
	lay.release(time.Since(t0))
	tr.end(sp)
	return res, err
}

// parallel runs f(0..n-1) over at most width goroutines and waits.
func parallel(n, width int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// busywait is the paper's busy-wait regime: the Table-1 machine at a full,
// not oversubscribed launch, under the policies that spin or back off on
// banked L2 atomics. No WG is ever switched out.
var busywait = workload{
	name:      "busywait",
	poolWidth: func(workers int) int { return workers },
	setup: func(p *params, tr *tracer) ([]unit, error) {
		benches := kernels.All()
		jitterSeeds := 3
		kp := kernels.DefaultParams()
		if p.quick {
			benches, jitterSeeds, kp.Iters = benches[:4], 1, 2
		}
		var units []unit
		for _, pol := range []string{"Baseline", "Sleep", "Timeout"} {
			for _, b := range benches {
				for j := range jitterSeeds {
					cfg := sim.Config{Benchmark: b, Policy: pol, GPU: gpu.DefaultConfig(), Params: kp,
						Seed: subSeed(p.seed, streamJitter, j)}
					if len(units) < probeSample {
						// Snapshotted mid-kernel and restored once.
						p.lay.addProbe(probe{cfg: cfg, snapAt: []event.Cycle{50_000}, restores: 1})
					}
					units = append(units, unit{id: fmt.Sprintf("%s/%s/j%d", b, pol, j), run: func(tr *tracer, sp int) unitResult {
						res, err := runSession(cfg, p.lay, tr, sp)
						p.lay.result(res)
						u := unitResult{Digest: digestOf(resultDigest(res, err)...)}
						switch {
						case err != nil:
							u.Failed, u.Detail = true, err.Error()
						case res.Deadlocked:
							u.Failed, u.Detail = true, diagnosis(res)
						}
						return u
					}})
				}
			}
		}
		return units, nil
	},
}

// Fault-sweep constants. faultBase is where the fault window opens (after
// waiting state builds up), as in awgexp at full scale. faultBudgetK is
// the workload's cycle-budget multiple: every cell runs under k times its
// own config's fault-free cycle count. It is the smallest k >= 2 at which
// every cell that completes without a budget still completes; recompute it
// with `perfbench -calibrate` when the workload or the model changes.
const (
	faultBase    event.Cycle = 100_000
	faultBudgetK             = 2
)

// faultGroup is one fault_sweep unit: a fault-free config and the fault
// schedules its members add, with the config's fault-free cycle count once
// the reference run has set it.
type faultGroup struct {
	id      string
	policy  string
	base    sim.Config // fault-free config; members add a schedule
	scheds  []fault.Schedule
	defect  bool
	ffCycle uint64
}

// faultSweepGroups generates the sweep's fork groups from the seed, the
// known-defect cell first.
func faultSweepGroups(seed uint64, quick bool) []*faultGroup {
	gcfg := gpu.DefaultConfig()
	scheds := fault.Scripted(gcfg.NumCUs, faultBase)
	randoms, jitterSeeds := 8, 2
	if quick {
		randoms, jitterSeeds = 2, 1
	}
	for i := range randoms {
		scheds = append(scheds, fault.Random(subSeed(seed, streamFaultSched, i), gcfg.NumCUs, faultBase, 8*faultBase))
	}
	// The known defect: FAM_L under AWG with the scripted squeeze schedule
	// at half Table-1 occupancy (12 WGs per CU, 192 WGs, a 2x launch). It
	// fails to complete while the defect stands; it stays in the workload,
	// unchanged, and counts as failed.
	var squeeze fault.Schedule
	for _, s := range scheds {
		if s.Name == "squeeze" {
			squeeze = s
		}
	}
	groups := []*faultGroup{{
		id: "FAM_L/AWG/squeeze/occ12", policy: "AWG", defect: true,
		base: oversubscribed("FAM_L", "AWG", gcfg.MaxWGsPerCU/2), scheds: []fault.Schedule{squeeze},
	}}
	for _, b := range []string{"SPM_G", "TB_LG"} {
		for _, pol := range []string{"MonNR-All", "MonNR-One", "AWG"} {
			for j := range jitterSeeds {
				cfg := oversubscribed(b, pol, gcfg.MaxWGsPerCU)
				cfg.Seed = subSeed(seed, streamJitter, j)
				groups = append(groups, &faultGroup{
					id: fmt.Sprintf("%s/%s/j%d", b, pol, j), policy: pol, base: cfg, scheds: scheds,
				})
			}
		}
	}
	return groups
}

// jobs returns the group's sweep jobs under the given cycle budget.
func (g *faultGroup) jobs(budget uint64) []sim.Job {
	jobs := make([]sim.Job, len(g.scheds))
	for i := range g.scheds {
		cfg := g.base
		s := g.scheds[i]
		cfg.Faults = &s
		cfg.CycleBudget = budget
		jobs[i] = sim.Job{Key: s.Name, Config: cfg}
	}
	return jobs
}

// references runs every group's fault-free config once to set the budgets.
func references(groups []*faultGroup, p *params, tr *tracer) error {
	errs := make([]error, len(groups))
	parallel(len(groups), p.workers, func(i int) {
		g := groups[i]
		sp := tr.begin("bench.reference", 0, g.id)
		res, err := runSession(g.base, p.lay, tr, sp)
		tr.end(sp)
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("reference %s: %w", g.id, err)
		case res.Deadlocked:
			errs[i] = fmt.Errorf("reference %s did not complete: %s", g.id, diagnosis(res))
		}
		g.ffCycle = res.Cycles
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// faultSweep is the oversubscribed, fault-ridden regime: monitor-based
// policies at a 2x launch under scripted and random fault schedules. Each
// (bench, policy, jitter seed) fork group goes through sim.RunAllWorkers,
// so the fork planner and run cache apply as they do in awgexp.
var faultSweep = workload{
	name:      "fault_sweep",
	poolWidth: func(workers int) int { return workers },
	setup: func(p *params, tr *tracer) ([]unit, error) {
		groups := faultSweepGroups(p.seed, p.quick)
		if err := references(groups, p, tr); err != nil {
			return nil, err
		}
		units := make([]unit, len(groups))
		for i, g := range groups {
			jobs := g.jobs(faultBudgetK * g.ffCycle)
			if i < probeSample {
				// As the fork planner does: one snapshot of the shared
				// prefix where the first fault lands, one restore per member.
				p.lay.addProbe(probe{cfg: g.base, snapAt: []event.Cycle{faultBase}, restores: len(g.scheds)})
			}
			units[i] = unit{id: g.id, run: func(tr *tracer, parent int) unitResult {
				sp := tr.begin("sim.RunAllWorkers", parent, "")
				outs := sim.RunAllWorkers(jobs, 1)
				tr.end(sp)
				u := unitResult{KnownDefect: g.defect}
				var parts []any
				for k, o := range outs {
					p.lay.result(o.Result)
					parts = append(parts, o.Key)
					parts = append(parts, resultDigest(o.Result, o.Err)...)
					if err := fault.CheckOutcome(g.policy, o.Result, o.Err); err != nil && !u.Failed {
						u.Failed, u.Detail = true, fmt.Sprintf("%s: %v", jobs[k].Key, err)
					}
				}
				u.Digest = digestOf(parts...)
				return u
			}}
		}
		return units, nil
	},
}

// calibrateFaultBudget runs every fault_sweep cell except the known defect
// under awgexp's full-scale budget (200M cycles) and prints the smallest
// integer k >= 2 at which each cell that completes would still complete.
func calibrateFaultBudget(seed uint64, workers int, quick bool) error {
	p := &params{seed: seed, workers: workers, quick: quick, lay: newLayers(false)}
	groups := faultSweepGroups(seed, quick)[1:]
	if err := references(groups, p, nil); err != nil {
		return err
	}
	var jobs []sim.Job
	var ff []uint64
	for _, g := range groups {
		for _, j := range g.jobs(200_000_000) {
			j.Key = g.id + "/" + j.Key
			jobs = append(jobs, j)
			ff = append(ff, g.ffCycle)
		}
	}
	worst, k := 0.0, uint64(2)
	for i, o := range sim.RunAllWorkers(jobs, workers) {
		if o.Err != nil || o.Result.Deadlocked {
			fmt.Printf("%s does not complete without a budget\n", o.Key)
			continue
		}
		r := float64(o.Result.Cycles) / float64(ff[i])
		worst = max(worst, r)
		for o.Result.Cycles > k*ff[i] {
			k++
		}
	}
	fmt.Printf("seed %d: %d cells, worst cycles/fault-free %.3f, k = %d\n", seed, len(jobs), worst, k)
	return nil
}

// Fleet constants: awgexp's full-scale fleet, four devices with a floor of
// two, a churn window from 100k cycles and a checkpoint every 1M.
const (
	fleetDevices               = 4
	fleetFloor                 = 2
	fleetBase      event.Cycle = 100_000
	fleetCkpt      event.Cycle = 1_000_000
	fleetBudget    event.Cycle = 1_000_000_000
	fleetPlaneRand             = 2
)

// fleetChurn measures the fleet pacing loop, migration and checkpointing:
// four oversubscribed Table-1 devices under churn planes and per-device
// random fault schedules.
var fleetChurn = workload{
	name:      "fleet_churn",
	poolWidth: func(workers int) int { return workers },
	setup: func(p *params, tr *tracer) ([]unit, error) {
		gcfg := gpu.DefaultConfig()
		planes := fleet.Scripted(fleetDevices, fleetBase)
		policies := []string{"Timeout", "MonNR-All", "MonNR-One", "AWG"}
		iters := kernels.DefaultParams().Iters
		if p.quick {
			planes, policies, iters = planes[:2], policies[2:], 3
		}
		for i := range fleetPlaneRand {
			planes = append(planes, fleet.Random(subSeed(p.seed, streamPlane, i), fleetDevices, fleetFloor, fleetBase, 8*fleetBase))
		}
		faults := make([]fault.Schedule, fleetDevices)
		for d := range faults {
			faults[d] = fault.Random(subSeed(p.seed, streamDeviceFault, d), gcfg.NumCUs, fleetBase, 8*fleetBase)
		}
		var units []unit
		for _, pol := range policies {
			wls := make([]sim.Config, fleetDevices)
			for i := range wls {
				wls[i] = oversubscribed([]string{"SPM_G", "TB_LG"}[i%2], pol, gcfg.MaxWGsPerCU)
				wls[i].Params.Iters = iters
				wls[i].Seed = subSeed(p.seed, streamJitter, i)
				if len(units) == 0 {
					// A workload on its home device, run once plainly and once
					// with a checkpoint every fleetCkpt cycles, then a restore.
					cfg, sched := wls[i], faults[i]
					cfg.Faults = &sched
					p.lay.addProbe(probe{cfg: cfg, session: true, snapEvery: fleetCkpt, restores: 1})
				}
			}
			for _, plane := range planes {
				cfg := fleet.Config{
					Devices: fleetDevices, MinDevices: fleetFloor, Workloads: wls, Plane: plane,
					DeviceFaults: faults, CheckpointEvery: fleetCkpt, FleetBudget: fleetBudget,
					SLO: fleet.SLO{StallWindow: fleetBudget / 2},
				}
				units = append(units, unit{id: pol + "/" + plane.Name, run: func(tr *tracer, parent int) unitResult {
					sp := tr.begin("fleet.Run", parent, "")
					r, err := fleet.New(cfg).Run()
					tr.end(sp)
					return checkFleet(r, err, p.lay)
				}})
			}
		}
		return units, nil
	},
}

// checkFleet fails a fleet cell on an error, a degraded fleet, any SLO
// violation or any workload that did not complete verified.
func checkFleet(r *fleet.Result, err error, lay *layers) unitResult {
	if err != nil {
		return unitResult{Failed: true, Detail: err.Error(), Digest: digestOf(err.Error())}
	}
	lay.fleet(r)
	u := unitResult{}
	parts := []any{r.Plane, r.Degraded, r.FleetCycles, len(r.Events), r.Migrations}
	for _, w := range r.Workloads {
		lay.result(w.Result)
		parts = append(parts, w.ID, w.Device, w.DoneAt, w.Migrations, w.Recoveries, w.LostCycles, w.Drained)
		parts = append(parts, resultDigest(w.Result, w.Err)...)
		if !u.Failed && (w.Err != nil || w.Result.Deadlocked) {
			u.Failed, u.Detail = true, fmt.Sprintf("workload %d did not complete verified: %v", w.ID, w.Err)
		}
	}
	for _, v := range r.Violations {
		parts = append(parts, v.String())
	}
	switch {
	case r.Degraded:
		u.Failed, u.Detail = true, "fleet degraded"
	case len(r.Violations) > 0:
		u.Failed, u.Detail = true, r.Violations[0].String()
	}
	u.Digest = digestOf(parts...)
	return u
}

// Litmus-hunt sizes: 2000 generated patterns in batches of 50, each batch
// run across every experiment policy and occupancy (900 cells a batch).
const (
	litmusPatterns = 2000
	litmusBatch    = 50
)

// litmusPolicies is awgexp's conformance policy set.
var litmusPolicies = []string{"Baseline", "Sleep", "Timeout", "MonNR-All", "MonNR-One", "AWG"}

// litmusHunt is the construction-heavy regime: thousands of sub-millisecond
// single-CU runs through litmus.Conformance, enough to overflow the run
// cache's cap as real hunts do.
var litmusHunt = workload{
	name:      "litmus_hunt",
	poolWidth: func(int) int { return 1 },
	setup: func(p *params, tr *tracer) ([]unit, error) {
		n := litmusPatterns
		if p.quick {
			n = 4 * litmusBatch / 5
		}
		sp := tr.begin("litmus.Generate", 0, "")
		t0 := time.Now()
		pats := litmus.Generate(subSeed(p.seed, streamLitmus, 0), n)
		p.lay.litmusGenerated(time.Since(t0))
		tr.end(sp)
		var units []unit
		for lo := 0; lo < len(pats); lo += litmusBatch {
			batch := pats[lo:min(lo+litmusBatch, len(pats))]
			if lo == 0 {
				// Plain sessions of the first patterns, a few snapshotted.
				for _, pat := range batch[:min(10, len(batch))] {
					for _, pol := range litmusPolicies {
						for _, occ := range litmus.Occupancies() {
							prb := probe{cfg: litmus.RunConfig(pat, pol, occ.Cap(pat.NumWGs()), 0), session: true}
							if len(p.lay.probes) < probeSample {
								prb.snapAt, prb.restores = []event.Cycle{200}, 1
							}
							p.lay.addProbe(prb)
						}
					}
				}
			}
			units = append(units, unit{id: fmt.Sprintf("patterns%04d", lo), run: func(tr *tracer, parent int) unitResult {
				sp := tr.begin("litmus.Conformance", parent, "")
				s := litmus.Conformance(batch, litmusPolicies, litmus.Occupancies(), 0, p.workers)
				tr.end(sp)
				var parts []any
				for _, c := range s.Cells {
					p.lay.result(c.Result)
					parts = append(parts, c.Pattern, c.Policy, c.Occ)
					parts = append(parts, resultDigest(c.Result, c.Err)...)
				}
				un := s.Unexpected()
				p.lay.litmus(len(s.Cells), len(s.Violations)-len(un))
				u := unitResult{Digest: digestOf(parts...)}
				if len(un) > 0 {
					u.Failed, u.Detail = true, fmt.Sprintf("%d unexpected violation(s), first: %s", len(un), un[0].Detail)
				}
				return u
			}})
		}
		return units, nil
	},
}
