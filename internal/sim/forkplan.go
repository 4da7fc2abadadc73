package sim

import (
	"sync/atomic"

	"awgsim/internal/event"
	"awgsim/internal/fault"
)

// Prefix-forked sweeps: a fault-injection sweep runs many configs that are
// identical except for their fault schedule, and faults land only after the
// kernel has built up waiting state (cycle ~10k+). Every member of such a
// group simulates the exact same prefix — so the planner simulates it once,
// snapshots the machine just before the earliest fault any member injects,
// and completes each member by restoring the snapshot and splicing its
// faults onto the calendar under sequence numbers reserved at construction
// (fault.ArmReserved). A forked member is bit-identical to its cold run:
// the reservation pins every fault to the calendar position a cold arm
// gives it, and unused reservations shift later sequence numbers uniformly,
// which cannot reorder same-cycle events. CI verifies this by running the
// golden suite forked and unforked and diffing byte-for-byte.
//
// Forking composes with the run cache (runcache.go): each member claims its
// own fingerprint, members already cached replay instead of re-running, and
// fresh members publish into the same insertion order and cap as any run.
// The simulated-work ledger stays identical to the cold path — each member
// accounts its full run — while ForkStats tracks the wall-clock story:
// forked runs, prefix cycles not re-simulated, and snapshot footprint.

var (
	forkOff              atomic.Bool
	snapshotEveryDefault atomic.Uint64

	forkForks       atomic.Uint64
	forkCyclesSaved atomic.Uint64
	forkSnapBytes   atomic.Uint64
)

// SetForking toggles prefix-forked sweep execution (on by default; awgexp
// -no-fork disables it).
func SetForking(on bool) { forkOff.Store(!on) }

// SetSnapshotEvery sets the process-wide default for gpu.Config.
// SnapshotEvery: every run keeps a periodic snapshot ring for time-travel
// stall diagnosis. Non-zero values disable prefix forking implicitly (the
// ring changes the event stream, so such runs are not fork-eligible).
func SetSnapshotEvery(n uint64) { snapshotEveryDefault.Store(n) }

// ForkStats reports the fork planner's cumulative counters since process
// start (or the last ResetForkStats): members completed by forking, prefix
// cycles they did not re-simulate, and the bytes of the group snapshots.
func ForkStats() (forks, prefixCyclesSaved, snapshotBytes uint64) {
	return forkForks.Load(), forkCyclesSaved.Load(), forkSnapBytes.Load()
}

// ResetForkStats zeroes the fork counters.
func ResetForkStats() {
	forkForks.Store(0)
	forkCyclesSaved.Store(0)
	forkSnapBytes.Store(0)
}

// forkMember is one sweep config completed from the group snapshot.
type forkMember struct {
	idx int    // job index
	key string // run-cache fingerprint
	cfg Config // filled, with its fault schedule
}

// forkGroup is a set of jobs identical except for their fault schedules.
type forkGroup struct {
	members []forkMember
	reserve int         // engine seqs a cold arm consumes, group maximum
	diverge event.Cycle // earliest applicable fault across members
}

// unit is one work item of the pool: a lone job, or a fork group whose
// members share a machine and must run on one worker.
type unit struct {
	single int // job index when group == nil
	group  *forkGroup
}

// planUnits partitions jobs into fork groups and singles. Fork-eligible
// jobs are fully declarative (fingerprintable), carry a non-empty fault
// schedule, and run without a snapshot ring; they group by their
// fingerprint with the fault section stripped. Groups keep first-member
// order; everything else stays a single in job order.
func planUnits(jobs []Job) []unit {
	units := make([]unit, 0, len(jobs))
	if forkOff.Load() {
		for i := range jobs {
			units = append(units, unit{single: i})
		}
		return units
	}
	groups := map[string]*forkGroup{}
	for i := range jobs {
		cfg := jobs[i].Config
		key, ok := "", false
		if cfg.Inject == nil && cfg.Faults != nil && len(cfg.Faults.Events) > 0 && cfg.fill() == nil {
			key, ok = fingerprint(&cfg)
			ok = ok && cfg.GPU.SnapshotEvery == 0
		}
		if !ok {
			units = append(units, unit{single: i})
			continue
		}
		gk := forkGroupKey(&cfg)
		g := groups[gk]
		if g == nil {
			g = &forkGroup{}
			groups[gk] = g
			units = append(units, unit{single: -1, group: g})
		}
		g.members = append(g.members, forkMember{idx: i, key: key, cfg: cfg})
	}
	// Demote groups that cannot fork back into singles.
	out := units[:0]
	for _, u := range units {
		if u.group == nil || (len(u.group.members) >= 2 && u.group.plan()) {
			out = append(out, u)
			continue
		}
		for _, m := range u.group.members {
			out = append(out, unit{single: m.idx})
		}
	}
	return out
}

// forkGroupKey is the member's fingerprint with the fault section stripped:
// what the shared prefix simulates.
func forkGroupKey(c *Config) string {
	cc := *c
	cc.Faults = nil
	key, _ := fingerprint(&cc)
	return key
}

// plan computes the group's divergence cycle and sequence reservation,
// reporting false when forking cannot help.
func (g *forkGroup) plan() bool {
	pol, err := NewPolicy(g.members[0].cfg.Policy)
	if err != nil {
		return false
	}
	// With no applicable fault anywhere (capacity faults under a
	// monitor-less policy) the whole run is shared and members replay the
	// prefix's end state.
	g.diverge = event.Cycle(g.members[0].cfg.GPU.MaxCycles)
	for i := range g.members {
		m := &g.members[i]
		if n := fault.CountApplicable(pol, *m.cfg.Faults); n > g.reserve {
			g.reserve = n
		}
		if at, ok := fault.FirstApplicableAt(pol, *m.cfg.Faults); ok && at < g.diverge {
			g.diverge = at
		}
	}
	return g.diverge >= 2
}

// run executes the group on one worker: the shared prefix once, then each
// member forked from the snapshot. When the prefix stalls or exhausts its
// event budget before the divergence point, the group falls back to cold
// per-member runs.
func (g *forkGroup) run(jobs []Job, out []Outcome) {
	cold := func() {
		for _, mem := range g.members {
			out[mem.idx] = runJob(jobs[mem.idx])
		}
	}
	prefixCfg := g.members[0].cfg
	prefixCfg.Faults = nil
	s, err := newSession(prefixCfg, g.reserve)
	if err != nil {
		cold()
		return
	}
	m := s.m
	m.Prepare()
	limit := m.CycleLimit()
	stop := g.diverge - 1
	if stop > limit {
		stop = limit
	}
	m.RunTo(stop)
	if m.Deadlocked() || m.Engine().BudgetExhausted() {
		m.FinishRun() // discard
		m.ReleaseBuffers()
		cold()
		return
	}
	snap := m.Snapshot()
	prefixCycles := uint64(m.Engine().Now())
	forkSnapBytes.Add(uint64(snap.Bytes()))

	ran := uint64(0)
	needFinish := true // the prefix (or an arm-failed restore) ran without a Finish
	for i := range g.members {
		mem := &g.members[i]
		o := Outcome{Key: jobs[mem.idx].Key}
		e, owner := claim(mem.key)
		if !owner {
			o.Result, o.Err = e.replay()
			out[mem.idx] = o
			continue
		}
		m.Restore(snap)
		needFinish = true
		if o.Err = fault.ArmReserved(m, *mem.cfg.Faults, s.seqBase); o.Err != nil {
			// Failed before simulating: the entry is retractable.
			e.publish(mem.key, o.Result, o.Err, false)
		} else {
			ran++
			m.RunTo(limit)
			o.Result, o.Err = s.Finish()
			needFinish = false
			e.publish(mem.key, o.Result, o.Err, true)
		}
		out[mem.idx] = o
	}
	if ran > 0 {
		forkForks.Add(ran)
		forkCyclesSaved.Add(prefixCycles * (ran - 1))
	}
	if needFinish {
		// Discarded: it only flushes the run's interpreter telemetry
		// (gpu.ExecStats) when every member replayed from the cache.
		m.FinishRun()
	}
	// The group is done with its machine (and with snap, which dies here),
	// so its buffers can seed the next group's construction.
	m.ReleaseBuffers()
}
