// Package cp models the Command Processor firmware extensions of Section
// V: the CP stays off the critical path, handling only the high-latency,
// uncommon operations — draining the Monitor Log into a look-up-efficient
// in-memory table, periodically checking the waiting conditions of spilled
// synchronization variables with one L2 read per monitored address, and
// (through the machine's dispatcher) the context-switch legs of WG
// scheduling.
package cp

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/gpu"
	"awgsim/internal/mem"
	"awgsim/internal/syncmon"
)

// Config tunes the firmware's cadence.
type Config struct {
	// DrainInterval is how often the CP parses new Monitor Log entries.
	DrainInterval event.Cycle
	// CheckInterval is how often the CP re-checks spilled conditions.
	CheckInterval event.Cycle
	// DrainBatch bounds entries parsed per drain pass.
	DrainBatch int
}

// DefaultConfig returns a cadence that keeps spilled waiters' extra
// latency in the tens of microseconds, as a firmware loop would.
func DefaultConfig() Config {
	return Config{DrainInterval: 8_000, CheckInterval: 8_000, DrainBatch: 256}
}

type condKey struct {
	addr mem.Addr
	want int64
	cmp  gpu.Cmp
}

// Processor is the firmware model. It owns the spilled-condition table;
// the SyncMon owns the fast path.
type Processor struct {
	cfg  Config
	m    *gpu.Machine
	log  *syncmon.MonitorLog
	wake syncmon.WakeFunc

	tab    spillTable // slab-backed spilled-condition store
	order  []mem.Addr // monitored addresses, drain arrival order: the check walk
	maxTab int

	started bool        //lint:allow snapcover lifecycle latch set by Start; restore targets an already-started processor
	stopped func() bool //lint:allow snapcover engine-stop probe wired at start; function values are re-wired, not snapshotted
	// jitter perturbs loop cadence; its pseudo-random walk lives in
	// jitterState (not a closure variable) so Snapshot/Restore rewinds it.
	jitter      func(state *uint64, base event.Cycle) event.Cycle
	jitterState uint64

	drainFn, checkFn func()    //lint:allow snapcover hoisted episode continuations wired once at start; a restored processor reuses the armed loops
	wakeBuf          []wakeRef //lint:allow snapcover reusable scratch, rebuilt from the table every check result; dead between results
}

// New builds a processor draining log on machine m. wake delivers met
// conditions to the policy. stopped, if non-nil, lets the owner end the
// periodic firmware loop (e.g. when the kernel completes).
func New(cfg Config, m *gpu.Machine, log *syncmon.MonitorLog, wake syncmon.WakeFunc) (*Processor, error) {
	if cfg.DrainInterval == 0 || cfg.CheckInterval == 0 || cfg.DrainBatch <= 0 {
		return nil, fmt.Errorf("cp: bad config %+v", cfg)
	}
	return &Processor{
		cfg:  cfg,
		m:    m,
		log:  log,
		wake: wake,
		tab:  newSpillTable(),
	}, nil
}

// SetCadenceJitter installs a hook that perturbs the firmware loops'
// rescheduling intervals (fault injection models a busy or descheduled CP
// by stretching its cadence). The hook receives the configured base
// interval and returns the one to use; nil restores the exact cadence.
// Hooks must keep any evolving randomness in *state (seeded here) rather
// than in captured variables, so a machine snapshot restore replays the
// same skew sequence.
func (p *Processor) SetCadenceJitter(f func(state *uint64, base event.Cycle) event.Cycle, seed uint64) {
	p.jitter = f
	p.jitterState = seed
}

// SetCadenceScale stretches the firmware loops' cadence by a constant
// integer factor — the fleet layer's thermal-throttle model: a derated
// device clocks its command processor down with its CUs. factor <= 1
// restores the exact cadence. Implemented through the jitter hook with no
// evolving state, so it composes with snapshot rewinds trivially; a
// subsequent SetCadenceJitter (e.g. a JitterCP fault) replaces it.
func (p *Processor) SetCadenceScale(factor int) {
	if factor <= 1 {
		p.SetCadenceJitter(nil, 0)
		return
	}
	f := event.Cycle(factor)
	p.SetCadenceJitter(func(_ *uint64, base event.Cycle) event.Cycle { return base * f }, 0)
}

// cadence applies the jitter hook to a base interval, keeping the result
// at least one cycle so the loops always advance.
func (p *Processor) cadence(base event.Cycle) event.Cycle {
	if p.jitter != nil {
		base = p.jitter(&p.jitterState, base)
	}
	if base == 0 {
		base = 1
	}
	return base
}

// Start arms the periodic firmware loops. stopUnless reports whether the
// loops should keep running (typically "kernel not finished").
func (p *Processor) Start(keepRunning func() bool) {
	if p.started {
		return
	}
	p.started = true
	p.stopped = func() bool { return keepRunning != nil && !keepRunning() }
	p.drainFn = p.drainPass
	p.checkFn = p.checkPass
	p.m.Engine().After(p.cadence(p.cfg.DrainInterval), p.drainFn)
	p.m.Engine().After(p.cadence(p.cfg.CheckInterval), p.checkFn)
}

// TableSize reports current spilled conditions tracked.
func (p *Processor) TableSize() int { return p.tab.waiters }

// MaxTableSize reports the high-water mark, the "Monitor Table" series of
// Figure 13.
func (p *Processor) MaxTableSize() int { return p.maxTab }

// Unregister withdraws a waiter (its policy timeout fired) so a later
// drain or check does not wake it spuriously. The waiter is in exactly one
// of three places: the table (drained), the Monitor Log ring (spilled, not
// yet drained), or a drain batch in flight. Only the last needs a deferred
// tombstone — recording one when the ring removal already succeeded leaves
// it stale, and it would silently swallow the WG's *next* spill on the same
// condition (a lost wakeup: the waiter never reaches the table and no check
// pass ever resumes it).
func (p *Processor) Unregister(wg gpu.WGID, v gpu.Var, want int64, cmp gpu.Cmp) {
	k := condKey{v.Addr.WordAligned(), want, cmp}
	if removed, addrGone := p.tab.removeWaiter(k, wg); removed {
		if addrGone {
			p.unlist(k.addr)
		}
		return
	}
	if p.log.Remove(wg, k.addr, k.want) > 0 {
		// Still physically in the ring; the tombstone there is consumed when
		// a drain pops past it, so no drain-time state is needed.
		return
	}
	// Popped into a drain batch but not yet in the table: remember the
	// tombstone for drain time.
	p.tab.addTombstone(k, wg)
}

// drainPass moves log entries into the table.
func (p *Processor) drainPass() {
	if p.stopped() {
		return
	}
	for i := 0; i < p.cfg.DrainBatch; i++ {
		e, ok := p.log.Pop()
		if !ok {
			break
		}
		k := condKey{e.Addr, e.Want, e.Cmp}
		if p.tab.consumeTombstone(k, e.WG) {
			continue
		}
		if p.tab.addWaiter(k, e.WG) {
			p.order = append(p.order, k.addr)
		}
		if p.tab.waiters > p.maxTab {
			p.maxTab = p.tab.waiters
		}
		p.noteHighWater()
	}
	p.m.Engine().After(p.cadence(p.cfg.DrainInterval), p.drainFn)
}

// unlist removes an address that lost its last condition from the check
// walk.
func (p *Processor) unlist(a mem.Addr) {
	for i, o := range p.order {
		if o == a {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// noteHighWater folds the CP's occupancy into the machine counters — the
// Figure 13 series: waiting conditions, monitored addresses, waiting WGs,
// and the monitor table.
func (p *Processor) noteHighWater() {
	if p.tab.condLive > p.m.Count.MaxConditions {
		p.m.Count.MaxConditions = p.tab.condLive
	}
	if p.tab.waiters > p.m.Count.MaxWaitingWGs {
		p.m.Count.MaxWaitingWGs = p.tab.waiters
	}
	if n := p.tab.monitoredAddrs(); n > p.m.Count.MaxMonitoredVars {
		p.m.Count.MaxMonitoredVars = n
	}
}

// checkPass issues one L2 read per monitored address and wakes the
// waiters of the conditions on it that now hold ("asynchronous periodic
// condition check"). The walk is in drain arrival order of the addresses,
// never Go map order, so it replays deterministically. The reads return
// after this pass ends, so the walk is not mutated while it runs.
func (p *Processor) checkPass() {
	if p.stopped() {
		return
	}
	for _, a := range p.order {
		t := p.m.Engine().NewTask(runCheckResult)
		t.Env[0] = p
		t.I[0] = int64(a)
		p.m.IssueAtomicTask(nil, gpu.GlobalVar(a), gpu.OpLoad, 0, 0, t)
	}
	p.m.Engine().After(p.cadence(p.cfg.CheckInterval), p.checkFn)
}

// runCheckResult receives one address's L2 read (the value in
// I[gpu.AtomicRet]), tests every spilled condition on the address against
// it, and wakes the waiters of each met condition: conditions in drain
// arrival order, each one's waiters in FIFO order.
func runCheckResult(t *event.Task) {
	p := t.Env[0].(*Processor)
	a := mem.Addr(t.I[0])
	ws, addrGone := p.tab.dropWaiters(a, t.I[gpu.AtomicRet], p.wakeBuf[:0])
	p.wakeBuf = ws
	if addrGone {
		p.unlist(a)
	}
	for _, w := range ws {
		p.wake(w.wg, a, w.want, true)
	}
}
