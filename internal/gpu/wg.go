package gpu

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/mem"
)

// reqKind discriminates the operations a WG program can request from the
// machine.
type reqKind int

const (
	reqCompute reqKind = iota
	reqLoad
	reqStore
	reqAtomic
	reqSyncThreads
	reqAwait
	reqAcquire
	reqDone
)

// request is one device operation sent from a WG goroutine to the machine.
type request struct {
	kind   reqKind
	v      Var
	addr   mem.Addr
	op     AtomicOp
	a, b   int64 // operands (CAS: a=compare, b=swap)
	want   int64 // await: expected value; acquire: old value meaning success
	cmp    Cmp   // await comparison (acquires are always CmpEQ)
	cycles event.Cycle
	hint   WaitHint
}

// response completes a device operation.
type response struct {
	val   int64
	abort bool
}

// abortSentinel unwinds a WG goroutine when the simulation tears down
// before the program finishes (deadlock or watchdog stop).
type abortSentinel struct{}

// WG is one work-group's runtime state. The machine owns all fields; the
// program goroutine only ever touches the channels through its Device.
type WG struct {
	id    WGID
	spec  *KernelSpec
	kr    *kernelRun
	home  int // home scheduling group (initial CU)
	inGrp int // rank within the group
	grpSz int

	state WGState
	cu    CUID

	// frame is the inline interpreter's resumable position for an IR kernel
	// (nil on the closure path). Where it is set, the channels below stay
	// nil: the WG has no goroutine, and step advances the frame directly.
	frame *irFrame

	// req/resp are the closure path's rendezvous channels, created lazily at
	// first goroutine spawn so IR WGs never allocate them.
	req  chan request
	resp chan response

	// parked holds continuations that must wait for the WG to be resident
	// again (response deliveries frozen by preemption, policy resume
	// actions queued behind a context switch-in).
	parked []func()
	// queueSeq orders the WG within the pending/ready queues (FIFO within
	// a priority class).
	queueSeq uint64
	// readyWhenSaved marks a WG whose wait condition was met while its
	// context save was still in flight; the save completion promotes it
	// straight to ready.
	readyWhenSaved bool

	// Policy scratch: the active wait episode's bookkeeping lives here so
	// policies don't need side tables. Opaque to the machine.
	PolicyData any

	waiting bool // currently inside a wait episode (for breakdown)
	// The active wait episode's condition, recorded by the request loop so
	// deadlock diagnoses can name what every blocked WG is waiting for
	// without asking the policy. Valid while waiting is set.
	waitVar   Var
	waitWant  int64
	waitCmp   Cmp
	waitBegan event.Cycle

	stalled        bool // parked without issuing instructions (frees issue slots)
	phaseStart     event.Cycle
	runningCycles  uint64
	waitingCycles  uint64
	started        bool
	finished       bool
	forcePreempted bool

	// respCount counts every response the machine has delivered to the
	// program goroutine; with response logging on, respLog also records the
	// values. Together they let a snapshot restore rebuild the goroutine at
	// an exact program position: the deterministic program is re-run from the
	// top with its first respCount requests answered from the log (see
	// Machine.restoreWG).
	respLog   []int64
	respCount int
	// respLogCapped records that responses were dropped once respLog hit the
	// configured cap; a restore that would need them fails loudly instead of
	// replaying a truncated log.
	respLogCapped bool
	// live is true while the program goroutine exists. Machine-owned (never
	// written from the WG goroutine, so snapshots read it race-free): set
	// when the goroutine is (re)spawned, cleared at reqDone or abort.
	live bool
}

// ID reports the dispatcher-assigned work-group ID.
func (w *WG) ID() WGID { return w.id }

// State reports the scheduling state.
func (w *WG) State() WGState { return w.state }

// CU reports the current CU, or NoCU.
func (w *WG) CU() CUID { return w.cu }

// Home reports the WG's home scheduling group.
func (w *WG) Home() int { return w.home }

// Resident reports whether the WG currently holds CU resources.
func (w *WG) Resident() bool { return w.state == StateResident }

// issuing reports whether the WG takes its CU's instruction-issue slots:
// resident and not stalled.
func (w *WG) issuing() bool { return w.state == StateResident && !w.stalled }

// Spec reports the kernel this WG belongs to.
func (w *WG) Spec() *KernelSpec { return w.spec }

// Park queues f to run when the WG next becomes resident.
func (w *WG) Park(f func()) { w.parked = append(w.parked, f) }

// Stalled reports whether the WG is parked without issuing instructions.
func (w *WG) Stalled() bool { return w.stalled }

// WaitingOn reports the condition of the WG's active wait episode, and
// whether one is active at all.
func (w *WG) WaitingOn() (v Var, want int64, cmp Cmp, ok bool) {
	if !w.waiting {
		return Var{}, 0, 0, false
	}
	return w.waitVar, w.waitWant, w.waitCmp, true
}

func (w *WG) String() string {
	return fmt.Sprintf("WG%d[%s@cu%d]", w.id, w.state, w.cu)
}

// flushPhase charges the interval since the last phase change to the
// current phase.
func (w *WG) flushPhase(now event.Cycle) {
	d := uint64(now - w.phaseStart)
	if w.waiting {
		w.waitingCycles += d
	} else {
		w.runningCycles += d
	}
	w.phaseStart = now
}

// setPhase moves the WG between running and waiting attribution, charging
// the elapsed interval to the phase just ended.
func (w *WG) setPhase(now event.Cycle, waiting bool) {
	if w.waiting == waiting {
		return
	}
	w.flushPhase(now)
	w.waiting = waiting
}

// closePhase charges the final interval when the WG finishes or the
// simulation ends.
func (w *WG) closePhase(now event.Cycle) {
	if !w.started || w.finished {
		return
	}
	w.flushPhase(now)
}

// wgDevice implements Device for one WG. Its methods run on the WG's
// goroutine and communicate with the machine exclusively through the
// request/response channels.
type wgDevice struct {
	w      *WG
	numWGs int
}

func (d *wgDevice) call(r request) int64 {
	d.w.req <- r
	resp := <-d.w.resp
	if resp.abort {
		panic(abortSentinel{})
	}
	return resp.val
}

func (d *wgDevice) ID() WGID          { return d.w.id }
func (d *wgDevice) NumWGs() int       { return d.numWGs }
func (d *wgDevice) WIsPerWG() int     { return d.w.spec.WIsPerWG }
func (d *wgDevice) Group() int        { return d.w.home }
func (d *wgDevice) GroupSize() int    { return d.w.grpSz }
func (d *wgDevice) IndexInGroup() int { return d.w.inGrp }

func (d *wgDevice) Compute(cycles event.Cycle) {
	if cycles == 0 {
		return
	}
	d.call(request{kind: reqCompute, cycles: cycles})
}

func (d *wgDevice) Load(a mem.Addr) int64 {
	return d.call(request{kind: reqLoad, addr: a})
}

func (d *wgDevice) Store(a mem.Addr, v int64) {
	d.call(request{kind: reqStore, addr: a, a: v})
}

func (d *wgDevice) AtomicAdd(v Var, delta int64) int64 {
	return d.call(request{kind: reqAtomic, v: v, op: OpAdd, a: delta})
}

func (d *wgDevice) AtomicExch(v Var, val int64) int64 {
	return d.call(request{kind: reqAtomic, v: v, op: OpExch, a: val})
}

func (d *wgDevice) AtomicCAS(v Var, cmp, val int64) int64 {
	return d.call(request{kind: reqAtomic, v: v, op: OpCAS, a: cmp, b: val})
}

func (d *wgDevice) AtomicLoad(v Var) int64 {
	return d.call(request{kind: reqAtomic, v: v, op: OpLoad})
}

func (d *wgDevice) AtomicStore(v Var, val int64) {
	d.call(request{kind: reqAtomic, v: v, op: OpStore, a: val})
}

func (d *wgDevice) SyncThreads() {
	d.call(request{kind: reqSyncThreads})
}

func (d *wgDevice) AwaitEq(v Var, want int64) int64 {
	return d.call(request{kind: reqAwait, v: v, want: want})
}

func (d *wgDevice) AwaitGE(v Var, want int64) int64 {
	return d.call(request{kind: reqAwait, v: v, want: want, cmp: CmpGE})
}

func (d *wgDevice) AwaitEqHint(v Var, want int64, hint WaitHint) int64 {
	return d.call(request{kind: reqAwait, v: v, want: want, hint: hint})
}

func (d *wgDevice) AcquireExch(v Var, lockedVal, unlockedVal int64) {
	d.call(request{kind: reqAcquire, v: v, op: OpExch, a: lockedVal, want: unlockedVal})
}

func (d *wgDevice) AcquireExchHint(v Var, lockedVal, unlockedVal int64, hint WaitHint) {
	d.call(request{kind: reqAcquire, v: v, op: OpExch, a: lockedVal, want: unlockedVal, hint: hint})
}

func (d *wgDevice) AcquireCAS(v Var, expect, newVal int64) {
	d.call(request{kind: reqAcquire, v: v, op: OpCAS, a: expect, b: newVal, want: expect})
}

// HintedDevice is the extended device interface carrying WaitHints; the
// backoff-variant benchmarks (SPMBO_*) type-assert to it.
type HintedDevice interface {
	Device
	AwaitEqHint(v Var, want int64, hint WaitHint) int64
	AcquireExchHint(v Var, lockedVal, unlockedVal int64, hint WaitHint)
}
