package syncmon

import (
	"math/rand/v2"
	"slices"
	"testing"

	"awgsim/internal/gpu"
	"awgsim/internal/mem"
)

// fixedLog is the oracle the growing Monitor Log is diffed against: a
// ring with both slabs allocated at full capacity up front, whose
// snapshots restore in place at their recorded head.
type fixedLog struct {
	entries []LogEntry
	dead    []bool
	head    int
	size    int
	live    int
	maxLive int
}

type fixedSnap struct {
	entries []LogEntry
	dead    []bool
	head    int
	size    int
	live    int
	maxLive int
}

func newFixedLog(capacity int) *fixedLog {
	return &fixedLog{entries: make([]LogEntry, capacity), dead: make([]bool, capacity)}
}

func (l *fixedLog) Push(e LogEntry) bool {
	if l.size == len(l.entries) {
		return false
	}
	tail := (l.head + l.size) % len(l.entries)
	l.entries[tail] = e
	l.dead[tail] = false
	l.size++
	l.live++
	l.maxLive = max(l.maxLive, l.live)
	return true
}

func (l *fixedLog) Pop() (LogEntry, bool) {
	for l.size > 0 {
		e, dead := l.entries[l.head], l.dead[l.head]
		l.head = (l.head + 1) % len(l.entries)
		l.size--
		if !dead {
			l.live--
			return e, true
		}
	}
	return LogEntry{}, false
}

func (l *fixedLog) Remove(wg gpu.WGID, addr mem.Addr, want int64) int {
	removed := 0
	for i := 0; i < l.size; i++ {
		idx := (l.head + i) % len(l.entries)
		e := l.entries[idx]
		if !l.dead[idx] && e.WG == wg && e.Addr == addr && e.Want == want {
			l.dead[idx] = true
			l.live--
			removed++
		}
	}
	return removed
}

func (l *fixedLog) snapshot() fixedSnap {
	sn := fixedSnap{head: l.head, size: l.size, live: l.live, maxLive: l.maxLive}
	for k := 0; k < l.size; k++ {
		idx := (l.head + k) % len(l.entries)
		sn.entries = append(sn.entries, l.entries[idx])
		sn.dead = append(sn.dead, l.dead[idx])
	}
	return sn
}

func (l *fixedLog) restore(sn *fixedSnap) {
	for k := 0; k < sn.size; k++ {
		idx := (sn.head + k) % len(l.entries)
		l.entries[idx] = sn.entries[k]
		l.dead[idx] = sn.dead[k]
	}
	l.head, l.size, l.live, l.maxLive = sn.head, sn.size, sn.live, sn.maxLive
}

func (l *fixedLog) bytes() int { return 33*len(l.entries) + 24 }

// spanSlot is one occupied ring slot; growingSpan and fixedSpan list a
// log's occupied slots oldest first, tombstones included.
type spanSlot struct {
	e    LogEntry
	dead bool
}

func growingSpan(l *MonitorLog) []spanSlot {
	var out []spanSlot
	for k := 0; k < l.size; k++ {
		idx := (l.head + k) % len(l.entries)
		out = append(out, spanSlot{l.entries[idx], l.dead[idx]})
	}
	return out
}

func fixedSpan(l *fixedLog) []spanSlot {
	var out []spanSlot
	for k := 0; k < l.size; k++ {
		idx := (l.head + k) % len(l.entries)
		out = append(out, spanSlot{l.entries[idx], l.dead[idx]})
	}
	return out
}

func checkLogsEqual(t *testing.T, where string, g *MonitorLog, f *fixedLog) {
	t.Helper()
	if g.Len() != f.live || g.MaxLen() != f.maxLive || g.size != f.size {
		t.Fatalf("%s: len/max/size %d/%d/%d, oracle %d/%d/%d",
			where, g.Len(), g.MaxLen(), g.size, f.live, f.maxLive, f.size)
	}
	if !slices.Equal(growingSpan(g), fixedSpan(f)) {
		t.Fatalf("%s: ring contents diverge from the fixed-capacity oracle", where)
	}
	if len(g.entries) > g.limit || len(g.dead) != len(g.entries) {
		t.Fatalf("%s: host ring %d/%d slots exceeds the limit %d", where, len(g.entries), len(g.dead), g.limit)
	}
}

// TestMonitorLogGrowthMatchesFixedOracle diffs the growing ring against
// the fixed-capacity oracle over random Push/Pop/Remove/snapshot/restore
// sequences, including restores onto a fresh log (whose ring is smaller
// than the snapshot), and checks snapshot sizes stay those of the full
// configured ring.
func TestMonitorLogGrowthMatchesFixedOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		capacity := []int{1, 2, 3, 15, 16, 17, 33, 100}[rng.IntN(8)]
		g, f := NewMonitorLog(capacity), newFixedLog(capacity)
		type pair struct {
			g logSnap
			f fixedSnap
		}
		var snaps []pair
		entry := func() LogEntry {
			return LogEntry{Addr: mem.Addr(8 * rng.IntN(3)), Want: int64(rng.IntN(2)), WG: gpu.WGID(rng.IntN(4))}
		}
		for step := 0; step < 2000; step++ {
			switch r := rng.IntN(100); {
			case r < 45:
				e := entry()
				if gp, fp := g.Push(e), f.Push(e); gp != fp {
					t.Fatalf("seed %d step %d: Push = %v, oracle %v", seed, step, gp, fp)
				}
			case r < 70:
				ge, gok := g.Pop()
				fe, fok := f.Pop()
				if ge != fe || gok != fok {
					t.Fatalf("seed %d step %d: Pop = %+v/%v, oracle %+v/%v", seed, step, ge, gok, fe, fok)
				}
			case r < 85:
				e := entry()
				if gn, fn := g.Remove(e.WG, e.Addr, e.Want), f.Remove(e.WG, e.Addr, e.Want); gn != fn {
					t.Fatalf("seed %d step %d: Remove = %d, oracle %d", seed, step, gn, fn)
				}
			case r < 92:
				p := pair{g.snapshot(), f.snapshot()}
				if p.g.bytes() != f.bytes() {
					t.Fatalf("seed %d step %d: snapshot bytes %d, oracle %d", seed, step, p.g.bytes(), f.bytes())
				}
				snaps = append(snaps, p)
			case r < 97 && len(snaps) > 0:
				p := snaps[rng.IntN(len(snaps))]
				g.restore(&p.g)
				f.restore(&p.f)
			case len(snaps) > 0:
				// Restore onto a fresh log: its ring has not grown yet.
				p := snaps[rng.IntN(len(snaps))]
				g, f = NewMonitorLog(capacity), newFixedLog(capacity)
				g.restore(&p.g)
				f.restore(&p.f)
			}
			checkLogsEqual(t, "random", g, f)
		}
	}
}

// TestMonitorLogGrowthEdges pins the growth boundaries: a push at exactly
// the configured capacity is refused whatever the ring has grown to, a
// snapshot larger than the live ring restores into it, and a restore onto
// a fresh log lays the span out from slot 0.
func TestMonitorLogGrowthEdges(t *testing.T) {
	const capacity = 40
	g, f := NewMonitorLog(capacity), newFixedLog(capacity)
	if len(g.entries) != 0 {
		t.Fatalf("fresh log holds a %d-slot ring, want none", len(g.entries))
	}
	for i := 0; i < capacity; i++ {
		e := LogEntry{Addr: mem.Addr(8 * i), WG: gpu.WGID(i)}
		if !g.Push(e) || !f.Push(e) {
			t.Fatalf("push %d of %d refused", i, capacity)
		}
	}
	if g.Push(LogEntry{}) || f.Push(LogEntry{}) {
		t.Fatal("push at exactly LogCapacity succeeded")
	}
	if len(g.entries) != capacity {
		t.Fatalf("full log's ring holds %d slots, want the limit %d", len(g.entries), capacity)
	}
	checkLogsEqual(t, "full", g, f)
	// Wrap the head before snapshotting so the span is not at slot 0.
	for i := 0; i < 5; i++ {
		g.Pop()
		f.Pop()
	}
	e := LogEntry{Addr: 8, WG: 99}
	g.Push(e)
	f.Push(e)
	g.Remove(7, 56, 0)
	f.Remove(7, 56, 0)
	gs, fs := g.snapshot(), f.snapshot()

	// Larger than the live ring: a log that has grown to 16 slots.
	small, smallF := NewMonitorLog(capacity), newFixedLog(capacity)
	for i := 0; i < 3; i++ {
		small.Push(LogEntry{WG: gpu.WGID(i)})
		smallF.Push(LogEntry{WG: gpu.WGID(i)})
	}
	if len(small.entries) >= gs.size {
		t.Fatalf("test setup: small ring %d slots is not smaller than the snapshot's %d", len(small.entries), gs.size)
	}
	small.restore(&gs)
	smallF.restore(&fs)
	checkLogsEqual(t, "restore into a smaller ring", small, smallF)
	if small.head != 0 {
		t.Fatalf("restored head %d, want the span unwrapped from slot 0", small.head)
	}

	// A fresh log, then drain both: every entry comes back in order.
	fresh, freshF := NewMonitorLog(capacity), newFixedLog(capacity)
	fresh.restore(&gs)
	freshF.restore(&fs)
	checkLogsEqual(t, "restore onto a fresh log", fresh, freshF)
	if fresh.Push(LogEntry{}) != freshF.Push(LogEntry{}) {
		t.Fatal("push after restore disagrees with the oracle")
	}
	for {
		ge, gok := fresh.Pop()
		fe, fok := freshF.Pop()
		if ge != fe || gok != fok {
			t.Fatalf("drain: %+v/%v, oracle %+v/%v", ge, gok, fe, fok)
		}
		if !gok {
			break
		}
	}
}

// TestCondStoreRestoreFullGeometryThenDegrade restores a snapshot holding
// every condition way and the whole waiting list into a fresh monitor —
// whose slabs start empty — and checks a capacity fault then behaves
// exactly as on the monitor that took the snapshot.
func TestCondStoreRestoreFullGeometryThenDegrade(t *testing.T) {
	// The log is too small for every displaced waiter, so the fault both
	// spills and wakes.
	cfg := Config{Sets: 8, Ways: 4, WaitListSize: 64, LogCapacity: 24, Seed: 0x5eed}
	src := newHarness(t, cfg)
	wg := gpu.WGID(0)
	for a := mem.Addr(0); src.sm.Conditions() < cfg.Sets*cfg.Ways; a += 8 {
		if a > 1<<20 {
			t.Fatal("could not fill every set")
		}
		wg++
		src.sm.Register(wg, gpu.GlobalVar(a), 1, gpu.CmpEQ, ClassLoad)
	}
	for a := mem.Addr(0); src.sm.Waiters() < cfg.WaitListSize; a += 8 {
		wg++
		src.sm.Register(wg, gpu.GlobalVar(a), 1, gpu.CmpEQ, ClassRMW)
	}
	if got := len(src.sm.store.ents); got != cfg.Sets*cfg.Ways {
		t.Fatalf("condition slab holds %d slots, want the full %d", got, cfg.Sets*cfg.Ways)
	}
	sn := src.sm.Snapshot()

	dst := newHarness(t, cfg)
	if cap(dst.sm.store.ents) != 0 || cap(dst.sm.store.wnodes) != 0 {
		t.Fatalf("fresh monitor preallocated its slabs (%d conditions, %d waiters)",
			cap(dst.sm.store.ents), cap(dst.sm.store.wnodes))
	}
	dst.sm.Restore(sn)

	src.sm.Degrade(2, 20)
	dst.sm.Degrade(2, 20)
	if len(src.wakes) == 0 || src.sm.Log().Len() == 0 {
		t.Fatalf("degrade woke %d and spilled %d waiters, want both", len(src.wakes), src.sm.Log().Len())
	}
	if !slices.Equal(src.wakes, dst.wakes) {
		t.Fatalf("degrade woke %v on the source, %v on the restored monitor", src.wakes, dst.wakes)
	}
	if !slices.Equal(growingSpan(src.sm.Log()), growingSpan(dst.sm.Log())) {
		t.Fatal("degrade spilled different log entries on the restored monitor")
	}
	if src.sm.Conditions() != dst.sm.Conditions() || src.sm.Waiters() != dst.sm.Waiters() ||
		src.sm.MonitoredAddrs() != dst.sm.MonitoredAddrs() {
		t.Fatalf("after degrade: source %d conds/%d waiters/%d addrs, restored %d/%d/%d",
			src.sm.Conditions(), src.sm.Waiters(), src.sm.MonitoredAddrs(),
			dst.sm.Conditions(), dst.sm.Waiters(), dst.sm.MonitoredAddrs())
	}
	if !slices.Equal(src.sel.unmonitored, dst.sel.unmonitored) {
		t.Fatal("degrade unmonitored different addresses on the restored monitor")
	}
	if src.sm.Waiters() > 20 || src.sm.Conditions() > cfg.Sets*2 {
		t.Fatalf("degrade left %d waiters, %d conditions", src.sm.Waiters(), src.sm.Conditions())
	}
}
