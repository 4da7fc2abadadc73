// Package gpu seeds replay-window effect shapes against the event
// stand-in: gated and ungated writes to uncovered machine state, an
// ungated Engine.Stop, printed output, and effects behind a helper hop.
package gpu

import (
	"fmt"

	"awgsim/internal/lint/analyzers/replaypure/testdata/src/rp/event"
)

// Machine mirrors the simulator machine: snapshot pair + replaying flag.
// Only cycles is snapshot-covered; deadlocked, diag, and snapRing are
// diagnostics/ring state outside the snapshot.
type Machine struct {
	eng        *event.Engine
	cycles     uint64
	replaying  bool
	deadlocked bool
	diag       string
	snapRing   []uint64
}

// Snap is Machine's snapshot payload.
type Snap struct{ cycles uint64 }

// Snapshot covers exactly cycles.
func (m *Machine) Snapshot() *Snap { return &Snap{cycles: m.cycles} }

// Restore reinstates exactly cycles.
func (m *Machine) Restore(s *Snap) { m.cycles = s.cycles }

// replayTrace is the replay driver: it toggles the flag, so everything it
// does is exempt machinery.
func (m *Machine) replayTrace() {
	snap := m.Snapshot()
	m.replaying = true
	m.Restore(snap)
	m.replaying = false
}

// Prepare arms the event callbacks that form the replay window.
func (m *Machine) Prepare() {
	// Covered-state writes are restored afterwards: fine ungated.
	m.eng.At(1, func() {
		m.cycles++
	})

	// Watchdog shape from PR 6, minus the gate: ungated uncovered writes
	// and an ungated Stop.
	m.eng.After(2, func() {
		m.deadlocked = true // want `write to Machine\.deadlocked \(not snapshot-covered\) in the replay window`
		m.diag = "deadlock" // want `write to Machine\.diag \(not snapshot-covered\) in the replay window`
		m.eng.Stop()        // want `Engine\.Stop in the replay window`
	})

	// Properly gated snapshot-ring tick: no findings.
	m.eng.After(3, func() {
		if !m.replaying {
			m.snapRing = append(m.snapRing, m.cycles)
		}
	})

	// Hoisted closure scheduled by identifier, effect behind a helper hop.
	watch := func() {
		m.noteDiag()
	}
	m.eng.AtWithSeq(4, watch)

	// The snapshot-ring tick with its gate dropped, the push behind a
	// helper hop: a replay would grow the ring it is replaying from.
	m.eng.After(6, func() {
		m.pushRing()
	})

	// Printed output duplicates under replay.
	m.eng.After(5, func() {
		fmt.Println("heartbeat") // want `fmt\.Println in the replay window`
	})
}

// pushRing is reached only through the ungated tick above.
func (m *Machine) pushRing() {
	m.snapRing = append(m.snapRing, m.cycles) // want `write to Machine\.snapRing \(not snapshot-covered\) in the replay window`
}

// noteDiag is reached only through the scheduled watch closure.
func (m *Machine) noteDiag() {
	m.diag = "note" // want `write to Machine\.diag \(not snapshot-covered\) in the replay window`
	if m.replaying {
		m.snapRing = nil // replay-machinery branch: deliberate, no finding
	}
}
