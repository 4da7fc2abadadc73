// Package fleet scales the single-machine model out to a fleet: K
// gpu.Machine devices multiplexing workloads under one deterministic
// session, fronted by the Manager/Injectable pair of interfaces that
// fleet-health services (Navarch-style node managers) expose, and churned
// by a fleet-level fault plane injecting seeded XID-style health events —
// device-fell-off-bus, thermal throttle, uncorrectable ECC.
//
// The layer's point is the paper's invariant at datacenter scale: a
// policy that guarantees independent forward progress of work-groups
// should survive device churn — mid-kernel work-groups migrate off a lost
// device (checkpoint restore + live-state transplant, each WG's frame
// copied back in place) and the run still completes — while Baseline-style busy-wait
// policies hang and must be *diagnosed*, not merely time out. The SLO
// checker in slo.go promotes fault.CheckOutcome to that fleet contract.
package fleet

import (
	"awgsim/internal/event"
)

// XID codes health events carry, matching the NVIDIA XID numbering fleet
// managers key their remediation playbooks on. Events with no XID
// equivalent (thermal derate, device restore) carry XIDNone.
const (
	XIDNone         uint64 = 0
	XIDDoubleBitECC uint64 = 48 // uncorrectable double-bit ECC error
	XIDFellOffBus   uint64 = 79 // device no longer responds on the bus
)

// DeviceInfo is a device's static identity plus its current placement:
// which workloads the fleet scheduler has homed on it.
type DeviceInfo struct {
	ID        int
	Workloads []int // live workload ids homed here, ascending
}

// DeviceHealth is a device's instantaneous health word.
type DeviceHealth struct {
	OnBus        bool // responds on the bus (false after XID 79 until restored)
	ThermalScale int  // clock derate factor; 1 = nominal frequency
	ECCEvents    int  // uncorrectable ECC events observed so far
}

// HealthEvent is one entry of the fleet's health-event log: what happened,
// to which device, at which fleet cycle — the record CollectHealthEvents
// drains and remediation (migration, drain) is keyed on.
type HealthEvent struct {
	At     event.Cycle
	Device int
	XID    uint64 // XIDNone for non-XID events
	Kind   Kind
	Detail string
}

// Manager is the read side of a fleet-health service: enumerate devices,
// inspect their health, and drain the health-event stream. The Fleet
// implements it; a hardware deployment would back the same interface with
// the node manager's device plugin.
type Manager interface {
	Initialize() error
	Shutdown() error
	GetDeviceCount() (int, error)
	GetDeviceInfo(device int) (DeviceInfo, error)
	GetDeviceHealth(device int) (DeviceHealth, error)
	CollectHealthEvents() []HealthEvent
}

// Injectable extends Manager with deterministic health-event injection —
// the testing backend: schedule an XID, a thermal derate, or a memory
// fault at an exact fleet cycle before the run starts. Injected events
// merge into the fault plane's schedule, so an injected run replays
// bit-identically.
type Injectable interface {
	Manager

	// InjectXIDHealthEventAt schedules an XID on a device: XIDFellOffBus
	// becomes a DeviceLoss event, XIDDoubleBitECC an ECCError over one page.
	InjectXIDHealthEventAt(device int, xid uint64, at event.Cycle) error
	// InjectThermalHealthEventAt schedules a clock derate to the given
	// scale factor (1 clears the throttle).
	InjectThermalHealthEventAt(device int, scale int, at event.Cycle) error
	// InjectMemoryHealthEventAt schedules an uncorrectable ECC fault over a
	// page range.
	InjectMemoryHealthEventAt(device int, page uint64, pages int, at event.Cycle) error
}
