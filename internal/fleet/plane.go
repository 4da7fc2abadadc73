package fleet

import (
	"fmt"
	"strings"

	"awgsim/internal/event"
	"awgsim/internal/hashutil"
)

// Kind classifies a fleet-plane health event.
type Kind int

const (
	// DeviceLoss: the device falls off the bus (XID 79). Its machine state
	// is unrecoverable; live workloads migrate from their last checkpoint
	// to surviving devices, or the fleet drains below the capacity floor.
	DeviceLoss Kind = iota
	// DeviceRestore: a lost device rejoins the bus at nominal frequency;
	// the fleet rebalances one workload onto it.
	DeviceRestore
	// ThermalThrottle: the device's clocks derate by Event.Scale (CUs pace
	// slower, the CP stretches its firmware cadence). Scale 1 clears.
	ThermalThrottle
	// ECCError: an uncorrectable ECC fault poisons Event.Pages pages from
	// Event.Page (XID 48); affected workloads retire the range and rewind
	// to their last checkpoint.
	ECCError
)

func (k Kind) String() string {
	switch k {
	case DeviceLoss:
		return "device-loss"
	case DeviceRestore:
		return "device-restore"
	case ThermalThrottle:
		return "thermal-throttle"
	case ECCError:
		return "ecc-error"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled health event on the fleet plane.
type Event struct {
	At     event.Cycle // fleet cycle (not any workload's local clock)
	Kind   Kind
	Device int

	Scale int // ThermalThrottle: derate factor, >= 1 (1 clears)

	Page  uint64 // ECCError: first faulted page
	Pages int    // ECCError: faulted page count, >= 1
}

// Schedule is a named, seed-addressable sequence of fleet health events,
// time-ordered on the fleet clock.
type Schedule struct {
	Name string
	// Seed is the generator seed for Random schedules (zero for scripted
	// ones); Validate errors carry it so a failing schedule is
	// reproducible from the message alone.
	Seed   uint64
	Events []Event
}

func (s Schedule) String() string {
	kinds := make([]string, len(s.Events))
	for i, e := range s.Events {
		kinds[i] = e.Kind.String()
	}
	return fmt.Sprintf("%s(%s)", s.label(), strings.Join(kinds, ","))
}

// label names the schedule in errors, with the generator seed when it has
// one, so "which schedule broke" survives copy-paste.
func (s Schedule) label() string {
	if s.Seed == 0 {
		return s.Name
	}
	return fmt.Sprintf("%s[seed=%d]", s.Name, s.Seed)
}

// Validate checks the schedule against a fleet of numDevices devices:
// devices in range, events time-ordered at positive cycles, loss/restore
// correctly paired per device, parameters in range. Errors name the
// schedule (with seed) and the offending event index.
func (s Schedule) Validate(numDevices int) error {
	if numDevices < 1 {
		return fmt.Errorf("fleet: %s: no devices", s.label())
	}
	onBus := make([]bool, numDevices)
	for i := range onBus {
		onBus[i] = true
	}
	var prev event.Cycle
	for i, e := range s.Events {
		if e.Device < 0 || e.Device >= numDevices {
			return fmt.Errorf("fleet: %s event %d: device %d out of range [0,%d)", s.label(), i, e.Device, numDevices)
		}
		if e.At == 0 {
			return fmt.Errorf("fleet: %s event %d: at cycle 0; health events must land after launch", s.label(), i)
		}
		if e.At < prev {
			return fmt.Errorf("fleet: %s event %d: time travel (%d after %d)", s.label(), i, e.At, prev)
		}
		prev = e.At
		switch e.Kind {
		case DeviceLoss:
			if !onBus[e.Device] {
				return fmt.Errorf("fleet: %s event %d: device %d lost twice", s.label(), i, e.Device)
			}
			onBus[e.Device] = false
		case DeviceRestore:
			if onBus[e.Device] {
				return fmt.Errorf("fleet: %s event %d: device %d restored but never lost", s.label(), i, e.Device)
			}
			onBus[e.Device] = true
		case ThermalThrottle:
			if e.Scale < 1 {
				return fmt.Errorf("fleet: %s event %d: thermal scale %d < 1", s.label(), i, e.Scale)
			}
		case ECCError:
			if e.Pages < 1 {
				return fmt.Errorf("fleet: %s event %d: ECC range of %d pages", s.label(), i, e.Pages)
			}
		default:
			return fmt.Errorf("fleet: %s event %d: unknown kind %d", s.label(), i, int(e.Kind))
		}
	}
	return nil
}

// Scripted returns the canonical hand-written churn schedules for a fleet
// of numDevices (>= 2) devices, with the churn window starting around
// base fleet cycles. Together they cover every event kind, both migration
// flavors (loss-driven eviction and restore-driven rebalance), and
// compound churn; none dips below two surviving devices.
func Scripted(numDevices int, base event.Cycle) []Schedule {
	last := numDevices - 1
	return []Schedule{
		// No plane events: the multiplexing-only control.
		{Name: "steady"},
		// One device falls off the bus mid-kernel and never returns: the
		// canonical migration-off-a-lost-device schedule.
		{Name: "single-loss", Events: []Event{
			{At: 3 * base, Kind: DeviceLoss, Device: last},
		}},
		// Loss then restore: eviction out, rebalance back.
		{Name: "loss-restore", Events: []Event{
			{At: 3 * base, Kind: DeviceLoss, Device: last},
			{At: 9 * base, Kind: DeviceRestore, Device: last},
		}},
		// A loss wave rolls across two devices, each restored before the
		// next goes down.
		{Name: "rolling", Events: []Event{
			{At: 2 * base, Kind: DeviceLoss, Device: 0},
			{At: 5 * base, Kind: DeviceRestore, Device: 0},
			{At: 7 * base, Kind: DeviceLoss, Device: 1},
			{At: 10 * base, Kind: DeviceRestore, Device: 1},
		}},
		// Thermal derates sweep the fleet; one clears, one persists.
		{Name: "thermal-wave", Events: []Event{
			{At: 2 * base, Kind: ThermalThrottle, Device: 0, Scale: 3},
			{At: 4 * base, Kind: ThermalThrottle, Device: 1, Scale: 2},
			{At: 8 * base, Kind: ThermalThrottle, Device: 0, Scale: 1},
		}},
		// Uncorrectable ECC on two devices: poison, retire, rewind.
		{Name: "ecc-scrub", Events: []Event{
			{At: 3 * base, Kind: ECCError, Device: 0, Page: 0, Pages: 4},
			{At: 6 * base, Kind: ECCError, Device: 1, Page: 4, Pages: 4},
		}},
		// Every kind at once: throttle, loss, ECC, late restore.
		{Name: "mixed", Events: []Event{
			{At: 2 * base, Kind: ThermalThrottle, Device: 0, Scale: 2},
			{At: 4 * base, Kind: DeviceLoss, Device: last},
			{At: 6 * base, Kind: ECCError, Device: 1, Page: 0, Pages: 2},
			{At: 10 * base, Kind: DeviceRestore, Device: last},
		}},
		// Two concurrent holes in the fleet (needs numDevices >= 4 to keep
		// two survivors).
		{Name: "double-loss", Events: []Event{
			{At: 3 * base, Kind: DeviceLoss, Device: last},
			{At: 5 * base, Kind: DeviceLoss, Device: last - 1},
			{At: 9 * base, Kind: DeviceRestore, Device: last},
		}},
	}
}

// Random generates a seed-addressable random churn schedule: a splitmix64
// stream drives event kinds, devices, and timestamps across [base,
// base+span). The generator tracks bus membership so the schedule always
// validates and never leaves fewer than floor devices on the bus (the
// fleet never drains under a Random schedule). Identical inputs yield
// identical schedules.
func Random(seed uint64, numDevices, floor int, base, span event.Cycle) Schedule {
	s := Schedule{Name: fmt.Sprintf("rand-%d", seed), Seed: seed}
	state := seed
	if span == 0 {
		span = 1
	}
	if floor < 1 {
		floor = 1
	}
	n := 4 + int(hashutil.Next(&state)%5) // 4..8 events
	onBus := make([]bool, numDevices)
	for i := range onBus {
		onBus[i] = true
	}
	numOn := numDevices
	at := base
	// Same clamp as fault.Random: when span < n the divisor would truncate
	// to 1 and every event would land at exactly base. A floor of 2 keeps a
	// 0-or-1 cycle spread; unchanged whenever span >= n.
	div := span/event.Cycle(n) + 1
	if div < 2 {
		div = 2
	}
	for i := 0; i < n; i++ {
		at += event.Cycle(hashutil.Next(&state) % uint64(div))
		switch hashutil.Next(&state) % 4 {
		case 0: // lose a random on-bus device, keeping the floor
			if numOn <= floor {
				continue
			}
			k := int(hashutil.Next(&state) % uint64(numDevices))
			for !onBus[k] {
				k = (k + 1) % numDevices
			}
			onBus[k] = false
			numOn--
			s.Events = append(s.Events, Event{At: at, Kind: DeviceLoss, Device: k})
		case 1: // restore a random lost device
			if numOn == numDevices {
				continue
			}
			k := int(hashutil.Next(&state) % uint64(numDevices))
			for onBus[k] {
				k = (k + 1) % numDevices
			}
			onBus[k] = true
			numOn++
			s.Events = append(s.Events, Event{At: at, Kind: DeviceRestore, Device: k})
		case 2: // derate a random device (or clear it)
			s.Events = append(s.Events, Event{
				At: at, Kind: ThermalThrottle,
				Device: int(hashutil.Next(&state) % uint64(numDevices)),
				Scale:  1 + int(hashutil.Next(&state)%3),
			})
		default: // poison a small page range
			s.Events = append(s.Events, Event{
				At: at, Kind: ECCError,
				Device: int(hashutil.Next(&state) % uint64(numDevices)),
				Page:   hashutil.Next(&state) % 16,
				Pages:  1 + int(hashutil.Next(&state)%4),
			})
		}
	}
	return s
}
