// Package hashutil provides the hashing building blocks used by the SyncMon:
// Carter–Wegman universal hashing (used to index the condition cache, per
// Section V.C of the paper) and the small Bloom filters AWG uses to count
// unique updates to monitored addresses for its resume predictor.
package hashutil

import "math/bits"

// mersennePrime31 is 2^31-1, a Mersenne prime that makes the (a*x+b) mod p
// reduction cheap. It comfortably exceeds every hash-input universe used by
// the SyncMon (addresses folded to 31 bits).
const mersennePrime31 = (1 << 31) - 1

// Universal is a Carter–Wegman universal hash function
// h(x) = ((a*x + b) mod p) mod m, with p = 2^31-1.
//
// Members of the family are chosen by (a, b); the SyncMon fixes a family
// member at construction so the same condition always lands in the same
// cache set.
type Universal struct {
	a, b uint64
	m    uint64
}

// NewUniversal picks the family member identified by seed, mapping inputs
// onto [0, m). m must be positive. The seed is folded so that a is non-zero,
// as the universal-family definition requires.
func NewUniversal(seed uint64, m int) Universal {
	if m <= 0 {
		panic("hashutil: universal hash range must be positive")
	}
	a := (Mix64(seed) % (mersennePrime31 - 1)) + 1 // a in [1, p-1]
	b := Mix64(seed+splitmixGamma) % mersennePrime31
	return Universal{a: a, b: b, m: uint64(m)}
}

// Hash maps x into [0, m).
func (u Universal) Hash(x uint64) int {
	x = fold31(x)
	h := (u.a*x + u.b) % mersennePrime31
	return int(h % u.m)
}

// fold31 reduces a 64-bit input into the 31-bit universe of the hash family
// while keeping high-order address entropy.
func fold31(x uint64) uint64 {
	return (x ^ x>>31 ^ x>>62) & mersennePrime31
}

// splitmixGamma is SplitMix64's stream increment (2^64 / the golden ratio).
const splitmixGamma = 0x9e3779b97f4a7c15

// Mix64 is the SplitMix64 output function of state x: it mixes x + gamma.
// It is the default key-mixing function for Flat tables over addresses and
// packed condition keys, and it derives the universal-hash parameters from
// small seeds.
func Mix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Next draws the next value of a splitmix64 stream and advances its state:
// Mix64(*state), then *state += gamma. It is the simulator's one seeded
// random stream — fault schedules, litmus generation, fleet planes and
// memory poison all draw from it — so each is deterministic and
// addressable by its seed.
func Next(state *uint64) uint64 {
	x := Mix64(*state)
	*state += splitmixGamma
	return x
}

// Bloom is a fixed-geometry Bloom filter matching the paper's AWG predictor
// hardware: each filter stores m bits (24 in the paper) probed by k hash
// functions (6 in the paper). With those parameters the paper reports a
// 2.1% false-positive probability for the unique-update counts it records.
type Bloom struct {
	bits  uint64 // m <= 64, so one word suffices for the hardware geometry
	m, k  int
	funcs []Universal
}

// NewBloom builds an m-bit, k-hash Bloom filter. m must be in (0, 64] —
// the hardware filters are tiny by design — and k positive.
func NewBloom(m, k int, seed uint64) *Bloom {
	if m <= 0 || m > 64 {
		panic("hashutil: bloom size must be in (0, 64]")
	}
	if k <= 0 {
		panic("hashutil: bloom needs at least one hash function")
	}
	funcs := make([]Universal, k)
	for i := range funcs {
		funcs[i] = NewUniversal(seed+uint64(i)*0x1000193, m)
	}
	return &Bloom{m: m, k: k, funcs: funcs}
}

// Add records value v. It reports whether v was possibly already present
// before the insertion (i.e. all probed bits were already set).
func (b *Bloom) Add(v uint64) (alreadyPresent bool) {
	alreadyPresent = true
	for _, f := range b.funcs {
		bit := uint64(1) << uint(f.Hash(v))
		if b.bits&bit == 0 {
			alreadyPresent = false
			b.bits |= bit
		}
	}
	return alreadyPresent
}

// MayContain reports whether v may have been added. False means definitely
// not added; true may be a false positive.
func (b *Bloom) MayContain(v uint64) bool {
	for _, f := range b.funcs {
		if b.bits&(uint64(1)<<uint(f.Hash(v))) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter; the paper resets a filter once its condition has
// been met, all waiters resumed, and the address unmonitored.
func (b *Bloom) Reset() { b.bits = 0 }

// PopCount reports how many bits are set, a cheap saturation signal.
func (b *Bloom) PopCount() int { return bits.OnesCount64(b.bits) }

// State returns the filter's bit vector — with the fixed <= 64-bit hardware
// geometry, one word is the filter's entire mutable state. Snapshot/restore
// round-trips it through SetState.
func (b *Bloom) State() uint64 { return b.bits }

// SetState overwrites the filter's bit vector with one previously returned
// by State.
func (b *Bloom) SetState(bits uint64) { b.bits = bits }

// Bits reports the filter geometry (m) for introspection and tests.
func (b *Bloom) Bits() int { return b.m }

// UniqueCounter tracks an approximate count of distinct values observed at a
// monitored address. It is the structure AWG consults to decide between
// resume-one and resume-all: mutexes toggle between at most two values while
// barrier counters sweep through many.
//
// The filter is held by value and its hash family is never written, so a
// copy of a counter is an independent counter sharing only the read-only
// family: AWG's predictor builds its counters once per configuration and
// copies them into each session.
type UniqueCounter struct {
	bloom Bloom
	count int
}

// NewUniqueCounter builds a counter backed by the paper's 24-bit, 6-hash
// Bloom geometry unless overridden.
func NewUniqueCounter(m, k int, seed uint64) *UniqueCounter {
	return &UniqueCounter{bloom: *NewBloom(m, k, seed)}
}

// Observe records an updated value and returns the current unique count.
// Bloom false positives can only under-count, mirroring the hardware.
func (c *UniqueCounter) Observe(v uint64) int {
	if !c.bloom.Add(v) {
		c.count++
	}
	return c.count
}

// Count reports the unique values observed since the last reset.
func (c *UniqueCounter) Count() int { return c.count }

// Reset clears the counter and its filter.
func (c *UniqueCounter) Reset() {
	c.bloom.Reset()
	c.count = 0
}

// CounterState is a UniqueCounter's mutable state: the filter bits plus the
// running unique count.
type CounterState struct {
	Bits  uint64
	Count int
}

// State captures the counter's mutable state for a snapshot.
func (c *UniqueCounter) State() CounterState {
	return CounterState{Bits: c.bloom.State(), Count: c.count}
}

// SetState restores state previously captured with State.
func (c *UniqueCounter) SetState(s CounterState) {
	c.bloom.SetState(s.Bits)
	c.count = s.Count
}
