package hashutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniversalRange(t *testing.T) {
	u := NewUniversal(1, 256)
	for x := uint64(0); x < 10000; x++ {
		h := u.Hash(x)
		if h < 0 || h >= 256 {
			t.Fatalf("Hash(%d) = %d out of [0,256)", x, h)
		}
	}
}

func TestUniversalDeterministic(t *testing.T) {
	a := NewUniversal(7, 1024)
	b := NewUniversal(7, 1024)
	for x := uint64(0); x < 1000; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatalf("same seed disagreed at %d", x)
		}
	}
}

func TestUniversalSeedsDiffer(t *testing.T) {
	a := NewUniversal(1, 1<<20)
	b := NewUniversal(2, 1<<20)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if a.Hash(x) == b.Hash(x) {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("two family members collided on %d/1000 inputs", same)
	}
}

func TestUniversalSpread(t *testing.T) {
	// Sequential addresses (the common monitored-address pattern: a lock
	// array with 64 B stride) must spread across sets, not pile into one.
	u := NewUniversal(3, 256)
	counts := make(map[int]int)
	for i := uint64(0); i < 4096; i++ {
		counts[u.Hash(0x1000+i*64)]++
	}
	for set, n := range counts {
		if n > 4096/256*8 {
			t.Fatalf("set %d received %d of 4096 sequential addresses", set, n)
		}
	}
}

func TestUniversalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewUniversal(seed, 0) did not panic")
		}
	}()
	NewUniversal(1, 0)
}

func TestBloomEmpty(t *testing.T) {
	b := NewBloom(24, 6, 1)
	for v := uint64(0); v < 100; v++ {
		if b.MayContain(v) {
			t.Fatalf("empty bloom claims to contain %d", v)
		}
	}
	if b.PopCount() != 0 {
		t.Fatalf("empty bloom has %d bits set", b.PopCount())
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	f := func(vals []uint64) bool {
		b := NewBloom(64, 6, 99)
		for _, v := range vals {
			b.Add(v)
		}
		for _, v := range vals {
			if !b.MayContain(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBloomAddReportsPresence(t *testing.T) {
	b := NewBloom(24, 6, 5)
	if b.Add(42) {
		t.Fatal("first Add(42) reported already present")
	}
	if !b.Add(42) {
		t.Fatal("second Add(42) reported absent")
	}
}

func TestBloomReset(t *testing.T) {
	b := NewBloom(24, 6, 5)
	b.Add(1)
	b.Add(2)
	b.Reset()
	if b.PopCount() != 0 {
		t.Fatalf("%d bits set after Reset", b.PopCount())
	}
	if b.MayContain(1) {
		t.Fatal("reset bloom still contains 1")
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	// The paper's geometry (24 bits, 6 hashes) targets ~2.1% false positives
	// for the handful of unique values a monitored sync variable sees.
	// Verify the measured rate is in that ballpark after 3 insertions.
	rng := rand.New(rand.NewSource(11))
	trials, falsePos, probes := 2000, 0, 0
	for i := 0; i < trials; i++ {
		b := NewBloom(24, 6, uint64(i))
		inserted := map[uint64]bool{}
		for j := 0; j < 3; j++ {
			v := rng.Uint64()
			b.Add(v)
			inserted[v] = true
		}
		for j := 0; j < 10; j++ {
			v := rng.Uint64()
			if inserted[v] {
				continue
			}
			probes++
			if b.MayContain(v) {
				falsePos++
			}
		}
	}
	rate := float64(falsePos) / float64(probes)
	if rate > 0.10 {
		t.Fatalf("false positive rate %.3f, want around the paper's 0.021 (<0.10)", rate)
	}
}

func TestBloomGeometryPanics(t *testing.T) {
	for _, tc := range []struct{ m, k int }{{0, 6}, {65, 6}, {24, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBloom(%d, %d) did not panic", tc.m, tc.k)
				}
			}()
			NewBloom(tc.m, tc.k, 1)
		}()
	}
}

func TestUniqueCounterMutexPattern(t *testing.T) {
	// A test-and-set lock toggles between two values; the counter must
	// report <= 2 uniques no matter how many updates occur.
	c := NewUniqueCounter(24, 6, 3)
	for i := 0; i < 100; i++ {
		c.Observe(uint64(i % 2))
	}
	if got := c.Count(); got != 2 {
		t.Fatalf("mutex pattern counted %d uniques, want 2", got)
	}
}

func TestUniqueCounterBarrierPattern(t *testing.T) {
	// A barrier counter sweeps 1..N; the predictor needs to see "more than
	// two unique updates". Bloom false positives may under-count slightly,
	// so require a healthy majority rather than an exact N.
	c := NewUniqueCounter(24, 6, 4)
	const n = 8
	for i := 1; i <= n; i++ {
		c.Observe(uint64(i))
	}
	if got := c.Count(); got <= 2 || got > n {
		t.Fatalf("barrier pattern counted %d uniques, want in (2,%d]", got, n)
	}
}

func TestUniqueCounterNeverOverCounts(t *testing.T) {
	f := func(vals []uint8) bool {
		c := NewUniqueCounter(64, 6, 8)
		distinct := map[uint8]bool{}
		for _, v := range vals {
			c.Observe(uint64(v))
			distinct[v] = true
		}
		return c.Count() <= len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniqueCounterReset(t *testing.T) {
	c := NewUniqueCounter(24, 6, 9)
	c.Observe(1)
	c.Observe(2)
	c.Reset()
	if c.Count() != 0 {
		t.Fatalf("count %d after reset, want 0", c.Count())
	}
	if got := c.Observe(3); got != 1 {
		t.Fatalf("first observation after reset counted %d, want 1", got)
	}
}

func BenchmarkUniversalHash(b *testing.B) {
	u := NewUniversal(1, 256)
	for i := 0; i < b.N; i++ {
		_ = u.Hash(uint64(i) * 64)
	}
}

func BenchmarkBloomObserve(b *testing.B) {
	c := NewUniqueCounter(24, 6, 1)
	for i := 0; i < b.N; i++ {
		c.Observe(uint64(i % 8))
	}
}

// TestNextStreamPinned pins the first eight outputs of the splitmix64
// stream for three seeds. The literals are the outputs of the generator
// the fault, litmus, fleet and memory-poison streams used before they
// shared Next, so those streams replay unchanged.
func TestNextStreamPinned(t *testing.T) {
	want := map[uint64][8]uint64{
		0: {0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f, 0xf88bb8a8724c81ec,
			0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1, 0xc584133ac916ab3c},
		1: {0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e, 0x71c18690ee42c90b,
			0x71bb54d8d101b5b9, 0xc34d0bff90150280, 0xe099ec6cd7363ca5, 0x85e7bb0f12278575},
		12345: {0x22118258a9d111a0, 0x346edce5f713f8ed, 0x1e9a57bc80e6721d, 0x2d160e7e5c3f42ca,
			0x81c2e6dc980d78eb, 0x5647e55ad933f62e, 0x1f6622b40cb38e42, 0x6e7411b06820371c},
	}
	for seed, outs := range want {
		state := seed
		for i, w := range outs {
			if got := Next(&state); got != w {
				t.Fatalf("seed %d output %d = %#x, want %#x", seed, i, got, w)
			}
		}
		if step := uint64(splitmixGamma); state != seed+8*step {
			t.Fatalf("seed %d: state %#x after 8 draws, want %#x", seed, state, seed+8*step)
		}
		if got := Mix64(seed); got != outs[0] {
			t.Fatalf("Mix64(%d) = %#x, want the stream's first output %#x", seed, got, outs[0])
		}
	}
}
