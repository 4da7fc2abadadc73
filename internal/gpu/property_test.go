package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// TestAtomicFunctionalEquivalence: whatever the timing model does with
// scheduling and bank queues, the *functional* outcome of commutative
// atomics must match a sequential model: per-address sums for adds, and
// for exchange chains the final value must be one of the written values.
func TestAtomicFunctionalEquivalence(t *testing.T) {
	f := func(seed int64, nWGsRaw, nOpsRaw uint8) bool {
		nWGs := int(nWGsRaw)%6 + 2
		nOps := int(nOpsRaw)%20 + 1
		rng := rand.New(rand.NewSource(seed))
		addrs := []mem.Addr{0x1000, 0x1040, 0x1080}
		// Pre-generate per-WG op sequences.
		type op struct {
			addr  mem.Addr
			delta int64
		}
		plans := make([][]op, nWGs)
		expected := map[mem.Addr]int64{}
		for i := range plans {
			for j := 0; j < nOps; j++ {
				o := op{addrs[rng.Intn(len(addrs))], int64(rng.Intn(9) - 4)}
				plans[i] = append(plans[i], o)
				expected[o.addr] += o.delta
			}
		}
		spec := irKernel("prop", nWGs, func(b *prog.Builder) {
			switchWG(b, nWGs, func(id int) {
				for _, o := range plans[id] {
					b.AtomicAddX(b.GVar(uint64(o.addr)), prog.Imm(o.delta))
				}
			})
		})
		cfg := testConfig()
		m, err := NewMachine(cfg, mem.DefaultConfig(), spec, &spinPolicy{})
		if err != nil {
			return false
		}
		if m.Run().Deadlocked {
			return false
		}
		for a, want := range expected {
			if got := m.Mem().Read(a); got != want {
				t.Logf("addr %x: got %d want %d", a, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMutualExclusionProperty: under random critical-section lengths, a
// test-and-set lock must still serialize increments of an unprotected
// counter (read-modify-write through plain loads/stores).
func TestMutualExclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nWGs, iters = 6, 3
		work := make([][]uint64, nWGs)
		for i := range work {
			for j := 0; j < iters; j++ {
				work[i] = append(work[i], uint64(rng.Intn(400)))
			}
		}
		const lock, counter = mem.Addr(0x2000), mem.Addr(0x2040)
		spec := irKernel("mutex-prop", nWGs, func(b *prog.Builder) {
			v, c := b.GVar(uint64(lock)), b.GVar(uint64(counter))
			switchWG(b, nWGs, func(id int) {
				for j := 0; j < iters; j++ {
					b.AcquireExch(v, prog.Imm(1), prog.Imm(0), false)
					x := b.Load(c)
					b.Compute(prog.Imm(int64(work[id][j]) + 1))
					b.Store(c, b.Add(x, prog.Imm(1)))
					b.AtomicExchX(v, prog.Imm(0))
				}
			})
		})
		m, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, &spinPolicy{})
		if err != nil {
			return false
		}
		if m.Run().Deadlocked {
			return false
		}
		return m.Mem().Read(counter) == int64(nWGs*iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierEpochProperty: no WG may start epoch e+1 before every WG
// finished epoch e. The kernel writes per-WG epoch stamps; inside each
// epoch it verifies no stamp is more than one behind.
func TestBarrierEpochProperty(t *testing.T) {
	const nWGs, epochs = 8, 4
	const count = mem.Addr(0x3000)
	stampBase := mem.Addr(0x4000)
	const violation = mem.Addr(0x5000)
	spec := irKernel("barrier-prop", nWGs, func(b *prog.Builder) {
		me := wgWord(b, stampBase, nWGs)
		work := b.Mul(prog.Imm(100), b.Add(b.Geom(prog.GeomID), prog.Imm(1)))
		for e := int64(1); e <= epochs; e++ {
			b.Compute(work)
			b.Store(me, prog.Imm(e))
			countBarrier(b, b.GVar(uint64(count)), prog.Imm(e*nWGs))
			// After the barrier, every stamp must be >= e.
			for i := 0; i < nWGs; i++ {
				ok := b.Label()
				b.Br(prog.GE, b.Load(b.GVar(uint64(resultWord(stampBase, i)))), prog.Imm(e), ok)
				b.Store(b.GVar(uint64(violation)), prog.Imm(1))
				b.Bind(ok)
			}
		}
	})
	m, err := NewMachine(testConfig(), mem.DefaultConfig(), spec, &spinPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Run().Deadlocked {
		t.Fatal("deadlocked")
	}
	if violated := m.Mem().Read(violation) != 0; violated {
		t.Fatal("a WG crossed the barrier before everyone arrived")
	}
}
