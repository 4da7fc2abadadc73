package gpu

import (
	"encoding/json"
	"fmt"
	"testing"

	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// fuzzVarBase spaces the fuzz programs' shared variables a cache line
// apart, like the kernel library's allocator; fuzzPrivBase starts the
// table of per-WG private words the wait and acquire forms use.
const (
	fuzzVarBase  = 0x1000
	fuzzPrivBase = 0x2000
	fuzzWGs      = 8
)

// fuzzProgram decodes data into a valid IR program: a bounded loop whose
// body mixes pure arithmetic, geometry reads, plain and atomic memory
// traffic on a small shared-variable table, intra-WG barriers, and waits
// and acquires in forms a WG always satisfies on its own. Those run on the
// WG's private word, which no other WG touches: a release or store the WG
// itself just made (AtomicStore(v,k); AwaitEq(v,k)), an AwaitGE on the
// value an add just produced, and an acquire right after a release. So
// every generated program completes on one WG and on many.
func fuzzProgram(data []byte) *prog.Program {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	b := prog.NewBuilder()
	gvar := func() prog.Mem { return b.GVar(fuzzVarBase + 64*uint64(next()%8)) }
	lvar := func() prog.Mem { return b.LVar(64 * uint64(next()%4)) }
	privAddrs := make([]uint64, fuzzWGs)
	for i := range privAddrs {
		privAddrs[i] = fuzzPrivBase + 64*uint64(i)
	}
	privBase := b.AddrRange(privAddrs)
	regs := []prog.Src{b.Geom(prog.GeomID), b.Geom(prog.GeomIndexInGroup)}
	priv := prog.At(b.Add(prog.Imm(privBase), regs[0]), prog.Global)
	val := func() prog.Src {
		if n := next(); n%2 == 0 {
			return regs[int(n/2)%len(regs)]
		} else {
			return prog.Imm(int64(n%7) - 3)
		}
	}
	small := func() prog.Src { return prog.Imm(int64(next()%5) - 2) }
	iters := 1 + int64(next()%3)
	i := b.Let(prog.Imm(0))
	top := b.Here()
	steps := len(data)
	if steps > 48 {
		steps = 48
	}
	for s := 0; s < steps; s++ {
		switch next() % 17 {
		case 0:
			b.Compute(prog.Imm(int64(1 + next()%16)))
		case 1:
			regs = append(regs, b.Load(gvar()))
		case 2:
			b.Store(gvar(), val())
		case 3:
			regs = append(regs, b.AtomicAdd(gvar(), val()))
		case 4:
			b.AtomicAddX(gvar(), prog.Imm(int64(next()%5)-2))
		case 5:
			regs = append(regs, b.AtomicExch(gvar(), val()))
		case 6:
			regs = append(regs, b.AtomicCAS(gvar(), prog.Imm(int64(next()%3)), val()))
		case 7:
			regs = append(regs, b.AtomicLoad(gvar()))
		case 8:
			b.AtomicStore(gvar(), val())
		case 9:
			// Division by 0 yields 0 by spec.
			arith := [...]func(x, y prog.Src) prog.Src{b.Add, b.Sub, b.Mul, b.Div, b.Mod}
			regs = append(regs, arith[next()%5](val(), val()))
		case 10:
			regs = append(regs, b.Geom(prog.Geom(next()%6)))
		case 11:
			b.SyncThreads()
		case 12:
			b.AtomicAddX(lvar(), prog.Imm(1))
		case 13:
			k := val()
			b.AtomicStore(priv, k)
			if next()%2 == 0 {
				b.AwaitEq(priv, k)
			} else {
				b.AwaitGE(priv, k)
			}
		case 14:
			d := val()
			old := b.AtomicAdd(priv, d)
			b.AwaitGE(priv, b.Add(old, d))
		case 15:
			unlocked, locked := small(), val()
			b.AtomicExchX(priv, unlocked)
			b.AcquireExch(priv, locked, unlocked, next()%2 == 0)
		case 16:
			expect, newv := small(), val()
			b.AtomicStore(priv, expect)
			b.AcquireCAS(priv, expect, newv)
		}
	}
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Br(prog.LT, i, prog.Imm(iters), top)
	return b.MustBuild()
}

// refRun is the reference semantics of the IR for a single WG (ID 0 of a
// one-WG launch, alone in its scheduling group): an untimed loop over the
// program's ops against a map-backed memory. It shares no code with the
// machine's interpreter. A wait or acquire that one WG can never satisfy on
// its own is an error, as is running past maxOps.
func refRun(p *prog.Program, maxOps int) (regs []int64, memory map[uint64]int64, err error) {
	regs = make([]int64, p.NumRegs)
	memory = make(map[uint64]int64)
	geom := map[prog.Geom]int64{
		prog.GeomID: 0, prog.GeomNumWGs: 1, prog.GeomWIsPerWG: 64,
		prog.GeomGroup: 0, prog.GeomGroupSize: 1, prog.GeomIndexInGroup: 0,
	}
	val := func(s prog.Src) int64 {
		if s.Reg >= 0 {
			return regs[s.Reg]
		}
		return s.Imm
	}
	for pc, n := 0, 0; pc < len(p.Code); n++ {
		if n == maxOps {
			return nil, nil, fmt.Errorf("reference run exceeded %d ops", maxOps)
		}
		op := p.Code[pc]
		pc++
		var addr uint64
		if op.Kind.IsDevice() && op.Kind != prog.OpCompute && op.Kind != prog.OpSyncThreads {
			idx := val(op.A)
			if idx < 0 || idx >= int64(len(p.Pool)) {
				return nil, nil, fmt.Errorf("op %d addresses pool[%d] of %d", pc-1, idx, len(p.Pool))
			}
			addr = p.Pool[idx]
		}
		ret, hasRet := int64(0), true
		switch op.Kind {
		case prog.OpMov:
			ret = val(op.A)
		case prog.OpAdd:
			ret = val(op.A) + val(op.B)
		case prog.OpSub:
			ret = val(op.A) - val(op.B)
		case prog.OpMul:
			ret = val(op.A) * val(op.B)
		case prog.OpDiv:
			if d := val(op.B); d != 0 {
				ret = val(op.A) / d
			}
		case prog.OpMod:
			if d := val(op.B); d != 0 {
				ret = val(op.A) % d
			}
		case prog.OpGeom:
			ret = geom[op.Geom]
		case prog.OpJmp:
			pc, hasRet = int(op.Target), false
		case prog.OpBr:
			if op.Cmp.Test(val(op.A), val(op.B)) {
				pc = int(op.Target)
			}
			hasRet = false
		case prog.OpCompute, prog.OpSyncThreads:
			hasRet = false
		case prog.OpLoad, prog.OpAtomicLoad:
			ret = memory[addr]
		case prog.OpStore:
			memory[addr], hasRet = val(op.B), false
		case prog.OpAtomicAdd:
			ret = memory[addr]
			memory[addr] = ret + val(op.B)
		case prog.OpAtomicExch:
			ret = memory[addr]
			memory[addr] = val(op.B)
		case prog.OpAtomicCAS:
			ret = memory[addr]
			if ret == val(op.B) {
				memory[addr] = val(op.C)
			}
		case prog.OpAtomicStore:
			memory[addr], hasRet = val(op.B), false
		case prog.OpAwaitEq:
			if ret = memory[addr]; ret != val(op.B) {
				return nil, nil, fmt.Errorf("op %d waits for %#x == %d, holds %d", pc-1, addr, val(op.B), ret)
			}
		case prog.OpAwaitGE:
			if ret = memory[addr]; ret < val(op.B) {
				return nil, nil, fmt.Errorf("op %d waits for %#x >= %d, holds %d", pc-1, addr, val(op.B), ret)
			}
		case prog.OpAcquireExch:
			// Exchange locked in until the old value is unlocked; alone, a
			// second failed attempt reads back locked and can never succeed.
			locked, unlocked := val(op.B), val(op.C)
			for attempt := 0; ; attempt++ {
				old := memory[addr]
				memory[addr] = locked
				if old == unlocked {
					break
				}
				if attempt == 1 {
					return nil, nil, fmt.Errorf("op %d acquire-exch on %#x never sees %d", pc-1, addr, unlocked)
				}
			}
			hasRet = false
		case prog.OpAcquireCAS:
			if memory[addr] != val(op.B) {
				return nil, nil, fmt.Errorf("op %d acquire-cas on %#x expects %d, holds %d", pc-1, addr, val(op.B), memory[addr])
			}
			memory[addr], hasRet = val(op.C), false
		default:
			return nil, nil, fmt.Errorf("op %d has kind %s the reference does not know", pc-1, op.Kind)
		}
		if hasRet && op.Dst >= 0 {
			regs[op.Dst] = ret
		}
	}
	return regs, memory, nil
}

// runFuzzMachine runs p on nWGs WGs of the test machine, failing on a
// deadlock, and returns the machine and its result's JSON encoding.
func runFuzzMachine(t *testing.T, p *prog.Program, nWGs int) (*Machine, string) {
	t.Helper()
	m := newTestMachine(t, testConfig(), &KernelSpec{Name: "fuzz", NumWGs: nWGs, WIsPerWG: 64, IR: p}, nil)
	res := m.Run()
	if res.Deadlocked {
		t.Fatalf("fuzz program deadlocked on %d WGs: %+v", nWGs, res.Diagnosis)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return m, string(j)
}

// FuzzProgIR checks the machine's interpreter against the reference
// semantics (refRun): a random program run on one WG must leave the same
// registers and the same value in every word it can address (its pool,
// global and local scope alike). Run on eight WGs, the program must still
// complete, and two runs must agree on the result and final memory.
// Multi-WG semantics under contention are the litmus sweep's to check: its
// Verify diffs final memory against Litmus.FairFinal.
func FuzzProgIR(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23})
	f.Add([]byte("atomic soup: add exch cas load store"))
	f.Add([]byte{0xff, 0x00, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01})
	f.Add([]byte{2, 13, 4, 0, 14, 6, 15, 1, 3, 1, 16, 2, 5, 13, 9, 1, 30, 14, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		wantRegs, wantMem, err := refRun(p, maxPureOps)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		m, _ := runFuzzMachine(t, p, 1)
		if got := m.allWGs[0].frame.regs; fmt.Sprint(got) != fmt.Sprint(wantRegs) {
			t.Errorf("registers diverged from the reference:\n  machine:   %v\n  reference: %v", got, wantRegs)
		}
		for _, a := range p.Pool {
			if got, want := m.Mem().Read(mem.Addr(a)), wantMem[a]; got != want {
				t.Errorf("word %#x = %d, reference %d", a, got, want)
			}
		}

		words := func(m *Machine) []int64 {
			out := make([]int64, len(p.Pool))
			for i, a := range p.Pool {
				out[i] = m.Mem().Read(mem.Addr(a))
			}
			return out
		}
		m1, res1 := runFuzzMachine(t, p, fuzzWGs)
		m2, res2 := runFuzzMachine(t, p, fuzzWGs)
		if res1 != res2 {
			t.Errorf("%d-WG runs diverged:\n  %s\n  %s", fuzzWGs, res1, res2)
		}
		if w1, w2 := words(m1), words(m2); fmt.Sprint(w1) != fmt.Sprint(w2) {
			t.Errorf("%d-WG final memory diverged:\n  %v\n  %v", fuzzWGs, w1, w2)
		}
	})
}
