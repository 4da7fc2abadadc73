package gpu

import (
	"awgsim/internal/mem"
	"awgsim/internal/prog"
)

// Helpers that keep the test kernels short: each test writes its WG body
// against a prog.Builder, and values a test inspects afterwards are stored
// to result words and read back through m.Mem().Read.

// irKernel builds a kernel of nWGs 64-WI WGs whose program body emits.
func irKernel(name string, nWGs int, body func(b *prog.Builder)) *KernelSpec {
	b := prog.NewBuilder()
	body(b)
	return &KernelSpec{Name: name, NumWGs: nWGs, WIsPerWG: 64, IR: b.MustBuild()}
}

// noop is the empty program body.
func noop(*prog.Builder) {}

// computeOnly returns a body that computes for cycles and finishes.
func computeOnly(cycles int64) func(b *prog.Builder) {
	return func(b *prog.Builder) { b.Compute(prog.Imm(cycles)) }
}

// ifWG0 emits `if ID == 0 { wg0() } else { others() }`.
func ifWG0(b *prog.Builder, wg0, others func()) {
	rest, end := b.Label(), b.Label()
	b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(0), rest)
	wg0()
	b.Jmp(end)
	b.Bind(rest)
	others()
	b.Bind(end)
}

// producerConsumer returns the body where WG 0 computes for work cycles and
// then sets flag to 1, while every other WG waits for flag == 1.
func producerConsumer(flag mem.Addr, work int64) func(b *prog.Builder) {
	return func(b *prog.Builder) {
		v := b.GVar(uint64(flag))
		ifWG0(b, func() {
			b.Compute(prog.Imm(work))
			b.AtomicStore(v, prog.Imm(1))
		}, func() {
			b.AwaitEq(v, prog.Imm(1))
		})
	}
}

// repeat emits a loop that runs body n times; i counts iterations from 0.
func repeat(b *prog.Builder, n int64, body func(i prog.Src)) {
	i := b.Let(prog.Imm(0))
	end := b.Label()
	top := b.Here()
	b.Br(prog.GE, i, prog.Imm(n), end)
	body(i)
	b.ArithTo(prog.OpAdd, i, i, prog.Imm(1))
	b.Jmp(top)
	b.Bind(end)
}

// countBarrier emits `if AtomicAdd(v, 1)+1 != target { AwaitGE(v, target) }`.
func countBarrier(b *prog.Builder, v prog.Mem, target prog.Src) {
	skip := b.Label()
	old := b.AtomicAdd(v, prog.Imm(1))
	b.Br(prog.EQ, b.Add(old, prog.Imm(1)), target, skip)
	b.AwaitGE(v, target)
	b.Bind(skip)
}

// resultWord is the address of WG id's result word in a table at base, one
// cache line per WG.
func resultWord(base mem.Addr, id int) mem.Addr { return base + mem.Addr(64*id) }

// wgWord returns the memory operand of the executing WG's word in a
// table of n result words at base (see resultWord).
func wgWord(b *prog.Builder, base mem.Addr, n int) prog.Mem {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(resultWord(base, i))
	}
	first := b.AddrRange(addrs)
	return prog.At(b.Add(prog.Imm(first), b.Geom(prog.GeomID)), prog.Global)
}

// switchWG emits one branch per WG ID in [0, n): the executing WG runs
// body(id) for its own ID, so body can unroll a per-WG plan at build time.
func switchWG(b *prog.Builder, n int, body func(id int)) {
	end := b.Label()
	for id := 0; id < n; id++ {
		next := b.Label()
		b.Br(prog.NE, b.Geom(prog.GeomID), prog.Imm(int64(id)), next)
		body(id)
		b.Jmp(end)
		b.Bind(next)
	}
	b.Bind(end)
}
