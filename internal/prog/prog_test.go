package prog

import (
	"strings"
	"testing"
)

// TestBuilderLoop assembles the canonical bounded loop — i from 0 to 4,
// fetch-adding into a counter — and checks the pieces the interpreter
// depends on: forward labels patched to real targets, addresses interned,
// and the register count covering every allocated register.
func TestBuilderLoop(t *testing.T) {
	b := NewBuilder()
	ctr := b.GVar(0x100)
	i := b.Let(Imm(0))
	top := b.Here()
	b.AtomicAddX(ctr, Imm(1))
	b.ArithTo(OpAdd, i, i, Imm(1))
	b.Br(LT, i, Imm(4), top)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.NumRegs < 1 {
		t.Fatalf("NumRegs = %d, want >= 1", p.NumRegs)
	}
	if len(p.Pool) != 1 || p.Pool[0] != 0x100 {
		t.Fatalf("Pool = %v, want [0x100]", p.Pool)
	}
	br := p.Code[len(p.Code)-1]
	if br.Kind != OpBr {
		t.Fatalf("last op = %s, want br", br.Kind)
	}
	// The loop head is the op after the initial mov.
	if int(br.Target) != 1 {
		t.Fatalf("branch target = %d, want 1", br.Target)
	}
	if p.Ops() != len(p.Code) {
		t.Fatalf("Ops() = %d, want %d", p.Ops(), len(p.Code))
	}
}

func TestAddrInterning(t *testing.T) {
	b := NewBuilder()
	a1 := b.Addr(0x40)
	a2 := b.Addr(0x48)
	a3 := b.Addr(0x40)
	if a1 != a3 {
		t.Fatalf("same address interned twice: %v vs %v", a1, a3)
	}
	if a1 == a2 {
		t.Fatalf("distinct addresses share pool index %v", a1)
	}
	base := b.AddrRange([]uint64{0x40, 0x50})
	// AddrRange must append contiguously without interning, even when an
	// address is already pooled: register-computed indexing needs the
	// table laid out exactly as given.
	if base != 2 {
		t.Fatalf("AddrRange base = %d, want 2", base)
	}
	if len(b.pool) != 4 || b.pool[2] != 0x40 || b.pool[3] != 0x50 {
		t.Fatalf("pool after AddrRange = %#x", b.pool)
	}
}

func TestBuildUnboundLabel(t *testing.T) {
	b := NewBuilder()
	l := b.Label()
	b.Jmp(l)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "never bound") {
		t.Fatalf("Build with unbound label: err = %v", err)
	}
}

func TestBindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Bind did not panic")
		}
	}()
	b := NewBuilder()
	l := b.Label()
	b.Bind(l)
	b.Bind(l)
}

// TestValidateErrors drives Validate through each static check.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    Program
		want string
	}{
		{"too many registers", Program{NumRegs: maxRegs + 1}, "registers"},
		{"negative registers", Program{NumRegs: -1}, "registers"},
		{"unknown kind", Program{Code: []Op{{Kind: opCount, Dst: -1}}}, "unknown kind"},
		{"source register out of range",
			Program{NumRegs: 1, Code: []Op{{Kind: OpMov, Dst: 0, A: R(3)}}}, "reads r3"},
		{"dst out of range",
			Program{NumRegs: 1, Code: []Op{{Kind: OpAdd, Dst: 4, A: Imm(1), B: Imm(2)}}}, "writes r4"},
		{"missing dst",
			Program{NumRegs: 1, Code: []Op{{Kind: OpMov, Dst: -1, A: Imm(0)}}}, "writes r-1"},
		{"dst on value-less op",
			Program{NumRegs: 1, Pool: []uint64{8}, Code: []Op{{Kind: OpStore, Dst: 0, A: Imm(0), B: Imm(1)}}},
			"returns nothing"},
		{"device dst out of range",
			Program{NumRegs: 1, Pool: []uint64{8}, Code: []Op{{Kind: OpLoad, Dst: 2, A: Imm(0)}}}, "writes r2"},
		{"static pool index out of range",
			Program{NumRegs: 1, Code: []Op{{Kind: OpLoad, Dst: -1, A: Imm(0)}}}, "pool has 0"},
		{"branch target out of range",
			Program{Code: []Op{{Kind: OpJmp, Dst: -1, Target: 5}}}, "branches to 5"},
		{"negative branch target",
			Program{Code: []Op{{Kind: OpJmp, Dst: -1, Target: -1}}}, "branches to -1"},
		{"unknown comparison",
			Program{Code: []Op{{Kind: OpBr, Dst: -1, Cmp: GE + 1, A: Imm(0), B: Imm(0)}}}, "comparison"},
		{"unknown geometry selector",
			Program{NumRegs: 1, Code: []Op{{Kind: OpGeom, Dst: 0, Geom: geomCount}}}, "geometry"},
		{"unknown scope",
			Program{Pool: []uint64{8}, Code: []Op{{Kind: OpStore, Dst: -1, A: Imm(0), B: Imm(0), C: Imm(0), Scope: Local + 1}}},
			"scope"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateAccepts pins the legal corners: a branch target of len(Code)
// (fall off the end), a discarded device return, and a register-valued pool
// index that cannot be checked statically.
func TestValidateAccepts(t *testing.T) {
	p := Program{
		NumRegs: 2,
		Pool:    []uint64{8, 16},
		Code: []Op{
			{Kind: OpMov, Dst: 0, A: Imm(1)},
			{Kind: OpBr, Dst: -1, Cmp: EQ, A: R(0), B: Imm(1), Target: 3},
			{Kind: OpAtomicAdd, Dst: -1, A: R(0), B: Imm(1)}, // dynamic pool index, discarded return
			{Kind: OpJmp, Dst: -1, Target: 4},                // == len(Code): program end
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateIgnoresUnusedOperands pins that operands an op kind does not
// read are not validated: the builder leaves them as the zero Src, which
// names r0, so a program without registers must still build. An operand a
// kind does read is still checked.
func TestValidateIgnoresUnusedOperands(t *testing.T) {
	b := NewBuilder()
	v := b.GVar(0x40)
	b.AtomicAddX(v, Imm(1))
	b.AtomicStore(v, Imm(2))
	b.AwaitGE(v, Imm(2))
	b.AcquireExch(v, Imm(1), Imm(2), false)
	if _, err := b.Build(); err != nil {
		t.Fatalf("register-free program rejected: %v", err)
	}
	p := Program{Pool: []uint64{8}, Code: []Op{{Kind: OpAtomicCAS, Dst: -1, A: Imm(0), B: Imm(0), C: R(0)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("CAS swap operand naming a missing register accepted")
	}
}

func TestCmpTest(t *testing.T) {
	cases := []struct {
		c       Cmp
		a, b    int64
		want    bool
		wantStr string
	}{
		{EQ, 3, 3, true, "=="},
		{NE, 3, 3, false, "!="},
		{LT, 2, 3, true, "<"},
		{LE, 3, 3, true, "<="},
		{GT, 3, 3, false, ">"},
		{GE, 4, 3, true, ">="},
	}
	for _, tc := range cases {
		if got := tc.c.Test(tc.a, tc.b); got != tc.want {
			t.Errorf("%d %s %d = %v, want %v", tc.a, tc.c, tc.b, got, tc.want)
		}
		if tc.c.String() != tc.wantStr {
			t.Errorf("Cmp(%d).String() = %q, want %q", tc.c, tc.c, tc.wantStr)
		}
	}
}

func TestOpKindClassification(t *testing.T) {
	for k := OpKind(0); k < opCount; k++ {
		if strings.HasPrefix(k.String(), "op(") {
			t.Errorf("OpKind %d has no name", k)
		}
		wantDevice := k >= OpCompute
		if k.IsDevice() != wantDevice {
			t.Errorf("%s.IsDevice() = %v, want %v", k, k.IsDevice(), wantDevice)
		}
	}
	if opCount.String() != "op(22)" {
		t.Errorf("out-of-range String() = %q", opCount.String())
	}
}
