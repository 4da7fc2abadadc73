package litmus

import (
	"fmt"
	"strings"
	"testing"

	"awgsim/internal/kernels"
)

// fmtEncode is the fmt-based rendering of a pattern name, kept as the
// oracle for kernels.Litmus.Encode's byte-buffer form.
func fmtEncode(l kernels.Litmus) string {
	var b strings.Builder
	b.WriteString(kernels.LitmusPrefix)
	for wi, prog := range l.Progs {
		if wi > 0 {
			b.WriteByte(';')
		}
		for i, op := range prog {
			if i > 0 {
				b.WriteByte(',')
			}
			switch op.Kind {
			case kernels.LitmusAdd:
				fmt.Fprintf(&b, "a%d", op.Var)
			case kernels.LitmusSet:
				fmt.Fprintf(&b, "s%d.%d", op.Var, op.Val)
			case kernels.LitmusWaitGE:
				fmt.Fprintf(&b, "g%d.%d", op.Var, op.Val)
			case kernels.LitmusWaitEq:
				fmt.Fprintf(&b, "e%d.%d", op.Var, op.Val)
			case kernels.LitmusWork:
				fmt.Fprintf(&b, "c%d", op.Val)
			}
		}
	}
	return b.String()
}

// TestEncodeMatchesFmtForm: Encode is byte-identical to the fmt rendering
// over a generated corpus plus hand-made edge cases (empty programs, an
// empty pattern, negative and extreme values), so every run-cache
// fingerprint and benchmark name is unchanged.
func TestEncodeMatchesFmtForm(t *testing.T) {
	pats := Generate(1, 2000)
	pats = append(pats,
		kernels.Litmus{},
		kernels.Litmus{Progs: [][]kernels.LitmusOp{nil, nil}},
		kernels.Litmus{Progs: [][]kernels.LitmusOp{{
			{Kind: kernels.LitmusSet, Var: 255, Val: -9223372036854775808},
			{Kind: kernels.LitmusWaitEq, Var: 0, Val: 9223372036854775807},
			{Kind: kernels.LitmusWork, Val: -1},
			{Kind: kernels.LitmusAdd, Var: -3},
		}}},
	)
	for i, l := range pats {
		if got, want := l.Encode(), fmtEncode(l); got != want {
			t.Fatalf("pattern %d: Encode = %q, fmt form %q", i, got, want)
		}
	}
}
