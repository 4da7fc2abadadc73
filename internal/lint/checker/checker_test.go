package checker

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/analyzers/simdeterminism"
)

// TestDirectives runs the real simdeterminism analyzer over the directive
// testdata: valid directives suppress (same line and line above), while an
// unknown analyzer name or a missing reason is itself a finding and leaves
// the diagnostic unsuppressed.
func TestDirectives(t *testing.T) {
	findings, err := Run("", []string{"./testdata/src/dirs"},
		[]*analysis.Analyzer{simdeterminism.Analyzer}, false)
	if err != nil {
		t.Fatal(err)
	}
	type fkey struct {
		line     int
		analyzer string
	}
	got := map[fkey]string{}
	for _, f := range findings {
		k := fkey{f.Position.Line, f.Analyzer}
		if _, dup := got[k]; dup {
			t.Errorf("duplicate finding for %+v", k)
		}
		got[k] = f.Message
	}
	wants := []struct {
		line     int
		analyzer string
		contains string
	}{
		{13, "lintdirective", `unknown analyzer "nosuchanalyzer"`},
		{13, "simdeterminism", "wall-clock read"}, // invalid directive suppresses nothing
		{15, "lintdirective", "needs a reason"},
		{15, "simdeterminism", "wall-clock read"},
		{17, "simdeterminism", "wall-clock read"}, // no directive at all
		// Lines 21-22 (inside the multi-line initializer under a directive)
		// must be suppressed: the directive spans the statement's extent.
		{27, "simdeterminism", "wall-clock read"}, // blank line breaks directive adjacency
	}
	for _, w := range wants {
		msg, ok := got[fkey{w.line, w.analyzer}]
		if !ok {
			t.Errorf("line %d: missing %s finding", w.line, w.analyzer)
			continue
		}
		if !strings.Contains(msg, w.contains) {
			t.Errorf("line %d %s: message %q does not contain %q", w.line, w.analyzer, msg, w.contains)
		}
		delete(got, fkey{w.line, w.analyzer})
	}
	for k, msg := range got {
		t.Errorf("unexpected finding at line %d (%s): %s", k.line, k.analyzer, msg)
	}
}

// TestApplyFixes applies a suggested fix through the same path `awglint
// -fix` uses and checks the file rewrite.
func TestApplyFixes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.go")
	src := "package f\n\nfunc g() { schedule(0) }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	file.SetLinesForContent([]byte(src))
	off := strings.Index(src, "0")
	pos := file.Pos(off)
	end := file.Pos(off + 1)
	f := Finding{
		Position: fset.Position(pos),
		Analyzer: "example",
		Fset:     fset,
		Diag: analysis.Diagnostic{
			Pos: pos, End: end,
			Message: "constant zero delay",
			SuggestedFixes: []analysis.SuggestedFix{{
				Message:   "use one cycle",
				TextEdits: []analysis.TextEdit{{Pos: pos, End: end, NewText: []byte("1")}},
			}},
		},
	}
	if err := applyFixes([]Finding{f}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "package f\n\nfunc g() { schedule(1) }\n"
	if string(got) != want {
		t.Errorf("after fix:\n%s\nwant:\n%s", got, want)
	}
}
