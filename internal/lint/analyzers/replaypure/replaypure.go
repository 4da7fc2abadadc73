// Package replaypure statically audits the rewind/replay window: every
// event callback re-executes during trace replay, so a callback that
// writes state the Snapshot/Restore pair does not cover — or that emits
// external effects (Engine.Stop, printed output) — observably diverges a
// replayed run from the original unless the effect is gated on the
// machine's replaying flag.
//
// Scope: packages declaring a struct with both a snapshot/restore pair and
// a `replaying` field. Roots are the callbacks handed to the event
// engine's scheduling methods (function literals, local closure variables,
// declared functions). The traversal is gate-aware — any `if` whose
// condition consults the replaying field exempts its branches — and
// descends into package-local callees, skipping the snapshot machinery
// itself and the functions that toggle the replaying flag. Ungated writes
// to uncovered fields get a mechanical SuggestedFix wrapping the statement
// in `if !<recv>.replaying { ... }`, which `awglint -fix` (make lint-fix)
// applies.
package replaypure

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/types"
	"sort"
	"strings"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/interproc"
)

// Analyzer is the replaypure entry point.
var Analyzer = &analysis.Analyzer{
	Name: "replaypure",
	Doc: "effects in the replay window must be gated on the replaying flag\n\n" +
		"Writes to non-snapshot-covered fields and external effects (Engine.Stop,\n" +
		"fmt/log output) reachable from scheduled event callbacks are reported\n" +
		"unless guarded by a condition consulting the machine's replaying field.",
	Requires: []*analysis.Analyzer{interproc.Analyzer},
	Run:      run,
}

// Targets lists the declarations the analyzer finds by name: the replay
// flag and transfer pair of the machine it guards, and Engine.Stop.
func Targets() []analysis.Target {
	return []analysis.Target{
		{PkgSuffix: "/gpu", Name: "Machine", Member: "replaying"},
		{PkgSuffix: "/gpu", Name: "Machine", Member: "Snapshot"},
		{PkgSuffix: "/gpu", Name: "Machine", Member: "Restore"},
		{PkgSuffix: "/event", Name: "Engine", Member: "Stop"},
	}
}

func run(pass *analysis.Pass) (any, error) {
	r := pass.ResultOf[interproc.Analyzer].(*interproc.Result)
	pkgPath := pass.Pkg.Path()

	scope := pass.Pkg.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !hasField(st, "replaying") {
			continue
		}
		snap, rest := interproc.SnapshotPair(named)
		if snap == nil || rest == nil {
			continue
		}
		check(pass, r, pkgPath, named, snap, rest)
	}
	return nil, nil
}

func hasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// check audits one machine type's replay window.
func check(pass *analysis.Pass, r *interproc.Result, pkgPath string, machine *types.Named, snap, rest *types.Func) {
	mName := machine.Obj().Name()
	replayingKey := interproc.FieldKey{Pkg: pkgPath, Type: mName, Field: "replaying"}

	// State the pair round-trips: writes to these fields during replay are
	// undone by the restore that follows, so they are not divergence.
	covered := map[interproc.FieldKey]bool{}
	snapTypes := map[string]bool{mName: true}
	for _, s := range []*interproc.Summary{r.SummaryOf(snap), r.SummaryOf(rest)} {
		if s == nil {
			continue
		}
		for fk := range s.Reads {
			covered[fk] = true
			snapTypes[fk.Type] = true
		}
		for fk := range s.Writes {
			covered[fk] = true
			snapTypes[fk.Type] = true
		}
	}

	// Exempt: the snapshot machinery itself and the replay driver (any
	// function writing the replaying flag, e.g. replayTrace).
	exempt := map[interproc.FuncKey]bool{
		interproc.Key(snap): true,
		interproc.Key(rest): true,
	}
	for _, s := range []*interproc.Summary{r.SummaryOf(snap), r.SummaryOf(rest)} {
		if s == nil {
			continue
		}
		for k := range s.Calls {
			exempt[k] = true
		}
	}
	for _, k := range r.MutWrites[replayingKey] {
		exempt[k] = true
	}
	for _, obj := range r.Order {
		if s := r.SummaryOf(obj); s != nil && s.Writes[replayingKey] {
			exempt[r.Keys[obj]] = true
		}
	}

	w := &walker{
		pass:         pass,
		r:            r,
		pkgPath:      pkgPath,
		machine:      machine,
		replayingKey: replayingKey,
		covered:      covered,
		snapTypes:    snapTypes,
		exempt:       exempt,
		visited:      map[ast.Node]bool{},
	}

	// Roots: every callback handed to an engine scheduling call anywhere in
	// the package — all of them re-execute inside the replay window.
	for _, obj := range r.Order {
		fd := r.Decls[obj]
		if fd == nil || exempt[r.Keys[obj]] {
			continue
		}
		// Closure variables bound to function literals in this function,
		// for the hoisted `tick`-style scheduling idiom.
		litOf := map[types.Object]*ast.FuncLit{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					var o types.Object = pass.TypesInfo.Defs[id]
					if o == nil {
						o = pass.TypesInfo.Uses[id]
					}
					if o != nil {
						litOf[o] = lit
					}
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := interproc.EngineSchedCall(pass.TypesInfo, call); !ok {
				return true
			}
			for _, arg := range call.Args {
				w.enterRoot(arg, litOf)
			}
			return true
		})
	}
}

// walker traverses replay-window code, honoring replaying gates.
type walker struct {
	pass         *analysis.Pass
	r            *interproc.Result
	pkgPath      string
	machine      *types.Named
	replayingKey interproc.FieldKey
	covered      map[interproc.FieldKey]bool
	snapTypes    map[string]bool
	exempt       map[interproc.FuncKey]bool
	visited      map[ast.Node]bool
}

// enterRoot resolves one scheduling-call argument to a body and walks it.
func (w *walker) enterRoot(arg ast.Expr, litOf map[types.Object]*ast.FuncLit) {
	switch a := arg.(type) {
	case *ast.FuncLit:
		w.walkBody(a.Body)
	case *ast.Ident:
		if o := w.pass.TypesInfo.Uses[a]; o != nil {
			if lit, ok := litOf[o]; ok {
				w.walkBody(lit.Body)
				return
			}
			if f, ok := o.(*types.Func); ok {
				w.walkCallee(f)
			}
		}
	case *ast.SelectorExpr:
		// Method value: m.step passed as a callback.
		if f, ok := w.pass.TypesInfo.Uses[a.Sel].(*types.Func); ok {
			w.walkCallee(f)
		}
	}
}

// walkCallee walks a package-local function's body unless exempt.
func (w *walker) walkCallee(f *types.Func) {
	f = f.Origin()
	if f.Pkg() == nil || f.Pkg().Path() != w.pkgPath {
		return
	}
	if w.exempt[interproc.Key(f)] {
		return
	}
	fd := w.r.Decls[f]
	if fd == nil {
		return
	}
	w.walkBody(fd.Body)
}

// walkBody inspects one body, skipping replaying-gated regions, reporting
// ungated effects, and descending into package-local callees.
func (w *walker) walkBody(body *ast.BlockStmt) {
	if body == nil || w.visited[body] {
		return
	}
	w.visited[body] = true
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			if w.mentionsReplaying(x.Cond) {
				// The author already branched on the replay flag: both arms
				// are deliberate replay-window behavior.
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				w.checkWrite(lhs, x)
			}
		case *ast.IncDecStmt:
			w.checkWrite(x.X, x)
		case *ast.CallExpr:
			w.checkCall(x)
		}
		return true
	})
}

// mentionsReplaying reports whether an expression consults the machine's
// replaying field.
func (w *walker) mentionsReplaying(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if selection, ok := w.pass.TypesInfo.Selections[sel]; ok && selection.Kind() == types.FieldVal {
			if fk, ok := interproc.FieldOf(selection); ok && fk == w.replayingKey {
				found = true
			}
		}
		return true
	})
	return found
}

// checkWrite reports an ungated write to a non-snapshot-covered field of a
// snapshot-managed type, with a mechanical gating fix.
func (w *walker) checkWrite(lhs ast.Expr, stmt ast.Stmt) {
	base := lhs
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		default:
			goto resolved
		}
	}
resolved:
	sel, ok := base.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fk, ok := interproc.FieldOf(selection)
	if !ok {
		return
	}
	if fk.Pkg != w.pkgPath || !w.snapTypes[fk.Type] || w.covered[fk] || fk == w.replayingKey {
		return
	}
	d := analysis.Diagnostic{
		Pos: stmt.Pos(),
		End: stmt.End(),
		Message: fmt.Sprintf(
			"write to %s.%s (not snapshot-covered) in the replay window; gate it on the replaying flag or cover the field",
			fk.Type, fk.Field),
	}
	if fix, ok := w.gateFix(sel, stmt); ok {
		d.SuggestedFixes = []analysis.SuggestedFix{fix}
	}
	w.pass.Report(d)
}

// gateFix wraps the offending statement in `if !<recv>.replaying { ... }`
// when the selector's root expression is the machine value itself.
func (w *walker) gateFix(sel *ast.SelectorExpr, stmt ast.Stmt) (analysis.SuggestedFix, bool) {
	root := ast.Expr(sel)
	for {
		if s, ok := root.(*ast.SelectorExpr); ok {
			root = s.X
			continue
		}
		if p, ok := root.(*ast.ParenExpr); ok {
			root = p.X
			continue
		}
		break
	}
	t := w.pass.TypesInfo.TypeOf(root)
	if t == nil {
		return analysis.SuggestedFix{}, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.Obj() != w.machine.Obj() {
		return analysis.SuggestedFix{}, false
	}
	var recv, orig bytes.Buffer
	if err := printer.Fprint(&recv, w.pass.Fset, root); err != nil {
		return analysis.SuggestedFix{}, false
	}
	if err := printer.Fprint(&orig, w.pass.Fset, stmt); err != nil {
		return analysis.SuggestedFix{}, false
	}
	return analysis.SuggestedFix{
		Message: fmt.Sprintf("gate on !%s.replaying", recv.String()),
		TextEdits: []analysis.TextEdit{{
			Pos:     stmt.Pos(),
			End:     stmt.End(),
			NewText: []byte(fmt.Sprintf("if !%s.replaying {\n%s\n}", recv.String(), orig.String())),
		}},
	}, true
}

// checkCall reports external effects and descends into local callees.
func (w *walker) checkCall(call *ast.CallExpr) {
	info := w.pass.TypesInfo
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if isEngineStop(f) {
				w.pass.Reportf(call.Pos(),
					"Engine.Stop in the replay window; gate it on the replaying flag (a replayed run must not halt the engine differently from the original)")
				return
			}
			if pkg := f.Pkg(); pkg != nil {
				switch pkg.Path() {
				case "fmt":
					if strings.HasPrefix(f.Name(), "Print") {
						w.pass.Reportf(call.Pos(),
							"fmt.%s in the replay window; gate it on the replaying flag (replay would duplicate the output)", f.Name())
						return
					}
				case "log":
					w.pass.Reportf(call.Pos(),
						"log.%s in the replay window; gate it on the replaying flag (replay would duplicate the output)", f.Name())
					return
				}
			}
		}
	}
	if f := staticCallee(info, call); f != nil {
		w.walkCallee(f)
	}
}

func isEngineStop(f *types.Func) bool {
	if f.Name() != "Stop" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Engine" || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "event")
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
