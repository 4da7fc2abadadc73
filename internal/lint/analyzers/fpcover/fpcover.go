// Package fpcover closes the run-cache dedup-unsoundness hole statically:
// every sim.Config field that reachable simulation code reads must be
// folded into the canonical fingerprint, or two semantically different
// configurations could share a cache entry.
//
// The analyzer finds the Config type and the fingerprint function in the
// package whose import path ends in "/sim", takes the fingerprint's
// interprocedural read set over Config fields, and exports it as a package
// fact. Every package (the sim package itself included) is then scanned
// for value reads of Config fields absent from that set; each such read is
// reported at its site. Unlike the reflect guard — which pins the field
// *list* — this check pins field *use*: a new field consulted anywhere in
// reachable code without a fingerprint entry fails `make lint` at the
// offending read.
package fpcover

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/interproc"
)

// Analyzer is the fpcover entry point.
var Analyzer = &analysis.Analyzer{
	Name: "fpcover",
	Doc: "every sim.Config field read by simulation code must be fingerprinted\n\n" +
		"The fingerprint function's interprocedural read set flows to importing\n" +
		"packages as a fact; reads of unfingerprinted Config fields are reported\n" +
		"at the read site.",
	Requires:  []*analysis.Analyzer{interproc.Analyzer},
	FactBased: true,
	Run:       run,
}

// Fact is the exported fingerprint read set of one /sim package.
type Fact struct {
	ConfigPkg string          // package path declaring Config
	Read      map[string]bool // Config fields the fingerprint consumes
}

// Targets lists the declarations the analyzer finds by name: the session
// Config and its fingerprint function.
func Targets() []analysis.Target {
	return []analysis.Target{
		{PkgSuffix: "/sim", Name: "Config"},
		{PkgSuffix: "/sim", Name: "fingerprint"},
	}
}

func run(pass *analysis.Pass) (any, error) {
	r := pass.ResultOf[interproc.Analyzer].(*interproc.Result)
	pkgPath := pass.Pkg.Path()

	var facts []*Fact
	if strings.HasSuffix(pkgPath, "/sim") || pkgPath == "sim" {
		if f := computeFact(pass, r); f != nil {
			pass.ExportPackageFact(f)
			facts = append(facts, f)
		}
	}
	for _, imp := range pass.Pkg.Imports() {
		if v, ok := pass.ImportPackageFact(imp.Path()); ok {
			if f, ok := v.(*Fact); ok {
				facts = append(facts, f)
			}
		}
	}
	if len(facts) == 0 {
		return nil, nil
	}

	for _, file := range pass.Files {
		checkFile(pass, file, facts)
	}
	return nil, nil
}

// computeFact derives the fingerprint's Config read set from its summary.
func computeFact(pass *analysis.Pass, r *interproc.Result) *Fact {
	scope := pass.Pkg.Scope()
	tn, ok := scope.Lookup("Config").(*types.TypeName)
	if !ok {
		return nil
	}
	if _, isStruct := tn.Type().Underlying().(*types.Struct); !isStruct {
		return nil
	}
	fp, ok := scope.Lookup("fingerprint").(*types.Func)
	if !ok {
		return nil
	}
	sum := r.SummaryOf(fp)
	if sum == nil {
		return nil
	}
	f := &Fact{ConfigPkg: pass.Pkg.Path(), Read: map[string]bool{}}
	for fk := range sum.Reads {
		if fk.Pkg == f.ConfigPkg && fk.Type == "Config" {
			f.Read[fk.Field] = true
		}
	}
	return f
}

// checkFile reports value reads of unfingerprinted Config fields. Pure
// assignment targets are excluded: storing into a Config field (builders,
// flag parsing) does not consult its value.
func checkFile(pass *analysis.Pass, file *ast.File, facts []*Fact) {
	info := pass.TypesInfo

	// Selectors that are plain assignment targets (after peeling parens,
	// indexing, and derefs) are writes, not reads.
	writeOnly := map[*ast.SelectorExpr]bool{}
	markLHS := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				if sel, ok := e.(*ast.SelectorExpr); ok {
					writeOnly[sel] = true
				}
				return
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				markLHS(lhs)
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		if writeOnly[sel] {
			return true
		}
		fk, ok := interproc.FieldOf(selection)
		if !ok {
			return true
		}
		for _, f := range facts {
			if fk.Pkg == f.ConfigPkg && fk.Type == "Config" && !f.Read[fk.Field] {
				pass.Reportf(sel.Sel.Pos(),
					"Config field %s is read by simulation code but absent from the run-cache fingerprint (%s); add it to fingerprint() or the cache will conflate differing runs",
					fk.Field, f.ConfigPkg)
			}
		}
		return true
	})
}
