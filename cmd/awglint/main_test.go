package main

import (
	"go/types"
	"strings"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/analyzers/fpcover"
	"awgsim/internal/lint/analyzers/hotpathalloc"
	"awgsim/internal/lint/analyzers/hotpathmap"
	"awgsim/internal/lint/analyzers/replaypure"
	"awgsim/internal/lint/analyzers/waiterhome"
	"awgsim/internal/lint/load"
)

// TestRuleTargetsResolve loads the real module and checks that every
// declaration an analyzer's rule table names by string exists: the package,
// the type or function, and the field or method. The analyzers match these
// names silently, so a rename that leaves a table entry pointing at nothing
// would switch that part of the rule off without a single finding.
func TestRuleTargetsResolve(t *testing.T) {
	pkgs, err := load.Load("", "awgsim/internal/...")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string][]analysis.Target{
		"waiterhome":   waiterhome.Targets(),
		"hotpathmap":   hotpathmap.Targets(),
		"hotpathalloc": hotpathalloc.Targets(),
		"fpcover":      fpcover.Targets(),
		"replaypure":   replaypure.Targets(),
	}
	for name, targets := range tables {
		if len(targets) == 0 {
			t.Errorf("%s: empty target table", name)
		}
		for _, tg := range targets {
			if !resolves(pkgs, tg) {
				t.Errorf("%s: rule names %s, which the module does not declare", name, tg)
			}
		}
	}
}

// resolves reports whether some package whose path ends in tg.PkgSuffix
// declares tg.Name (a package-level object, or a method of one of the
// package's named types) and, when set, tg.Member as a field or method of
// the type tg.Name.
func resolves(pkgs []*load.Package, tg analysis.Target) bool {
	for _, p := range pkgs {
		if !strings.HasSuffix(p.PkgPath, tg.PkgSuffix) {
			continue
		}
		if tg.Name == "" {
			return true
		}
		scope := p.Types.Scope()
		obj := scope.Lookup(tg.Name)
		if tg.Member != "" {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.Types, tg.Member); m != nil {
				return true
			}
			continue
		}
		if obj != nil {
			return true
		}
		for _, n := range scope.Names() {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, p.Types, tg.Name); m != nil {
				if _, isFunc := m.(*types.Func); isFunc {
					return true
				}
			}
		}
	}
	return false
}
