// Package lint is the project's static-analysis layer: two analyzers
// that enforce the serving stack's metrics and lifecycle invariants —
// conventions the compiler cannot see and that have each produced (or
// nearly produced) a real bug:
//
//   - metricname: metric registrations use compile-time-constant names
//     matching ^jag_[a-z0-9_]+$ with literal label keys, and a
//     name registered under two kinds — a runtime panic today — is a
//     build-time report.
//   - ctxflow: a function that receives a context.Context must not
//     manufacture context.Background()/TODO() or drop its ctx when
//     calling a context-taking API.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone — go/ast, go/types, and export data from the build cache — so
// the module stays dependency-free. cmd/jaglint is the multichecker
// driver; docs/STATIC_ANALYSIS.md is the operator-facing reference.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, the unit cmd/jaglint runs and
// linttest.Run tests.
type Analyzer struct {
	// Name identifies the analyzer in reports and lint:ignore comments.
	Name string
	// Doc is the one-paragraph invariant statement.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding: a position and a message, attributed to
// the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the go-vet-style "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreRe matches suppression comments:
//
//	// lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A suppression applies to findings on its own line (trailing comment)
// and on the line directly below (standalone comment above the code).
// The reason is mandatory: a bare lint:ignore suppresses nothing.
var ignoreRe = regexp.MustCompile(`lint:ignore\s+([a-z0-9_,]+)\s+\S`)

// suppressions maps file -> line -> set of suppressed analyzer names
// ("all" suppresses every analyzer).
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans every comment of the files for lint:ignore
// directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(file string, line int, names []string) {
		byLine, ok := sup[file]
		if !ok {
			byLine = map[int]map[string]bool{}
			sup[file] = byLine
		}
		for _, l := range []int{line, line + 1} {
			set, ok := byLine[l]
			if !ok {
				set = map[string]bool{}
				byLine[l] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, strings.Split(m[1], ","))
			}
		}
	}
	return sup
}

// suppressed reports whether a finding by analyzer at pos is covered by
// a lint:ignore comment.
func (s suppressions) suppressed(d Diagnostic) bool {
	set := s[d.Pos.Filename][d.Pos.Line]
	return set != nil && (set[d.Analyzer] || set["all"])
}

// RunAnalyzers runs every analyzer over the package, filters findings
// through the package's lint:ignore comments, and returns them sorted
// by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range pass.diags {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// All returns the project's analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		MetricName,
		CtxFlow,
	}
}

// --- shared AST/type helpers -------------------------------------------

// namedTypeName returns the name of t's core named type, unwrapping
// pointers and aliases; "" when t has no name.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	if a, ok := t.(*types.Alias); ok {
		return a.Obj().Name()
	}
	return ""
}

// calleeFunc resolves the called function or method object of a call,
// or nil for indirect calls and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isPkgFunc reports whether the call invokes a function from the given
// package path (matched on path suffix so vendored and test-stub
// packages qualify) with one of the given names.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != pkgPath && !strings.HasSuffix(p, "/"+pkgPath) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
