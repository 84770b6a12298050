package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
)

// Three conventions go vet cannot see — contexts flow, metric families are
// jag_ snake case, every exported name has a caller — held as tests
// (docs/STATIC_ANALYSIS.md).

// ctxMints returns the position of each context.Background() or
// context.TODO() call inside a function (declared or literal) that has a
// context.Context parameter: that function already holds a request's
// cancellation chain, and a fresh root context cuts it. Functions
// without one — main, tests, convenience wrappers — are roots and may
// mint. A nested literal is part of its enclosing function's body.
func ctxMints(fset *token.FileSet, f *ast.File) []token.Position {
	pkg := "" // the file's name for "context"; "" matches no identifier
	for _, imp := range f.Imports {
		if imp.Path.Value == `"context"` {
			pkg = "context"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	isCtx := func(e ast.Expr, names ...string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name)
	}
	var found []token.Position
	ast.Inspect(f, func(n ast.Node) bool {
		var ftype *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ftype, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ftype, body = fn.Type, fn.Body
		}
		if body == nil || !slices.ContainsFunc(ftype.Params.List, func(p *ast.Field) bool { return isCtx(p.Type, "Context") }) {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isCtx(call.Fun, "Background", "TODO") {
				found = append(found, fset.Position(call.Pos()))
			}
			return true
		})
		return false
	})
	return found
}

// moduleFiles parses every non-test Go file of the module outside
// testdata/ and dot directories, in walk order.
func moduleFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Logf("scanned %d files", len(files)); len(files) < 50 {
		t.Fatalf("scanned only %d files — the walk lost the module?", len(files))
	}
	return fset, files
}

// TestSuiteCleanOnRepo runs go vet over the module — go test runs only a
// subset of vet that leaves copylocks out, and copylocks is what catches
// a copied metrics.Histogram or serve.Stats — and checks every non-test
// Go file outside testdata/ for a context minted where a ctx was at hand.
func TestSuiteCleanOnRepo(t *testing.T) {
	if !testing.Short() {
		if out, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
			t.Errorf("go vet ./...: %v\n%s", err, out)
		}
	}
	fset, files := moduleFiles(t)
	for _, f := range files {
		for _, pos := range ctxMints(fset, f) {
			t.Errorf("%s: context minted inside a function that receives a ctx — pass the ctx, or derive from it", pos)
		}
	}
}

// exemptNames are exported names under internal/ that may go without a
// non-test use, each with its reason. A key is pkg.Name, or pkg.Type.Member
// for a method or field. An entry the check no longer reports fails it.
var exemptNames = map[string]string{
	"comm.Comm.AllreduceSumNaive": "the reference the ring allreduce is tested and timed against",
	"tensor.Matrix.Equal":         "an assertion helper the tests of many packages share",
	"tensor.Matrix.ApproxEqual":   "an assertion helper the tests of many packages share",
	"ltfb.MetricEval":             "the zero Metric: a Config that sets none gets it",
}

// stdInterfaces are the standard interfaces through which the standard
// library calls the module's methods; a method that implements one counts
// as used. An interface the module's own code calls through — its own, or
// a standard one such as http.Flusher — is found from those calls.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"net/http", "Handler"},
	{"net/http", "ResponseWriter"},
	{"net/http", "RoundTripper"},
	{"encoding/json", "Unmarshaler"},
	{"container/heap", "Interface"},
	{"sort", "Interface"},
}

// typedPackage is one type-checked non-test package of the module.
type typedPackage struct {
	*types.Package
	files []*ast.File
}

// typedModule type-checks every non-test package of the module, as built
// for the host's GOOS/GOARCH, into one Info. The module's packages are
// checked from source in dependency order; everything else, and the extra
// standard packages named in std, comes from the compiler export data that
// `go list -export` reports, which a warm build cache makes cheap. The
// returned importer reaches those standard packages.
func typedModule(t *testing.T, std ...string) (*token.FileSet, []typedPackage, *types.Info, types.Importer) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./..."}, std...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export: %v\n%s", err, stderr.String())
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	var module []listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			module = append(module, p) // -deps lists a package after its imports
		}
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []typedPackage
	for _, p := range module {
		dir, err := filepath.Rel(wd, p.Dir) // positions read module-relative
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, typedPackage{pkg, files})
	}
	if len(pkgs) < 30 {
		t.Fatalf("type-checked only %d packages of the module — go list lost it?", len(pkgs))
	}
	return fset, pkgs, info, imp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestExportedNamesHaveCallers type-checks the module (typedModule) and
// fails for every exported name declared under internal/ that non-test
// code does not reach — bench/, cmd/ and examples/ count:
//
//   - a func, method, type or var that no non-test code names. A method,
//     interface methods included, counts as named when code calls it
//     through an interface it implements, or when it implements one of
//     stdInterfaces; a method's own receiver does not name its type;
//   - a struct field without a tag (a tagged field is set by a decoder)
//     that no composite literal, assignment or &x.F of non-test code sets;
//   - a constant that non-test code names only as an operand of == or !=,
//     or as a switch case.
//
// docs/STATIC_ANALYSIS.md says what it costs.
func TestExportedNamesHaveCallers(t *testing.T) {
	start := time.Now()
	var std []string
	for _, s := range stdInterfaces {
		if s.pkg != "" {
			std = append(std, s.pkg)
		}
	}
	fset, pkgs, info, imp := typedModule(t, std...)

	origin := func(obj types.Object) types.Object {
		switch o := obj.(type) {
		case *types.Func:
			return o.Origin()
		case *types.Var:
			return o.Origin()
		}
		return obj
	}
	ident := func(e ast.Expr) *ast.Ident {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		}
		return nil
	}
	notUses := map[*ast.Ident]bool{} // receivers, and operands of a comparison
	set := map[types.Object]bool{}   // struct fields non-test code sets
	setField := func(e ast.Expr) {
		if id := ident(e); id != nil {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				set[v.Origin()] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								notUses[id] = true
							}
							return true
						})
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						notUses[ident(n.X)], notUses[ident(n.Y)] = true, true
					}
				case *ast.SwitchStmt:
					if n.Tag != nil { // a tagless switch's cases are expressions of their own
						for _, c := range n.Body.List {
							for _, e := range c.(*ast.CaseClause).List {
								notUses[ident(e)] = true
							}
						}
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, isKV := e.(*ast.KeyValueExpr); isKV {
							setField(kv.Key)
						} else if ok {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setField(lhs)
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				}
				return true
			})
		}
	}
	used := map[types.Object]bool{}
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	var called []ifaceMethod // interface methods non-test code calls, or the standard library does
	for id, obj := range info.Uses {
		if notUses[id] {
			continue
		}
		used[origin(obj)] = true
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
			if iface, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok {
				called = append(called, ifaceMethod{iface, fn.Name()})
			}
		}
	}
	for _, s := range stdInterfaces {
		scope := types.Universe
		if s.pkg != "" {
			p, err := imp.Import(s.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(s.name).Type().Underlying().(*types.Interface)
		for m := range iface.Methods() {
			called = append(called, ifaceMethod{iface, m.Name()})
		}
	}
	implementsCalled := func(named *types.Named, name string) bool {
		return slices.ContainsFunc(called, func(c ifaceMethod) bool {
			return c.name == name && (types.Implements(named, c.iface) || types.Implements(types.NewPointer(named), c.iface))
		})
	}

	findings := map[string]string{} // pkg.Name or pkg.Type.Member -> what is wrong, at its position
	report := func(key string, obj types.Object, what string) {
		findings[key] = fmt.Sprintf("%s: %s %s", fset.Position(obj.Pos()), key, what)
	}
	declared := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path(), "repro/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			key := p.Name() + "." + name
			if obj.Exported() {
				declared++
				if _, isConst := obj.(*types.Const); isConst && !used[obj] {
					report(key, obj, "is at most compared against outside tests")
				} else if !used[obj] {
					report(key, obj, "has no use outside tests")
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for m := range iface.ExplicitMethods() {
					if m.Exported() && !used[m] {
						report(key+"."+m.Name(), m, "is called by nothing outside tests")
					}
				}
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !implementsCalled(named, m.Name()) {
					report(key+"."+m.Name(), m, "has no caller outside tests")
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" && !set[f] {
						report(key+"."+f.Name(), f, "is set by nothing outside tests")
					}
				}
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(findings)) {
		if exemptNames[key] == "" {
			t.Errorf("%s — delete it, or give it a caller", findings[key])
		}
	}
	for _, key := range slices.Sorted(maps.Keys(exemptNames)) {
		if findings[key] == "" {
			t.Errorf("exempt name %s is not reported — it has a use now, or is gone: take it off exemptNames", key)
		}
	}
	t.Logf("type-checked %d packages in %v; %d exported package-level names under internal/, %d exempt",
		len(pkgs), time.Since(start).Round(time.Millisecond), declared, len(exemptNames))
}

// ctxFlowCases holds every shape the check must flag (marked "flagged")
// beside those it must leave alone, under an aliased import.
const ctxFlowCases = `package fixture

import stdctx "context"

func dropsCtx(ctx stdctx.Context, s *Server) { s.Call(stdctx.Background(), nil) } // flagged
func dropsCtxFree(ctx stdctx.Context)        { Probe(stdctx.TODO(), nil) }        // flagged
func mintsCtx(ctx stdctx.Context) stdctx.Context {
	return stdctx.Background() // flagged
}
func litWithCtx(s *Server) func(stdctx.Context) {
	return func(ctx stdctx.Context) { s.Call(stdctx.Background(), nil) } // flagged
}

func passesCtx(ctx stdctx.Context, s *Server) { s.Call(ctx, nil) }
func derivesCtx(ctx stdctx.Context, s *Server) {
	ctx, cancel := stdctx.WithCancel(ctx)
	defer cancel()
	s.Call(ctx, nil)
}
func rootEntryPoint(s *Server) { s.Call(stdctx.Background(), nil) }
`

func TestCtxFlow(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", ctxFlowCases, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int
	for i, line := range strings.Split(ctxFlowCases, "\n") {
		if strings.HasSuffix(line, "// flagged") {
			want = append(want, i+1)
		}
	}
	for _, pos := range ctxMints(fset, f) {
		got = append(got, pos.Line)
	}
	if len(want) != 4 || !slices.Equal(got, want) {
		t.Fatalf("flagged lines %v, want the four marked %v", got, want)
	}
}

// TestMetricName sends a predict and an invert call through a proxy over
// two backends, then scrapes /metrics on all three. A scrape must answer
// 200 — a family registered under two kinds panics the per-scrape
// registry, which serve answers with a 500 — and every family must be
// jag_-prefixed snake case. The family floors keep the test from passing
// on an empty page.
func TestMetricName(t *testing.T) {
	ts, _, backends := startFleet(t, 2, proxy.Config{HealthInterval: 50 * time.Millisecond})
	cl := serve.NewClient(ts.URL)
	for _, method := range []string{serve.MethodPredict, serve.MethodInvert} {
		if _, rowErrs, err := cl.Call(context.Background(), "jag", method, [][]float32{{0.5, 0.5}}); err != nil || rowErrs != nil {
			t.Fatalf("%s through the proxy: err=%v rowErrs=%v", method, err, rowErrs)
		}
	}
	family := regexp.MustCompile(`^jag_[a-z0-9_]+$`)
	scrape := func(who, url string, min int) {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics: status %d, %v\n%s", who, resp.StatusCode, err, body)
		}
		n := 0
		for _, line := range strings.Split(string(body), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				n++
				if name, _, _ = strings.Cut(name, " "); !family.MatchString(name) {
					t.Errorf("%s /metrics: family %q does not match %s", who, name, family)
				}
			}
		}
		if t.Logf("%s /metrics: %d families", who, n); n < min {
			t.Errorf("%s /metrics shows %d families, want at least %d", who, n, min)
		}
	}
	scrape("proxy", ts.URL, 10)
	for i, b := range backends {
		scrape("backend "+strconv.Itoa(i), "http://"+b.addr, 15)
	}
}
