package repro

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"maps"
	"net/http"
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
// non-test caller, each with its reason. A key is a bare identifier (any
// declaration of that name) or pkg.Name / pkg.Type.Method.
var exemptNames = map[string]string{
	"String":                      "fmt.Stringer: fmt calls it",
	"Error":                       "error: callers reach it through the interface",
	"Len":                         "sort.Interface / heap.Interface",
	"Less":                        "sort.Interface / heap.Interface",
	"Swap":                        "sort.Interface / heap.Interface",
	"Push":                        "heap.Interface: container/heap calls it",
	"Pop":                         "heap.Interface: container/heap calls it",
	"ServeHTTP":                   "http.Handler: net/http calls it",
	"UnmarshalJSON":               "json.Unmarshaler: encoding/json calls it",
	"WriteTo":                     "io.WriterTo: io.Copy calls it",
	"ReadFrom":                    "io.ReaderFrom: io.Copy calls it",
	"WriteHeader":                 "http.ResponseWriter: net/http calls it",
	"comm.Comm.AllreduceSumNaive": "the reference the ring allreduce is tested and timed against",
	"tensor.Matrix.Equal":         "an assertion helper the tests of many packages share",
	"tensor.Matrix.ApproxEqual":   "an assertion helper the tests of many packages share",
	"ltfb.MetricEval":             "the zero Metric: a Config that sets none gets it",
}

// TestExportedNamesHaveCallers fails for every exported func, method,
// type, var or const declared under internal/ that no non-test file of the
// module uses (bench/, cmd/ and examples/ count). It parses and does not
// type-check (docs/STATIC_ANALYSIS.md says why). A package-level name
// matches exactly: bare in its own package, pkg.Name elsewhere. A method
// matches by identifier — any x.Clone keeps every Clone method — so for
// methods the check finds a lower bound of the test-only API.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset, files := moduleFiles(t)
	type decl struct {
		key string // pkg.Name or pkg.Type.Method
		use string // the used key that counts as a caller: dir.Name, or a method's Name
		pos token.Position
	}
	declared := map[string][]decl{} // identifier -> its declarations under internal/
	names := map[*ast.Ident]bool{}  // top-level declaring identifiers and receivers
	for _, f := range files {
		path := filepath.ToSlash(fset.Position(f.Package).Filename)
		internal := strings.HasPrefix(path, "internal/")
		add := func(id *ast.Ident, key string) {
			names[id] = true
			if internal && id.IsExported() {
				use := filepath.ToSlash(filepath.Dir(path)) + "." + id.Name
				if strings.Contains(key, ".") {
					use = id.Name
				}
				declared[id.Name] = append(declared[id.Name], decl{f.Name.Name + "." + key, use, fset.Position(id.Pos())})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if ix, ok := typ.(*ast.IndexExpr); ok {
						typ = ix.X
					}
					key = typ.(*ast.Ident).Name + "." + key
				}
				add(d.Name, key)
				if d.Recv != nil { // a method does not use its own receiver type
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							names[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, id.Name)
						}
					}
				}
			}
		}
	}
	// used holds dir.Name for each use of a package-level name of dir — bare
	// in dir's own files, through an import of dir elsewhere — and Name for
	// every identifier a file uses except one selected through an import
	// (slices.Clone), which counts only as that package's.
	used := map[string]bool{}
	for _, f := range files {
		dir := filepath.ToSlash(filepath.Dir(fset.Position(f.Package).Filename))
		imports := map[string]string{} // import name -> path, module-relative for the module's own
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name], _ = strings.CutPrefix(path, "repro/")
		}
		member := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if pkg, ok := imports[x.Name]; ok {
						used[pkg+"."+n.Sel.Name] = true
						return false
					}
				}
				member[n.Sel] = true
			case *ast.Ident:
				if !names[n] {
					used[n.Name] = true
					if !member[n] {
						used[dir+"."+n.Name] = true
					}
				}
			}
			return true
		})
	}

	for _, name := range slices.Sorted(maps.Keys(declared)) {
		for _, d := range declared[name] {
			if !used[d.use] && exemptNames[name] == "" && exemptNames[d.key] == "" {
				t.Errorf("%s: %s has no caller outside tests — delete it, or give it one", d.pos, d.key)
			}
		}
	}
	for _, key := range slices.Sorted(maps.Keys(exemptNames)) {
		if _, ok := declared[key[strings.LastIndex(key, ".")+1:]]; !ok {
			t.Errorf("exempt name %s is declared nowhere under internal/ — take it off exemptNames", key)
		}
	}
	t.Logf("%d exported identifiers under internal/, %d exempt", len(declared), len(exemptNames))
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
