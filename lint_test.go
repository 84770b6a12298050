package repro

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
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

// Two conventions go vet cannot see — contexts flow, metric families are
// jag_ snake case — held as tests (docs/STATIC_ANALYSIS.md).

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
	fset := token.NewFileSet()
	files := 0
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
		if err != nil {
			return err
		}
		files++
		for _, pos := range ctxMints(fset, f) {
			t.Errorf("%s: context minted inside a function that receives a ctx — pass the ctx, or derive from it", pos)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if t.Logf("scanned %d files", files); files < 50 {
		t.Fatalf("scanned only %d files — the walk lost the module?", files)
	}
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
