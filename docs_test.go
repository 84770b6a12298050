package repro

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The operator docs are part of the contract: a moved file or a
// renamed doc must fail tier-1, not rot silently. This test walks
// every markdown file in the repository root and docs/ and verifies
// that each relative link target exists on disk (external URLs and
// intra-page anchors are out of scope), and that each package, command
// or example directory README.md, docs/*.md (in backticks) and doc.go
// name exists — ROADMAP, CHANGES and EXPERIMENTS are history and may name
// what is gone. CI additionally smoke-runs the commands the docs show.

var (
	mdLink  = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	mdPath  = regexp.MustCompile("`(?:\\./)?((?:internal|cmd|examples)/[\\w./-]*\\w)(?:/|/\\.\\.\\.)?`")
	docPath = regexp.MustCompile(`\b((?:internal|cmd|examples)/\w+)`)
)

func TestDocLinksResolve(t *testing.T) {
	var docs []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	if len(docs) < 6 {
		t.Fatalf("glob found only %v — doc layout moved?", docs)
	}
	docs = append(docs, "doc.go")
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("doc named by the link check is missing: %v", err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // file.md#anchor -> file.md
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%v)", doc, m[1], err)
			}
		}
		var named [][]string
		switch {
		case doc == "doc.go":
			named = docPath.FindAllStringSubmatch(string(body), -1)
		case doc == "README.md" || strings.HasPrefix(doc, "docs/"):
			named = mdPath.FindAllStringSubmatch(string(body), -1)
		}
		for _, m := range named {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
	}
}

// The docs promise specific test and figure entry points by name; keep
// the names honest.
func TestDocNamedEntryPointsExist(t *testing.T) {
	for file, needles := range map[string][]string{
		"capacity_test.go":              {"TestServingCapacityModelVsMeasured"},
		"internal/serve/probe.go":       {"func CostProbe"},
		"internal/perfmodel/serving.go": {"type ServingScenario", "func FigureS1"},
		"cmd/figures/main.go":           {`want("S1")`},
		// docs/OBSERVABILITY.md's contract surface.
		"internal/serve/metrics.go":     {"func MetricsHandler", "jag_request_latency_seconds", "jag_stage_latency_seconds"},
		"internal/serve/stats.go":       {`StageQueueWait = "queue_wait"`, `StageEncode = "encode"`},
		"internal/serve/serve.go":       {"func (s *Server) CallTrace"},
		"internal/serve/middleware.go":  {"func Lifecycle", "func AddLogAttrs"},
		"internal/metrics/histogram.go": {"func LatencyBuckets"},
		"cmd/jagserve/main.go":          {`"debug-addr"`, `"log-format"`, "serve.Open(", "serve.NewReloader("},
		// docs/SERVING.md's hot-reload section: one load path, canary
		// and probe at start-up and on every swap.
		"internal/serve/reload.go": {"func Open(", "canary(pool)", "CostProbe(pool, MethodPredict, max(maxBatch, 2))"},
		// docs/FLEET.md's contract surface: the proxy library, its CLI
		// flags, the typed retry classification, the fleet capacity
		// model, and the tier-1 fleet validation.
		"internal/proxy/proxy.go":     {"func New", "serve.Lifecycle", "func (p *Proxy) Metrics", "jag_proxy_health_transitions_total"},
		"internal/serve/http.go":      {`ModelHealth{Status: "ok", Generation: reg.Generation(name), CapacityQPS: s.CapacityQPS()}`},
		"cmd/jagproxy/main.go":        {`"backend"`, `"hedge-after"`, `"rate"`},
		"internal/serve/client.go":    {"type StatusError", "func RetryableStatus"},
		"internal/perfmodel/fleet.go": {"type FleetScenario"},
		"fleet_test.go":               {"TestFleetCapacityModelVsMeasured", "TestFleetSurvivesBackendKill"},
		"bench_test.go":               {"func BenchmarkProxyOverhead"},
		// docs/STATIC_ANALYSIS.md's contract surface: the four tier-1
		// convention checks CI's static-analysis job runs by name; and
		// docs/SERVING.md's hot-swap section, whose stalled-reader test
		// shows a swap waits for no client.
		"lint_test.go":                    {"func TestSuiteCleanOnRepo", "func TestCtxFlow", "func TestMetricName", "func TestExportedNamesHaveCallers", "var exemptNames", "var stdInterfaces", "func typedModule"},
		"internal/serve/registry_test.go": {"func TestStalledReaderDoesNotPinSwap"},
		".github/workflows/ci.yml":        {"-probe=false", "-max-batch 1", "static-analysis:", "export data for the typed caller check", "TestExportedNamesHaveCallers", "race-stress:", "gofmt -s -l", "examples/fleet", "ProxyOverhead", "GemmTN128", "Simulate64", "bench_snapshot.txt", "FuzzGemmMatchesReference", "GOARCH=arm64 go vet"},
		// EXPERIMENTS.md's Kernels section and the verify notes.
		"internal/tensor/kernel_test.go": {"func FuzzGemmMatchesReference", "func TestMicroKernelsMatchScalar"},
		"internal/core/core_test.go":     {"func TestRunPopulationGolden"},
	} {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, needle := range needles {
			if !strings.Contains(string(body), needle) {
				t.Errorf("%s no longer contains %q, but the docs reference it", file, needle)
			}
		}
	}
}

// Every package under internal/ has an importer: the non-test, test or
// external-test files of some other package in the module. A package
// nothing imports is reached from no command and no test but its own —
// delete it or wire it in.
func TestInternalPackagesAreImported(t *testing.T) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Imports,TestImports,XTestImports", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imported := map[string]bool{}
	var internal []string
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath                         string
			Imports, TestImports, XTestImports []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(p.ImportPath, "/internal/") {
			internal = append(internal, p.ImportPath)
		}
		for _, list := range [][]string{p.Imports, p.TestImports, p.XTestImports} {
			for _, imp := range list {
				if imp != p.ImportPath {
					imported[imp] = true
				}
			}
		}
	}
	if len(internal) < 10 {
		t.Fatalf("go list found only %v under internal/", internal)
	}
	for _, pkg := range internal {
		if !imported[pkg] {
			t.Errorf("%s is imported by no other package", pkg)
		}
	}
}
