package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildTestRegistry populates a registry with one of everything, with
// deterministic values, for the exposition golden test.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "predict", "lane": "interactive"}, 42)
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "predict", "lane": "bulk"}, 7)
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "invert", "lane": "interactive"}, 3)
	r.Gauge("jag_queue_depth", "In-flight requests.", Labels{"model": "jag"}, 5)
	r.Gauge("jag_cache_hit_rate", "Hit fraction of answered rows.", Labels{"model": "jag"}, 0.25)
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 2} {
		h.Observe(v)
	}
	r.Histogram("jag_stage_latency_seconds", "Per-stage latency.", Labels{"model": "jag", "stage": "forward"}, h.Snapshot())
	snap := HistogramSnapshot{Bounds: []float64{0.001, 0.01}, Counts: []uint64{1, 2, 0}, Count: 3, Sum: 0.0105}
	r.Histogram("jag_request_latency_seconds", "End-to-end latency.", Labels{"model": "jag"}, snap)
	return r
}

// TestPrometheusExpositionGolden pins the exact text format: families
// sorted by name, series by sorted label key, cumulative histogram
// buckets with _sum/_count. Regenerate with -update-golden after an
// intentional format change.
func TestPrometheusExpositionGolden(t *testing.T) {
	var b strings.Builder
	if err := buildTestRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrySameSeriesSharedHandle: two Counter calls on one (name,
// labels), through different label maps, render one series holding
// their sum.
func TestRegistrySameSeriesSharedHandle(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", Labels{"model": "a"}, 1)
	r.Counter("x_total", "", Labels{"model": "a"}, 2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE x_total counter\nx_total{model=\"a\"} 3\n"; b.String() != want {
		t.Fatalf("got %q, want %q", b.String(), want)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("x_total", "", nil, 0)
}

// TestRegistryInvalidNamePanics: a malformed metric name, or a label key
// outside [a-z_][a-z0-9_]*, panics where the series is created.
func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(what, bad string, register func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s %q must panic", what, bad)
			}
		}()
		register()
	}
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		mustPanic("name", bad, func() { r.Counter(bad, "", nil, 0) })
		mustPanic("label key", bad, func() { r.Counter("x_total", "", Labels{"model": "jag", bad: "v"}, 0) })
	}
	mustPanic("label key", "Model", func() { r.Gauge("jag_queue_depth", "", Labels{"Model": "jag"}, 0) })
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", Labels{"path": `a"b\c` + "\nd"}, 1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}
