package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildTestRegistry populates a registry with one of everything, with
// deterministic values, for the exposition golden test.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "predict", "lane": "interactive"}).Add(42)
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "predict", "lane": "bulk"}).Add(7)
	r.Counter("jag_requests_total", "Completed rows.", Labels{"model": "jag", "method": "invert", "lane": "interactive"}).Add(3)
	r.Gauge("jag_queue_depth", "In-flight requests.", Labels{"model": "jag"}).Set(5)
	r.Gauge("jag_cache_hit_rate", "Hit fraction of answered rows.", Labels{"model": "jag"}).Set(0.25)
	h := r.Histogram("jag_stage_latency_seconds", "Per-stage latency.", []float64{0.001, 0.01, 0.1},
		Labels{"model": "jag", "stage": "forward"})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 2} {
		h.Observe(v)
	}
	snap := HistogramSnapshot{Bounds: []float64{0.001, 0.01}, Counts: []uint64{1, 2, 0}, Count: 3, Sum: 0.0105}
	r.SetHistogram("jag_request_latency_seconds", "End-to-end latency.", Labels{"model": "jag"}, snap)
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

func TestRegistrySameSeriesSharedHandle(t *testing.T) {
	r := NewRegistry()
	l := Labels{"model": "a"}
	c1 := r.Counter("x_total", "", l)
	c2 := r.Counter("x_total", "", Labels{"model": "a"})
	c1.Inc()
	c2.Add(2)
	if c1.s.val.Load() != 3 {
		t.Fatalf("handles not shared: %d", c1.s.val.Load())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict must panic")
		}
	}()
	r.Gauge("x_total", "", nil)
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
		mustPanic("name", bad, func() { r.Counter(bad, "", nil) })
		mustPanic("label key", bad, func() { r.Counter("x_total", "", Labels{"model": "jag", bad: "v"}) })
	}
	mustPanic("label key", "Model", func() { r.Gauge("jag_queue_depth", "", Labels{"Model": "jag"}) })
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "", Labels{"path": `a"b\c` + "\nd"}).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

// TestRegistryConcurrent exercises creation and updates under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "", Labels{"g": string(rune('a' + g%2))}).Inc()
				r.Histogram("h", "", []float64{1, 2}, nil).Observe(float64(i))
				var b strings.Builder
				_ = r.WritePrometheus(&b)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "", Labels{"g": "a"}).s.val.Load() +
		r.Counter("c_total", "", Labels{"g": "b"}).s.val.Load(); got != 800 {
		t.Fatalf("lost updates: %d", got)
	}
}
