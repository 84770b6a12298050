package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/serve"
)

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// The names and units the program reports are exactly the ones
// BENCHMARK.json declares, in the same order.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the program %d + %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// A one-second traced smoke of every workload: every declared metric
// is emitted and finite, no row fails, every span's parent resolves and
// no self time is negative. No timing is asserted.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			p := params{workload: name, seed: 7, seconds: 0.7, trace: true, smoke: true, outDir: dir}
			res, err := runWorkload(context.Background(), p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, set := range []struct {
				values map[string]float64
				defs   []metricDef
			}{{res.e2e, endToEnd}, {res.layers, perLayer}} {
				rep, err := newReport(res, set.values, set.defs)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, res.problems)
				}
				for name, m := range rep.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					if strings.Contains(name, "self") && m.Value < 0 {
						t.Errorf("negative self time: %s = %v", name, m.Value)
					}
				}
			}
			for _, name := range []string{"peak_rss_mb", "setup_s"} {
				if res.e2e[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.e2e[name])
				}
			}

			f, err := os.Open(filepath.Join(dir, "trace-"+name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []span
			ids := map[int64]bool{}
			for sc := bufio.NewScanner(f); sc.Scan(); {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatal(err)
				}
				spans = append(spans, s)
				ids[s.ID] = true
			}
			if len(spans) == 0 {
				t.Fatal("no spans written")
			}
			for _, s := range spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d (%s) names parent %d, which was not written", s.ID, s.Name, s.Parent)
				}
				if s.EndNs < s.StartNs {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
		})
	}
}

// The same seed generates the same traffic; another seed does not.
func TestInputDigestIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range servingWorkloads {
		a, b, c := servingDigest(1, w.name, w.conns), servingDigest(1, w.name, w.conns), servingDigest(2, w.name, w.conns)
		if a != b || a == c {
			t.Errorf("%s: digests seed 1 %s, seed 1 again %s, seed 2 %s", w.name, a, b, c)
		}
	}
	digest := func(seed int64) string {
		d, err := trainingDigest(planTraining(params{seed: seed, seconds: 1, smoke: true}).cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b, c := digest(1), digest(1), digest(2); a != b || a == c {
		t.Errorf("train_ltfb: digests seed 1 %s, seed 1 again %s, seed 2 %s", a, b, c)
	}
}

// One flipped bit in a served row, or in a training loss, is a failed
// output check.
func TestOutputChecksCatchOneFlippedBit(t *testing.T) {
	ref := cyclegan.New(cyclegan.DefaultConfig(jag.Tiny8), 3)
	in := [][]float32{{0.1, 0.2, 0.3, 0.4, 0.5}, {0.5, 0.4, 0.3, 0.2, 0.1}}
	for _, method := range []string{serve.MethodPredict, serve.MethodInvert} {
		x := filled(len(in), jag.InputDim, 0)
		for i, row := range in {
			copy(x.Row(i), row)
		}
		y := ref.Predict(x)
		if method == serve.MethodInvert {
			y = ref.Invert(x)
		}
		out := [][]float32{append([]float32(nil), y.Row(0)...), append([]float32(nil), y.Row(1)...)}
		s := sample{method: method, in: in, out: out}
		if bad := mismatchedRows(ref, s); bad != 0 {
			t.Errorf("%s: %d rows of the reference's own answer mismatch", method, bad)
		}
		out[1][3] = math.Float32frombits(math.Float32bits(out[1][3]) ^ 1)
		if bad := mismatchedRows(ref, s); bad != 1 {
			t.Errorf("%s: flipped one bit of one row, %d rows mismatch", method, bad)
		}
	}

	want := &core.QualityResult{RoundLosses: [][]float64{{0.25, 0.5}}, Adoptions: 1}
	if bad := lossMismatches([][]float64{{0.25, 0.5}}, 1, want); bad != 0 {
		t.Errorf("equal losses: %d mismatches", bad)
	}
	flipped := math.Float64frombits(math.Float64bits(0.5) ^ 1)
	if bad := lossMismatches([][]float64{{0.25, flipped}}, 1, want); bad != 1 {
		t.Errorf("one flipped loss bit: %d mismatches", bad)
	}
	if bad := lossMismatches([][]float64{{0.25, 0.5}}, 2, want); bad != 1 {
		t.Errorf("one extra adoption: %d mismatches", bad)
	}
}

// The traced run's serve.Model wrapper is invisible to the program:
// the server batches the same way over it and /v1/models lists the
// same replicas, ensemble flag and methods.
func TestTracedModelIsTransparent(t *testing.T) {
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cyclegan.DefaultConfig(jag.Tiny8), 3)}, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.on.Store(true)
	observe := func(model serve.Model) (meanBatch float64, listing string) {
		// MaxDelay far beyond the test: a batch flushes only when full,
		// so eight concurrent rows make exactly two batches of four.
		srv := serve.NewServer(model, serve.Config{MaxBatch: 4, MaxDelay: time.Minute})
		defer srv.Close()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := srv.Call(context.Background(), serve.MethodPredict, []float32{float32(i) / 8, 0, 0, 0, 0}, serve.Interactive); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		reg := serve.NewRegistry()
		if err := reg.Register("m", srv); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		serve.NewRegistryHandler(reg, serve.HandlerConfig{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		return srv.Stats().MeanBatch, rec.Body.String()
	}
	plainBatch, plainListing := observe(pool)
	tracedBatch, tracedListing := observe(tracedModel{Pool: pool, tr: tr, name: "m"})
	if plainBatch != 4 || tracedBatch != plainBatch {
		t.Errorf("MeanBatch: plain %v, traced %v, want 4 and 4", plainBatch, tracedBatch)
	}
	if plainListing != tracedListing || !strings.Contains(plainListing, `"replicas":1`) {
		t.Errorf("/v1/models differs:\nplain  %s\ntraced %s", plainListing, tracedListing)
	}
	if n := len(tr.finish()); n != 2 {
		t.Errorf("traced model recorded %d serve_pool.run spans, want 2", n)
	}
}

// quartiles is Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
