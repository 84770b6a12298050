package repro

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// Validation of the serving capacity model (perfmodel.ServingScenario)
// against the real pipeline, the way the Figure 9–11 calibration tests
// validate the training model against the paper's ratios. The contract:
// with cost constants probed from the running binary (serve.CostProbe),
// the model's sustainable-QPS prediction must land within a factor of
// WITHIN of a measured saturated in-process benchmark, and its low-load
// latency predictions must bracket a measured idle-server row on each
// submission path: a lone Server.Call (which waits out the batch window)
// and an HTTP request (which does not).
//
// Tolerances are deliberately wide — the measured side shares one CPU
// with its own load generators and the model ignores queue-hop and
// scheduler costs — but they are real bounds: a regression that makes
// the model drift past 3.3x optimistic or pessimistic (a lost
// amortization term, a misplaced factor of MaxBatch) fails here.
const (
	capWithin   = 3.3 // measured/predicted throughput must be in [1/capWithin, capWithin]
	capMaxBatch = 64
	capWindow   = 2 * time.Millisecond
	// Low-load latency brackets, per quantile, comparing the serving
	// pipeline's measured histogram quantiles (StatsSnapshot.LatencyP50Ms
	// / P99Ms) against ServingScenario.Report's predictions. Tighter than
	// the historical single check (measured MEAN inside [p50/3, 3·p99])
	// in both directions: each quantile is bracketed above AND below
	// against its own prediction. p50 gets 2.8x because the measured side
	// is sequential — every lone request waits the FULL batch window
	// where the model's p50 assumes uniform arrival (half the window), a
	// structural factor of ~2 before any noise, and under -race on a
	// one-CPU host the detector's overhead lands on top of that (2.5x
	// proved marginal there). p99 gets 3x: both sides pay the full
	// window, but the tail eats scheduler jitter.
	capP50Within = 2.8 // measured p50 / predicted P50 ∈ [1/2.8, 2.8]
	capP99Within = 3.0 // measured p99 / predicted P99 ∈ [1/3, 3]
	// capLowRounds is how many times a low-load section may be measured.
	// Its p99 is the third-slowest of 200 sequential requests, so three
	// scheduler stalls of a few ms — routine when `go test ./...` runs
	// this package beside bench's and serve's on two cores — push it out
	// of a bracket the pipeline itself sits well inside (read 4.5x during
	// such a run; alone, -count 5 passes). The brackets stay as they are:
	// every round is logged, the first one inside both passes, and a real
	// regression is outside on all three.
	capLowRounds = 3
	// capDispatch is the per-pass dispatch cost the HTTP low-load section
	// models (see there): as long as the window, so that section's
	// brackets are as wide in milliseconds as the Server.Call section's.
	capDispatch = capWindow
)

// lowLoadBracket measures a low-load section up to capLowRounds times —
// measure drives 200 sequential requests through a fresh server and
// returns its stats — and fails unless one round's p50 and p99 both land
// inside their brackets of the model's report. It returns that round's
// snapshot.
func lowLoadBracket(t *testing.T, path string, rep perfmodel.ServingReport, measure func() serve.StatsSnapshot) serve.StatsSnapshot {
	t.Helper()
	if rep.Saturated {
		t.Fatalf("%s: low-load scenario saturated: %+v", path, rep)
	}
	var mem runtime.MemStats
	for round := 1; ; round++ {
		runtime.ReadMemStats(&mem)
		gcBefore := mem.NumGC
		snap := measure()
		runtime.ReadMemStats(&mem)
		r50 := snap.LatencyP50Ms / 1e3 / rep.P50
		r99 := snap.LatencyP99Ms / 1e3 / rep.P99
		in50 := r50 >= 1/capP50Within && r50 <= capP50Within
		in99 := r99 >= 1/capP99Within && r99 <= capP99Within
		t.Logf("%s round %d: p50 %.3fms vs predicted %.3fms (ratio %.2f, tolerance %.1fx), p99 %.3fms vs %.3fms (ratio %.2f, tolerance %.1fx)",
			path, round, snap.LatencyP50Ms, 1e3*rep.P50, r50, capP50Within, snap.LatencyP99Ms, 1e3*rep.P99, r99, capP99Within)
		// Where a slow tail comes from: each stage's own p99, and whether
		// the collector ran while the round was measured.
		t.Logf("%s round %d: stage p99 queue_wait %.3fms, batch_assembly %.3fms, forward %.3fms; %d GC cycles",
			path, round, snap.Stages[serve.StageQueueWait].P99Ms, snap.Stages[serve.StageAssembly].P99Ms,
			snap.Stages[serve.StageForward].P99Ms, mem.NumGC-gcBefore)
		if in50 && in99 {
			return snap
		}
		if round == capLowRounds {
			t.Fatalf("%s: latency model missed in all %d rounds (p50 inside: %t, p99 inside: %t on the last)", path, round, in50, in99)
		}
	}
}

// capPool builds the single-replica Tiny8 pool both sides share. One
// replica keeps the comparison honest on single-core hosts: the model's
// Replicas means concurrent execution units, which a CPU-bound Go
// process cannot exceed GOMAXPROCS of.
func capPool(t *testing.T) *serve.Pool {
	t.Helper()
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{48}
	cfg.ForwardHidden = []int{32, 32}
	cfg.InverseHidden = []int{16}
	cfg.DiscHidden = []int{16}
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, 11)}, false)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestServingCapacityModelVsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based validation")
	}
	pool := capPool(t)
	probe, err := serve.CostProbe(pool, serve.MethodPredict, capMaxBatch)
	if err != nil {
		t.Fatal(err)
	}
	scenario := perfmodel.ServingScenario{
		Cost:     perfmodel.ServingCost{PassSec: probe.PassSec, RowSec: probe.RowSec},
		Replicas: 1,
		MaxBatch: capMaxBatch,
		Window:   capWindow,
	}
	predicted := scenario.MaxQPS()
	if predicted <= 0 {
		t.Fatalf("degenerate prediction from probe %+v", probe)
	}

	// Measured side: the probed pool behind the real batching queue,
	// saturated by closed-loop clients (enough to keep full batches
	// queued, few enough not to drown the worker on small hosts).
	srv := serve.NewServer(pool, serve.Config{
		MaxBatch:   capMaxBatch,
		MaxDelay:   capWindow,
		QueueDepth: 1024,
	})
	defer srv.Close()
	const clients, perClient = 2 * capMaxBatch, 150
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float32, jag.InputDim)
			for i := 0; i < perClient; i++ {
				for d := range x {
					x[d] = float32((c*perClient+i*7+d*13)%997) / 997
				}
				if _, err := srv.Call(context.Background(), serve.MethodPredict, x, serve.Interactive); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	measured := float64(clients*perClient) / time.Since(start).Seconds()
	snap := srv.Stats()
	if snap.MeanBatch < capMaxBatch/4 {
		t.Fatalf("saturation never reached (mean batch %.1f); measurement invalid", snap.MeanBatch)
	}

	if ratio := measured / predicted; ratio < 1/capWithin || ratio > capWithin {
		t.Fatalf("capacity model missed: measured %.0f req/s vs predicted %.0f (ratio %.2f, tolerance %.1fx); probe %+v",
			measured, predicted, ratio, capWithin, probe)
	}

	// Low-load latency, once per submission path. The pipeline's
	// streaming latency histogram gives measured p50/p99 directly, and
	// each must land inside its own multiplicative bracket of the model's
	// prediction — quantile against quantile, not mean against band.
	// Enough observations that the p99 is a real quantile rather than
	// the sample max: with 40 requests one scheduler or GC spike (an
	// everyday event under -race on a one-CPU host) WAS the p99; with
	// 200 it takes a cluster of them to move the bracket.
	const lowN = 200
	lowCfg := serve.Config{MaxBatch: capMaxBatch, MaxDelay: capWindow}
	low := scenario
	low.OfferedQPS = 50 // well under capacity

	// Server.Call: an idle server's lone row waits out the batch window
	// plus one single-row pass — the Window: capWindow report.
	callSnap := lowLoadBracket(t, "Server.Call", low.Report(), func() serve.StatsSnapshot {
		srv := serve.NewServer(capPool(t), lowCfg)
		defer srv.Close()
		x := make([]float32, jag.InputDim)
		for i := 0; i < lowN; i++ {
			x[0] = float32(i) / lowN // unique rows: no cache, no coalescing
			if _, err := srv.Call(context.Background(), serve.MethodPredict, x, serve.Interactive); err != nil {
				t.Fatal(err)
			}
		}
		snap := srv.Stats()
		if snap.Requests != lowN {
			t.Fatalf("latency quantiles cover %d rows, want %d", snap.Requests, lowN)
		}
		return snap
	})
	// The stage decomposition must account for the end-to-end number:
	// queue_wait p50 alone (the window fill) is a lower bound on the
	// total, and no stage can exceed it.
	stage, ok := callSnap.Stages[serve.StageQueueWait]
	if !ok || stage.Count != lowN {
		t.Fatalf("queue_wait stage histogram missing or short: %+v", callSnap.Stages)
	}
	if stage.P50Ms > callSnap.LatencyP50Ms {
		t.Fatalf("queue_wait p50 %.3fms exceeds end-to-end p50 %.3fms", stage.P50Ms, callSnap.LatencyP50Ms)
	}
	if stage.P50Ms < 0.5*float64(capWindow)/1e6 {
		t.Fatalf("queue_wait p50 %.3fms: a lone Call no longer waits out the %v window", stage.P50Ms, capWindow)
	}

	// An HTTP request: the same server configuration behind the v1
	// handler. A request's rows are a complete unit, dispatched when the
	// worker is idle — the Window: 0 report, in which the window does
	// not appear. Measured server-side (enqueue to reply), as above: the
	// model has no term for the HTTP hop. Nor has it one for the
	// goroutine hand-off to the worker and back or for a scheduler that
	// is busy elsewhere, and with the window gone those (~10 µs, but
	// milliseconds in the tail when `go test ./...` runs every package
	// at once) are all there is beside this model's ~12 µs pass: a 3x
	// bracket around 12 µs measures the host, not the pipeline. So this
	// section gives the pass a modeled dispatch cost (dispatchModel,
	// bench_test.go), on both sides, and checks the part the brackets
	// then cannot see — that no window was waited out — on the
	// queue_wait stage itself.
	low.Window = 0
	low.Cost.PassSec += capDispatch.Seconds()
	httpSnap := lowLoadBracket(t, "HTTP request", low.Report(), func() serve.StatsSnapshot {
		srv := serve.NewServer(dispatchModel{capPool(t), capDispatch}, lowCfg)
		reg := serve.NewRegistry()
		if err := reg.Register("cap", srv); err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		ts := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{}))
		defer ts.Close()
		client := serve.NewClient(ts.URL)
		x := make([]float32, jag.InputDim)
		for i := 0; i < lowN; i++ {
			x[0] = float32(i) / lowN
			if _, rowErrs, err := client.Call(context.Background(), "cap", serve.MethodPredict, [][]float32{x}); err != nil || rowErrs != nil {
				t.Fatalf("request %d: %v, row errors %v", i, err, rowErrs)
			}
		}
		snap := srv.Stats()
		if snap.Requests != lowN {
			t.Fatalf("latency quantiles cover %d rows, want %d", snap.Requests, lowN)
		}
		return snap
	})
	if wait, ok := httpSnap.Stages[serve.StageQueueWait]; !ok || wait.Count != lowN || wait.P50Ms > 0.25*float64(capWindow)/1e6 {
		t.Fatalf("queue_wait of HTTP rows on an idle server: %+v; want %d rows with a p50 far below the %v window a lone Call waits (%.3fms)",
			wait, lowN, capWindow, stage.P50Ms)
	}
}
