package repro

import (
	"context"
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
// latency prediction must bracket a measured idle-server request.
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
)

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
		Workers:    1,
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

	// Low-load latency: an idle server's lone request waits out the
	// batch window plus one single-row pass. The pipeline's streaming
	// latency histogram gives measured p50/p99 directly, and each must
	// land inside its own multiplicative bracket of the model's
	// prediction — quantile against quantile, not mean against band.
	lowSrv := serve.NewServer(capPool(t), serve.Config{
		MaxBatch: capMaxBatch,
		MaxDelay: capWindow,
		Workers:  1,
	})
	defer lowSrv.Close()
	// Enough observations that the p99 is a real quantile rather than
	// the sample max: with 40 requests one scheduler or GC spike (an
	// everyday event under -race on a one-CPU host) WAS the p99; with
	// 200 it takes a cluster of them to move the bracket.
	const lowN = 200
	x := make([]float32, jag.InputDim)
	for i := 0; i < lowN; i++ {
		x[0] = float32(i) / lowN // unique rows: no cache, no coalescing
		if _, err := lowSrv.Call(context.Background(), serve.MethodPredict, x, serve.Interactive); err != nil {
			t.Fatal(err)
		}
	}
	lowSnap := lowSrv.Stats()
	hist := lowSrv.LatencyHistogram()
	if hist.Count != lowN {
		t.Fatalf("latency histogram saw %d observations, want %d", hist.Count, lowN)
	}
	measuredP50 := lowSnap.LatencyP50Ms / 1e3
	measuredP99 := lowSnap.LatencyP99Ms / 1e3
	low := scenario
	low.OfferedQPS = 50 // well under capacity: window-bound regime
	rep := low.Report()
	if rep.Saturated {
		t.Fatalf("low-load scenario saturated: %+v", rep)
	}
	if r := measuredP50 / rep.P50; r < 1/capP50Within || r > capP50Within {
		t.Fatalf("latency model p50 missed: measured %.3fms vs predicted %.3fms (ratio %.2f, tolerance %.1fx)",
			1e3*measuredP50, 1e3*rep.P50, r, capP50Within)
	}
	if r := measuredP99 / rep.P99; r < 1/capP99Within || r > capP99Within {
		t.Fatalf("latency model p99 missed: measured %.3fms vs predicted %.3fms (ratio %.2f, tolerance %.1fx)",
			1e3*measuredP99, 1e3*rep.P99, r, capP99Within)
	}
	// The stage decomposition must account for the end-to-end number:
	// queue_wait p50 alone (the window fill) is a lower bound on the
	// total, and no stage can exceed it.
	stage, ok := lowSnap.Stages[serve.StageQueueWait]
	if !ok || stage.Count != lowN {
		t.Fatalf("queue_wait stage histogram missing or short: %+v", lowSnap.Stages)
	}
	if stage.P50Ms > lowSnap.LatencyP50Ms {
		t.Fatalf("queue_wait p50 %.3fms exceeds end-to-end p50 %.3fms", stage.P50Ms, lowSnap.LatencyP50Ms)
	}
}
