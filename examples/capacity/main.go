// Capacity-planning quickstart: the serving analogue of the perfmodel
// figures. The training side predicts epoch time from a calibrated cost
// model (Figures 9–11); this example does the same for the serving path
// in four steps:
//
//  1. probe — serve.CostProbe times a real replica pool's forward pass
//     on this host and fits the affine cost t(B) = PassSec + B·RowSec;
//  2. predict — perfmodel.ServingScenario turns those constants into
//     sustainable QPS and p50/p99 latency per replica count, for rows
//     that arrive inside HTTP requests (dispatched when a worker is
//     idle) and for rows sent one at a time through Server.Call (which
//     wait out the batch window) — the Figure S1 sweep cmd/figures
//     prints;
//  3. measure — the same pool goes behind a real serve.Server and 64
//     concurrent clients drive it to saturation;
//  4. compare — measured throughput lands within the model's tolerance
//     (the tier-1 capacity test in the repository root asserts this).
//
// Run with:
//
//	go run ./examples/capacity
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

const (
	maxBatch = 64
	window   = 2 * time.Millisecond
)

// replicas is the pool width used for the measured comparison. The
// model's Replicas means *concurrent execution units*: on a CPU-only
// host a replica beyond GOMAXPROCS adds no parallelism (the forward
// pass is single-threaded per replica), so predicting with more
// replicas than cores would overstate capacity on purpose. A replica
// costs no weights: the pool below lists one surrogate N times.
var replicas = min(4, runtime.GOMAXPROCS(0))

func main() {
	log.SetFlags(0)
	log.SetPrefix("capacity: ")

	// 1. Probe. Forward-pass cost depends on layer shapes only, so an
	// untrained model calibrates as well as a tournament winner.
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{48}
	cfg.ForwardHidden = []int{32, 32}
	cfg.InverseHidden = []int{16}
	cfg.DiscHidden = []int{16}
	model := cyclegan.New(cfg, 1)
	models := make([]*cyclegan.Surrogate, replicas)
	for i := range models {
		models[i] = model
	}
	pool, err := serve.NewPool(models, false)
	if err != nil {
		log.Fatal(err)
	}
	probe, err := serve.CostProbe(pool, serve.MethodPredict, maxBatch)
	if err != nil {
		log.Fatal(err)
	}
	cost := perfmodel.ServingCost{PassSec: probe.PassSec, RowSec: probe.RowSec}
	fmt.Printf("probed %s on this host: %.1fµs/pass + %.2fµs/row (%d passes)\n",
		probe.Method, 1e6*probe.PassSec, 1e6*probe.RowSec, probe.Passes)

	// 2. Predict. One scenario per replica count at the pool's batch
	// settings; latency quoted at a 60%-utilization operating point, once
	// per submission path: capacity is the same, the wait is not.
	tab := metrics.NewTable("predicted serving capacity (batch cap 64; Server.Call rows wait a 2ms window, HTTP requests do not)",
		"replicas", "max_qps", "request_p50_ms", "request_p99_ms", "call_p50_ms", "call_p99_ms")
	for _, rep := range []int{1, 2, 4} {
		s := perfmodel.ServingScenario{
			Cost: cost, Replicas: rep, MaxBatch: maxBatch, Window: window,
		}
		s.OfferedQPS = 0.6 * s.MaxQPS()
		call := s.Report()
		s.Window = 0
		request := s.Report()
		tab.AddRow(rep, call.MaxQPS, 1e3*request.P50, 1e3*request.P99, 1e3*call.P50, 1e3*call.P99)
	}
	fmt.Print(tab.Render())

	// 3. Measure. The same pool behind the real batching queue, driven
	// to saturation through Server.Call (either path saturates at the
	// same full batches). Saturation needs enough closed-loop clients to keep
	// every replica's worker fed with a full batch (well over
	// MaxBatch·replicas, else the lockstep of request-wait-resubmit
	// leaves workers idle between flushes).
	srv := serve.NewServer(pool, serve.Config{
		MaxBatch: maxBatch, MaxDelay: window, QueueDepth: 1024,
	})
	defer srv.Close()
	clients, perClient := 2*maxBatch*replicas, 200
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
					log.Fatal(err)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := srv.Stats()
	measured := float64(clients*perClient) / elapsed.Seconds()

	// 4. Compare against the saturation prediction for this pool.
	s := perfmodel.ServingScenario{Cost: cost, Replicas: replicas, MaxBatch: maxBatch, Window: window}
	predicted := s.MaxQPS()
	fmt.Printf("measured: %.0f req/s at mean batch %.1f, mean latency %.2fms (%d replica(s))\n",
		measured, snap.MeanBatch, snap.MeanLatMs, replicas)
	fmt.Printf("model:    %.0f req/s sustainable -> measured/model = %.2f\n",
		predicted, measured/predicted)
	fmt.Println("(the tier-1 capacity test asserts this ratio stays within its stated 3.3x tolerance; see EXPERIMENTS.md)")

	// The same constants also answer the planning question the ROADMAP
	// poses — how many replicas for a target load?
	target := 1e6 // rows/s, "millions of users"
	perReplica := s.MaxQPS() / float64(replicas)
	fmt.Printf("planning: %.0f QPS needs ~%.0f replicas of this model on this host "+
		"(before the LRU cache, which multiplies capacity by 1/(1-hit_rate))\n",
		target, target/perReplica)
}
