package core

import (
	"fmt"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// Figure S1 — the serving-capacity analogue of Figure 11. The training
// figures predict epoch time from a calibrated cost model; this one
// predicts sustainable QPS and p50/p99 latency of the internal/serve
// batching queue from constants measured on the running binary
// (serve.CostProbe), swept over replica counts and batch windows. The
// tier-1 capacity test in the repository root validates the same model
// against a measured in-process benchmark.

// figS1MaxBatch matches serve.Config's default MaxBatch.
const figS1MaxBatch = 64

// figS1Arch mirrors a cyclegan.Config as a perfmodel.Arch so the
// probed per-row cost can be converted to an effective host GEMM
// throughput (and from there projected to the paper-scale model).
func figS1Arch(cfg cyclegan.Config) perfmodel.Arch {
	return perfmodel.Arch{
		InputDim:      jag.InputDim,
		OutputDim:     cfg.Geometry.OutputDim(),
		LatentDim:     cfg.LatentDim,
		EncoderHidden: cfg.EncoderHidden,
		ForwardHidden: cfg.ForwardHidden,
		InverseHidden: cfg.InverseHidden,
		DiscHidden:    cfg.DiscHidden,
	}
}

// figS1Config is the probed surrogate: the laptop-scale Tiny8 shape the
// quality figures train. Forward-pass cost depends only on the layer
// shapes, never on the weight values, so the probe runs an untrained
// model.
func figS1Config() cyclegan.Config {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{48}
	cfg.ForwardHidden = []int{32, 32}
	cfg.InverseHidden = []int{16}
	cfg.DiscHidden = []int{16}
	return cfg
}

// ProbeServingCost measures the serving cost constants of the Figure S1
// surrogate on this host: one untrained Tiny8-geometry model, probed
// through the same gather→Run→scatter path the serving worker uses.
func ProbeServingCost() (perfmodel.ServingCost, cyclegan.Config, error) {
	cfg := figS1Config()
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, 1)}, false)
	if err != nil {
		return perfmodel.ServingCost{}, cfg, err
	}
	res, err := serve.CostProbe(pool, serve.MethodPredict, figS1MaxBatch)
	if err != nil {
		return perfmodel.ServingCost{}, cfg, err
	}
	return perfmodel.ServingCost{PassSec: res.PassSec, RowSec: res.RowSec}, cfg, nil
}

// FigureS1Table renders the serving-capacity sweep for a probed cost:
// sustainable QPS and latency at a 60%-utilization operating point,
// over replica counts and the two submission paths — "request" is what
// an HTTP request's rows see (complete units: no window, dispatched when
// a worker is idle), "call <w>" what rows sent one at a time through
// Server.Call see under a batch window (MaxDelay) of w.
func FigureS1Table(cost perfmodel.ServingCost) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Figure S1 — serving capacity, probed cost/pass %.0fµs + %.1fµs/row, batch cap %d, latency at 60%% load",
			1e6*cost.PassSec, 1e6*cost.RowSec, figS1MaxBatch),
		"replicas", "submitted_as", "max_qps", "offered_qps", "batch_fill", "p50_ms", "p99_ms", "bulk_p99_ms")
	pts := perfmodel.FigureS1(cost, figS1MaxBatch,
		[]int{1, 2, 4, 8},
		[]time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond},
		0.6, 0, 0.25)
	for _, p := range pts {
		path := "request"
		if p.Window > 0 {
			path = "call " + p.Window.String()
		}
		tab.AddRow(p.Replicas, path, p.MaxQPS, p.OfferedQPS,
			p.Occupancy, p.P50Ms, p.P99Ms, p.BulkP99Ms)
	}
	return tab
}

// FigureS1PaperTable projects the probed host throughput onto the
// paper-scale architecture (the 49k-output Default64 bundle): the
// probed RowSec and the probed model's forward-only flops give an
// effective GEMM rate for this host, and the paper arch's much larger
// per-row work is costed at that rate — the capacity-planning step the
// ROADMAP's "millions of users" target needs. Pass the cfg returned by
// ProbeServingCost.
func FigureS1PaperTable(cost perfmodel.ServingCost, probed cyclegan.Config) (*metrics.Table, error) {
	hostFlops := figS1Arch(probed).ServeFlopsPerRow() / cost.RowSec
	paper, err := perfmodel.ServingCostFromArch(perfmodel.PaperArch(), hostFlops, cost.PassSec)
	if err != nil {
		return nil, err
	}
	tab := metrics.NewTable(
		fmt.Sprintf("Figure S1b — paper-scale projection (%.2g flops/row at %.2g flops/s/replica)",
			paper.RowSec*hostFlops, hostFlops),
		"replicas", "max_qps", "p50_ms", "p99_ms")
	for _, rep := range []int{1, 16, 64, 256} {
		s := perfmodel.ServingScenario{
			Cost:     paper,
			Replicas: rep,
			MaxBatch: figS1MaxBatch,
			Window:   2 * time.Millisecond,
		}
		s.OfferedQPS = 0.6 * s.MaxQPS()
		r := s.Report()
		tab.AddRow(rep, r.MaxQPS, 1e3*r.P50, 1e3*r.P99)
	}
	return tab, nil
}
