package serve

import (
	"fmt"
	"time"

	"repro/internal/tensor"
)

// CostProbe calibrates the serving capacity model against the running
// binary. The perfmodel serving scenario (internal/perfmodel) predicts
// p50/p99 latency and sustainable QPS from two constants — the fixed
// cost of one forward-pass dispatch and the marginal cost of one batch
// row — and those constants are host- and model-specific: GEMM
// throughput, allocator behaviour, and cache effects all move them.
// Rather than guessing, the probe times the real model the way the
// serving worker runs it (gather rows into a batch matrix, run the
// method, scatter rows back out) and fits the affine cost model
//
//	t(B) = PassSec + B·RowSec
//
// from measured pass times at batch size 1 and one larger batch:
// maxBatch, or its largest halving whose pass the batch-1 time predicts
// fits the probe's budget. Minimum-of-repetitions timing keeps scheduler
// noise out of the fit, the same way benchmarking harnesses do.

// ProbeResult is the calibrated cost of one model method on this host.
type ProbeResult struct {
	// Method is the probed model method.
	Method string
	// PassSec is the fixed cost of one forward-pass dispatch, seconds:
	// what a batch pays once regardless of its row count (allocation,
	// scheduling, and whatever dispatch cost the model's Run itself
	// carries: the probe times the model it is given).
	PassSec float64
	// RowSec is the marginal cost of one batch row, seconds: GEMM work
	// plus the gather/scatter copies the serving worker performs.
	RowSec float64
	// Passes is the number of timed forward passes behind the fit.
	Passes int
	// Batch is the larger batch size the fit was timed at (the smaller
	// is 1): maxBatch, unless a pass that large would not fit the probe's
	// budget.
	Batch int
}

// Cost returns the modeled duration of one forward pass of b rows.
func (p ProbeResult) Cost(b int) float64 { return p.PassSec + float64(b)*p.RowSec }

// QPS returns the sustainable row throughput the fit implies for a
// server flushing full batches of maxBatch rows across workers parallel
// execution units: workers·B/t(B). It is the number Open publishes via
// Server.SetCapacityQPS for fleet routing (at the server's effective
// MaxBatch, fitted at no fewer than 2 rows, so a cap of 1 has a rate
// too), and matches perfmodel.ServingScenario.MaxQPS at zero cache hit
// rate.
func (p ProbeResult) QPS(maxBatch, workers int) float64 {
	if maxBatch < 1 || workers < 1 {
		return 0
	}
	c := p.Cost(maxBatch)
	if c <= 0 {
		return 0
	}
	return float64(workers) * float64(maxBatch) / c
}

// One batch size's timing loop stops, after at least probeMinReps
// passes, once its minimum has settled: no pass has lowered it by more
// than 1 % for max(8, k) passes, where pass k made the last such drop.
// Whatever the minimum does, the loop stops at the first pass that ends
// past probeBudget (or at 10 000 passes). CostProbe picks its larger
// batch so that one pass is predicted to fit probeBudget, so that loop
// ends near the budget, not after probeMinReps passes of several budgets
// each; a pass longer than half the budget still runs probeMinReps.
const (
	probeMinReps = 3
	probeBudget  = 150 * time.Millisecond
)

// CostProbe times method on m at batch size 1, then at maxBatch halved
// until the batch-1 minimum t₁ predicts a pass fits probeBudget
// (t₁·B ≤ probeBudget, B ≥ 2), and returns the per-pass and per-row
// costs fitted through the two. The timed loop reproduces the
// serving worker's data path — input rows gathered into the worker's
// reused batch matrix (the worker's own gather), one Run call, output
// rows copied back out — so batch-assembly overhead lands in the
// constants instead of being lost. Inputs are
// mid-cube (0.5 everywhere), matching the reload canary; forward-pass
// cost does not depend on the input values, only the shapes.
func CostProbe(m Model, method string, maxBatch int) (ProbeResult, error) {
	dims, ok := m.Dims()[method]
	if !ok {
		return ProbeResult{}, fmt.Errorf("%w %q", ErrUnknownMethod, method)
	}
	if maxBatch < 2 {
		return ProbeResult{}, fmt.Errorf("serve: probe needs maxBatch >= 2, got %d", maxBatch)
	}
	small, n1, err := timePass(m, method, dims, 1)
	if err != nil {
		return ProbeResult{}, err
	}
	b := maxBatch
	for b > 2 && small*float64(b) > probeBudget.Seconds() {
		b = max(b/2, 2)
	}
	large, n2, err := timePass(m, method, dims, b)
	if err != nil {
		return ProbeResult{}, err
	}
	row := (large - small) / float64(b-1)
	if row < 0 {
		// A model whose large batch timed faster than its single row is
		// pure noise at this scale; fold everything into the per-row
		// term so capacity stays finite.
		row = large / float64(b)
	}
	pass := small - row
	if pass < 0 {
		pass = 0
	}
	return ProbeResult{Method: method, PassSec: pass, RowSec: row, Passes: n1 + n2, Batch: b}, nil
}

// timePass returns the minimum observed duration, in seconds, of one
// worker-shaped forward pass of b rows, and how many passes it timed.
func timePass(m Model, method string, d Dims, b int) (float64, int, error) {
	rows := make([]*request, b)
	for i := range rows {
		rows[i] = &request{x: make([]float32, d.In)}
		for j := range rows[i].x {
			rows[i].x[j] = 0.5
		}
	}
	var x tensor.Matrix // one gather matrix for every pass, as a worker keeps
	out := make([]float32, d.Out)
	best, floor, last := 0.0, 0.0, 0 // minimum; the minimum after its last >1 % drop, on pass last
	start := time.Now()
	for reps := 1; ; reps++ {
		t0 := time.Now()
		gather(&x, rows, d.In)
		y, err := m.Run(method, &x)
		if err != nil {
			return 0, reps, fmt.Errorf("serve: probe %s: %w", method, err)
		}
		for i := 0; i < b; i++ {
			copy(out, y.Row(i))
		}
		el := time.Since(t0).Seconds()
		if reps == 1 || el < best {
			best = el
		}
		if reps == 1 || el < 0.99*floor {
			floor, last = el, reps
		}
		settled := reps-last >= max(8, last) // confirmed for as many passes as it took to find
		if reps >= probeMinReps && (settled || time.Since(start) >= probeBudget) || reps >= 10_000 {
			return best, reps, nil
		}
	}
}
