package serve

import (
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// spinModel burns a deterministic amount of CPU per pass and per row,
// so the probe's fitted constants have a known ground truth.
type spinModel struct {
	passCost time.Duration
	rowCost  time.Duration
}

func (m *spinModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 3, Out: 2}}
}

func (m *spinModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	spin(m.passCost + time.Duration(x.Rows)*m.rowCost)
	return tensor.New(x.Rows, 2), nil
}

// spin busy-waits (sleeping would vanish from wall-clock minima under
// timer coalescing far less predictably than spinning does).
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// passLog wraps a model and records, per batch size, every Run call: how
// many there were, when the first began, and when the last began and
// ended.
type passLog struct {
	Model
	calls                map[int]int
	first, lastRun, done map[int]time.Time
}

func (l *passLog) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	now := time.Now()
	if l.calls[x.Rows] == 0 {
		l.first[x.Rows] = now
	}
	l.calls[x.Rows]++
	l.lastRun[x.Rows] = now
	y, err := l.Model.Run(method, x)
	l.done[x.Rows] = time.Now()
	return y, err
}

// probeLogged probes m through a passLog and checks that the model ran
// only batches of 1 and res.Batch rows, and that the result counts
// every pass it ran.
func probeLogged(t *testing.T, m Model, maxBatch int) (ProbeResult, *passLog) {
	t.Helper()
	l := &passLog{Model: m, calls: map[int]int{}, first: map[int]time.Time{}, lastRun: map[int]time.Time{}, done: map[int]time.Time{}}
	res, err := CostProbe(l, MethodPredict, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch < 2 || res.Batch > maxBatch || len(l.calls) != 2 || l.calls[1] == 0 || l.calls[res.Batch] == 0 {
		t.Fatalf("Batch = %d at maxBatch %d, but the model ran passes of %v rows", res.Batch, maxBatch, l.calls)
	}
	if n := l.calls[1] + l.calls[res.Batch]; res.Passes != n {
		t.Fatalf("Passes = %d, but the model ran %d passes", res.Passes, n)
	}
	return res, l
}

// checkFit holds a probe's constants to m's within loose windows: the
// probe also pays real allocation/copy cost on top of the synthetic
// spin, so it may only overshoot.
func checkFit(t *testing.T, res ProbeResult, m *spinModel) {
	t.Helper()
	if got, want := res.PassSec, m.passCost.Seconds(); got < 0.5*want || got > 3*want {
		t.Fatalf("PassSec = %v, want ~%v", got, want)
	}
	if got, want := res.RowSec, m.rowCost.Seconds(); got < 0.5*want || got > 3*want {
		t.Fatalf("RowSec = %v, want ~%v", got, want)
	}
}

func TestCostProbeRecoversKnownCosts(t *testing.T) {
	m := &spinModel{passCost: 400 * time.Microsecond, rowCost: 30 * time.Microsecond}
	res, _ := probeLogged(t, m, 32)
	if res.Method != MethodPredict || res.Passes < 2*probeMinReps {
		t.Fatalf("unexpected probe bookkeeping: %+v", res)
	}
	checkFit(t, res, m)
	// The affine model must reproduce the timed endpoints.
	if c := res.Cost(1); c <= 0 {
		t.Fatalf("Cost(1) = %v", c)
	}
	if res.Cost(32) <= res.Cost(1) {
		t.Fatal("cost must grow with batch size")
	}
}

func TestCostProbeErrors(t *testing.T) {
	m := &spinModel{}
	if _, err := CostProbe(m, "nope", 32); err == nil {
		t.Fatal("unknown method must fail")
	}
	if _, err := CostProbe(m, MethodPredict, 1); err == nil {
		t.Fatal("maxBatch < 2 must fail")
	}
}

// quietLog wraps a model and counts the Run calls that began in a quiet
// process (parallel.Quiet), where a long GEMM pulls its tiles.
type quietLog struct {
	Model
	runs, quiet int
}

func (l *quietLog) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	l.runs++
	if parallel.Quiet() {
		l.quiet++
	}
	return l.Model.Run(method, x)
}

// TestCostProbeTimesWaves: a probe started in a quiet process times every
// pass with the process marked interactive, so its long GEMMs run in waves,
// as a probe beside interactive traffic times them, and sibling backends
// stay comparable whatever each was doing when it probed.
func TestCostProbeTimesWaves(t *testing.T) {
	for deadline := time.Now().Add(10 * time.Second); !parallel.Quiet(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the process was not quiet 10 s on")
		}
	}
	m := &quietLog{Model: &spinModel{passCost: 100 * time.Microsecond, rowCost: 20 * time.Microsecond}}
	if _, err := CostProbe(m, MethodPredict, 8); err != nil {
		t.Fatal(err)
	}
	if m.runs == 0 || m.quiet != 0 {
		t.Errorf("%d of the probe's %d passes ran in a quiet process", m.quiet, m.runs)
	}
}

// TestCostProbeStopsOnceSettled: a model whose every pass costs the same
// settles within a few dozen passes per batch size, long before the
// 150 ms ceiling.
func TestCostProbeStopsOnceSettled(t *testing.T) {
	m := &spinModel{passCost: time.Millisecond, rowCost: 20 * time.Microsecond}
	t0 := time.Now()
	res, l := probeLogged(t, m, 32)
	took := time.Since(t0)
	for _, b := range []int{1, res.Batch} {
		if n := l.calls[b]; n > 48 {
			t.Errorf("batch %d: %d passes, want a few dozen at most", b, n)
		}
	}
	if took > probeBudget {
		t.Errorf("probe took %v, want well under 2 × %v", took, probeBudget)
	}
}

// warmModel is a spinModel whose first cold passes at each batch size
// run 5× slower, as a model does while its caches and allocator warm up.
type warmModel struct {
	spinModel
	cold int
	seen map[int]int
}

func (m *warmModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	cost := m.passCost + time.Duration(x.Rows)*m.rowCost
	if m.seen[x.Rows]++; m.seen[x.Rows] <= m.cold {
		cost *= 5
	}
	spin(cost)
	return tensor.New(x.Rows, 2), nil
}

// TestCostProbeWaitsOutSlowWarmup: eight slow passes are as long a
// plateau as the eight-pass confirmation can outlast. The probe must keep
// going past it and fit the steady cost, not the warm-up's.
func TestCostProbeWaitsOutSlowWarmup(t *testing.T) {
	m := &warmModel{spinModel: spinModel{passCost: 400 * time.Microsecond, rowCost: 30 * time.Microsecond}, cold: 8, seen: map[int]int{}}
	res, l := probeLogged(t, m, 32)
	for _, b := range []int{1, res.Batch} {
		if n := l.calls[b]; n <= m.cold {
			t.Fatalf("batch %d: stopped after %d passes, inside the %d-pass warm-up", b, n, m.cold)
		}
	}
	checkFit(t, res, &m.spinModel)
}

// decayModel runs each pass at a batch size a fraction rate faster than
// the last, from 5 ms.
type decayModel struct {
	spinModel
	rate float64
	next map[int]time.Duration
}

func (m *decayModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	d, ok := m.next[x.Rows]
	if !ok {
		d = 5 * time.Millisecond
	}
	spin(d)
	m.next[x.Rows] = time.Duration(float64(d) * (1 - m.rate))
	return tensor.New(x.Rows, 2), nil
}

// TestCostProbeSettlesUnderSlowDrift: a minimum that creeps down 0.02 % a
// pass falls far less than 1 % over the eight-pass confirmation, so it
// counts as settled; a rule that restarted on any drop would run all the
// way to the ceiling (about 30 passes).
func TestCostProbeSettlesUnderSlowDrift(t *testing.T) {
	res, l := probeLogged(t, &decayModel{rate: 0.0002, next: map[int]time.Duration{}}, 32)
	for _, b := range []int{1, res.Batch} {
		if n := l.calls[b]; n > 20 {
			t.Errorf("batch %d: %d passes, want about 9", b, n)
		}
	}
}

// TestCostProbeStopsAtBudgetWhileImproving: when every pass is 2 % faster
// than the last, the minimum never settles, and each batch size stops at
// the first pass that ends past the ceiling, so its last pass began
// before it.
func TestCostProbeStopsAtBudgetWhileImproving(t *testing.T) {
	res, l := probeLogged(t, &decayModel{rate: 0.02, next: map[int]time.Duration{}}, 32)
	const slack = time.Millisecond // the gather and copy around each Run
	for _, b := range []int{1, res.Batch} {
		if span := l.done[b].Sub(l.first[b]); span < probeBudget-slack {
			t.Errorf("batch %d: stopped after %v of improving passes, before the %v ceiling", b, span, probeBudget)
		}
		if began := l.lastRun[b].Sub(l.first[b]); began > probeBudget+slack {
			t.Errorf("batch %d: began a pass %v in, past the %v ceiling", b, began, probeBudget)
		}
	}
}

// TestCostProbeSlowModelRunsMinReps: at 80 ms a pass, even two rows are
// predicted past the ceiling, so the larger batch halves down to 2; the
// ceiling has passed by the second pass, so each batch size runs exactly
// probeMinReps passes.
func TestCostProbeSlowModelRunsMinReps(t *testing.T) {
	res, l := probeLogged(t, &spinModel{passCost: 80 * time.Millisecond}, 32)
	if res.Batch != 2 {
		t.Errorf("timed batch %d, want 2", res.Batch)
	}
	for _, b := range []int{1, res.Batch} {
		if n := l.calls[b]; n != probeMinReps {
			t.Errorf("batch %d: %d passes, want %d", b, n, probeMinReps)
		}
	}
}

// TestCostProbeKeepsLargeBatchInsideBudget: a 32-row pass of this model
// costs about three budgets (10 ms + 32 × 14 ms). A 24 ms single row
// predicts that 8 rows would not fit the budget and 4 would, so the probe
// times 4 rows (66 ms a pass). Every batch size's last pass begins
// inside the budget, so no loop runs past it by more than one pass; at
// least probeMinReps passes stand behind each fit point, and the fit
// through 1 and 4 rows still recovers both constants.
func TestCostProbeKeepsLargeBatchInsideBudget(t *testing.T) {
	m := &spinModel{passCost: 10 * time.Millisecond, rowCost: 14 * time.Millisecond}
	res, l := probeLogged(t, m, 32)
	if res.Batch != 4 {
		t.Errorf("timed batch %d, want 4", res.Batch)
	}
	const slack = time.Millisecond // the gather and copy around each Run
	for _, b := range []int{1, res.Batch} {
		if n := l.calls[b]; n < probeMinReps {
			t.Errorf("batch %d: %d passes, want at least %d", b, n, probeMinReps)
		}
		if began := l.lastRun[b].Sub(l.first[b]); began > probeBudget+slack {
			t.Errorf("batch %d: began a pass %v in, past the %v budget", b, began, probeBudget)
		}
	}
	checkFit(t, res, m)
}

// TestCostProbeTimesMaxBatchWhenItFits: at costs like tiny8's and
// small16's (a single row well under 150 ms / 64), the probe times
// maxBatch itself, as it always did.
func TestCostProbeTimesMaxBatchWhenItFits(t *testing.T) {
	for _, m := range []*spinModel{
		{passCost: 10 * time.Microsecond, rowCost: 45 * time.Microsecond},   // tiny8
		{passCost: 160 * time.Microsecond, rowCost: 310 * time.Microsecond}, // small16
	} {
		res, _ := probeLogged(t, m, 64)
		if res.Batch != 64 {
			t.Errorf("%v + %v/row: timed batch %d, want 64", m.passCost, m.rowCost, res.Batch)
		}
	}
}

// BenchmarkCostProbe runs the probe jagserve runs on every load and hot
// swap — a one-replica pool at maxBatch 64 — for the bench's tiny8,
// small16 and paper64 geometries. passes/op is what the stop rule spent,
// timed_batch the larger batch it timed, capacity_qps the mean rate it
// published; ns/op is the layer number behind jagbench's
// serve_pool.probe_ms.
func BenchmarkCostProbe(b *testing.B) {
	for _, bc := range []struct {
		name string
		geom jag.Config
	}{{"tiny8", jag.Tiny8}, {"small16", jag.Small16}, {"paper64", jag.Default64}} {
		b.Run(bc.name, func(b *testing.B) {
			pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(cyclegan.DefaultConfig(bc.geom), 1)}, false)
			if err != nil {
				b.Fatal(err)
			}
			passes, batch, qps := 0, 0, 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := CostProbe(pool, MethodPredict, 64)
				if err != nil {
					b.Fatal(err)
				}
				passes, batch, qps = passes+res.Passes, batch+res.Batch, qps+res.QPS(64, 1)
			}
			n := float64(b.N)
			b.ReportMetric(float64(passes)/n, "passes/op")
			b.ReportMetric(float64(batch)/n, "timed_batch")
			b.ReportMetric(qps/n, "capacity_qps")
		})
	}
}
