package perfmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// testCost is a plausible CPU-host calibration: 100µs per pass, 50µs
// per row.
func testCost() ServingCost { return ServingCost{PassSec: 100e-6, RowSec: 50e-6} }

func testServing() ServingScenario {
	return ServingScenario{
		Cost:     testCost(),
		Replicas: 2,
		MaxBatch: 64,
		Window:   2 * time.Millisecond,
	}
}

func TestServeFlopsPerRow(t *testing.T) {
	a := PaperArch()
	_, dec, fwd, _, _ := a.Params()
	pred := a.ServeFlopsPerRow()
	if pred != 2*float64(fwd+dec) {
		t.Fatalf("predict flops = %g, want 2*(fwd+dec)", pred)
	}
	// Serving is forward-only: one served predict row must cost far
	// less than one training sample (6 flops/param over 3 phases).
	if pred >= a.FlopsPerSample()/2 {
		t.Fatal("serving a row should be much cheaper than training on it")
	}
}

func TestServingCostFromArch(t *testing.T) {
	a := PaperArch()
	c, err := ServingCostFromArch(a, 1e12, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	if c.PassSec != 20e-6 || c.RowSec != a.ServeFlopsPerRow()/1e12 {
		t.Fatalf("unexpected projected cost %+v", c)
	}
	if _, err := ServingCostFromArch(a, 0, 0); err == nil {
		t.Fatal("zero throughput must fail")
	}
}

func TestServingValidate(t *testing.T) {
	good := testServing()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*ServingScenario){
		"zero row cost":   func(s *ServingScenario) { s.Cost.RowSec = 0 },
		"no replicas":     func(s *ServingScenario) { s.Replicas = 0 },
		"negative window": func(s *ServingScenario) { s.Window = -time.Millisecond },
		"hit rate 1":      func(s *ServingScenario) { s.CacheHitRate = 1 },
		"negative load":   func(s *ServingScenario) { s.OfferedQPS = -1 },
		"bulk over 1":     func(s *ServingScenario) { s.BulkFraction = 1.5 },
		"zero max batch":  func(s *ServingScenario) { s.MaxBatch = 0 },
	} {
		bad := testServing()
		mutate(&bad)
		if bad.Validate() == nil {
			t.Fatalf("%s must be invalid", name)
		}
	}
}

// Capacity must scale ~linearly with replicas and improve with batching
// (a larger cap amortizes PassSec over more rows).
func TestServingCapacityScaling(t *testing.T) {
	s := testServing()
	base := s.MaxQPS()
	if base <= 0 {
		t.Fatalf("MaxQPS = %v", base)
	}
	s.Replicas = 4
	if got := s.MaxQPS(); math.Abs(got-2*base) > 1e-6*base {
		t.Fatalf("doubling replicas: MaxQPS %v -> %v, want exactly 2x", base, got)
	}
	batched, unbatched := testServing(), testServing()
	unbatched.MaxBatch = 1
	if !(batched.MaxQPS() > 1.5*unbatched.MaxQPS()) {
		t.Fatalf("batching should raise capacity: %v vs %v", batched.MaxQPS(), unbatched.MaxQPS())
	}
	// The batching benefit is exactly the amortization ratio.
	want := batched.Cost.Cost(1) / (batched.Cost.Cost(64) / 64)
	if got := batched.MaxQPS() / unbatched.MaxQPS(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("batched/unbatched = %v, want %v", got, want)
	}
}

func TestServingCacheRaisesCapacity(t *testing.T) {
	s := testServing()
	cold := s.MaxQPS()
	s.CacheHitRate = 0.5
	if got := s.MaxQPS(); math.Abs(got-2*cold) > 1e-6*cold {
		t.Fatalf("50%% hit rate should double offered capacity: %v vs %v", got, cold)
	}
}

// Window-bound vs size-bound occupancy: at low load the window closes
// partial batches; at high load batches fill to MaxBatch first.
func TestServingOccupancyRegimes(t *testing.T) {
	s := testServing()
	s.OfferedQPS = 500 // 1 row/window on average
	low := s.Report()
	if low.Saturated {
		t.Fatal("low load saturated")
	}
	if !(low.Occupancy > 1 && low.Occupancy < 4) {
		t.Fatalf("window-bound occupancy = %v", low.Occupancy)
	}
	if math.Abs(low.FillSec-s.Window.Seconds()) > 1e-12 {
		t.Fatalf("window-bound fill = %v, want the window", low.FillSec)
	}
	s.OfferedQPS = 0.9 * s.MaxQPS()
	high := s.Report()
	if high.Saturated {
		t.Fatal("90% load saturated")
	}
	if high.Occupancy != 64 {
		t.Fatalf("size-bound occupancy = %v, want 64", high.Occupancy)
	}
	if !(high.FillSec < s.Window.Seconds()) {
		t.Fatal("a full batch must flush before the window")
	}
	if !(high.P99 > low.P99) {
		t.Fatalf("p99 should grow with load: %v vs %v", high.P99, low.P99)
	}
	if !(high.P99 > high.P50) {
		t.Fatalf("p99 %v must exceed p50 %v", high.P99, high.P50)
	}
}

func TestServingSaturation(t *testing.T) {
	s := testServing()
	s.OfferedQPS = 1.2 * s.MaxQPS()
	r := s.Report()
	if !r.Saturated || !math.IsInf(r.P99, 1) {
		t.Fatalf("overloaded scenario must saturate: %+v", r)
	}
	s.OfferedQPS = 0.95 * s.MaxQPS()
	if r := s.Report(); r.Saturated {
		t.Fatalf("sub-capacity load must not saturate: %+v", r)
	}
}

// The bulk lane pays for its preemption: at equal load its p99 must be
// no better than the interactive lane's, and the gap must widen with
// utilization.
func TestServingPriorityLanes(t *testing.T) {
	s := testServing()
	s.BulkFraction = 0.5
	s.OfferedQPS = 0.8 * s.MaxQPS()
	r := s.Report()
	if !(r.BulkP99 >= r.P99) {
		t.Fatalf("bulk p99 %v beat interactive %v", r.BulkP99, r.P99)
	}
	gapHigh := r.BulkP99 - r.P99
	s.OfferedQPS = 0.3 * s.MaxQPS()
	r = s.Report()
	gapLow := r.BulkP99 - r.P99
	if !(gapHigh > gapLow) {
		t.Fatalf("priority gap should widen with load: %v vs %v", gapHigh, gapLow)
	}
	// No bulk traffic: a hypothetical bulk row still waits behind the
	// whole interactive backlog, so its p99 stays the worse of the two.
	s.BulkFraction = 0
	r = s.Report()
	if !(r.BulkP99 >= r.P99) {
		t.Fatalf("bulk p99 %v beat interactive %v with no bulk traffic", r.BulkP99, r.P99)
	}
}

// Window == 0 is the group-dispatch scenario: complete units, no timer.
// Its limits (one row per pass on an idle pool, MaxBatch at saturation,
// the same MaxQPS as any window) and its monotonicity in load.
func TestServingGroupDispatch(t *testing.T) {
	s := testServing()
	windowed := s
	s.Window = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("Window 0 must be valid: %v", err)
	}
	if s.MaxQPS() != windowed.MaxQPS() {
		t.Fatalf("MaxQPS %v without a window, %v with one: capacity is window-free", s.MaxQPS(), windowed.MaxQPS())
	}

	// Idle pool: a lone row waits for nothing and rides a pass of one.
	s.OfferedQPS, windowed.OfferedQPS = 50, 50
	low, lowWindowed := s.Report(), windowed.Report()
	if low.Saturated || low.FillSec != 0 || low.Occupancy != 1 {
		t.Fatalf("idle pool: %+v, want an unsaturated pass of one row and no fill wait", low)
	}
	if one := s.Cost.Cost(1); low.P50 != one || low.P99 < one || low.P99 > 1.1*one {
		t.Fatalf("idle pool p50 %v / p99 %v, want the single-row pass %v and barely more", low.P50, low.P99, one)
	}
	if saved := lowWindowed.P50 - low.P50; math.Abs(saved-windowed.Window.Seconds()/2) > 0.1*windowed.Window.Seconds() {
		t.Fatalf("dropping the window saved %v of p50, want about half of it", saved)
	}

	// Rising load: batches grow from 1 towards MaxBatch, latency never
	// falls, the pool never reports saturation below MaxQPS.
	prev := low
	for _, util := range []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99} {
		s.OfferedQPS = util * s.MaxQPS()
		r := s.Report()
		if r.Saturated || math.IsInf(r.BulkP99, 1) {
			t.Fatalf("saturated at %.0f%% of MaxQPS: %+v", 100*util, r)
		}
		if r.Occupancy < prev.Occupancy || r.P50 < prev.P50 || r.P99 < prev.P99 || r.BulkP50 < prev.BulkP50 || r.BulkP99 < prev.BulkP99 {
			t.Fatalf("not monotone in load at %.0f%%:\nprev %+v\nnow  %+v", 100*util, prev, r)
		}
		if r.P99 < r.P50 || r.BulkP50 < r.P50 || r.BulkP99 < r.P99 || r.Occupancy > float64(s.MaxBatch) {
			t.Fatalf("disordered report at %.0f%%: %+v", 100*util, r)
		}
		if r.Occupancy > 1 {
			// The fixed point: a pass takes the rows that arrive during one.
			if arrive := s.OfferedQPS * r.PassSec / float64(s.Replicas); math.Abs(arrive-r.Occupancy) > 1e-6*arrive {
				t.Fatalf("at %.0f%%: occupancy %v but %v rows arrive per pass", 100*util, r.Occupancy, arrive)
			}
			if r.Utilization < 1-1e-9 {
				t.Fatalf("at %.0f%%: batches of %v on a pool %v busy", 100*util, r.Occupancy, r.Utilization)
			}
		}
		prev = r
	}
	if prev.Occupancy < 0.7*float64(s.MaxBatch) {
		t.Fatalf("occupancy %v at 99%% of MaxQPS, want it closing on MaxBatch", prev.Occupancy)
	}
	s.OfferedQPS = s.MaxQPS()
	if r := s.Report(); !r.Saturated || !math.IsInf(r.P50, 1) || r.Occupancy != float64(s.MaxBatch) {
		t.Fatalf("at MaxQPS: %+v, want saturation at full batches", r)
	}

	// The cache takes its share before the queue sees anything.
	s.OfferedQPS, s.CacheHitRate = 0.9*s.MaxQPS(), 0.5
	if r := s.Report(); r.Saturated || r.MaxQPS != s.MaxQPS() {
		t.Fatalf("90%% of a cached pool's MaxQPS saturated it: %+v", r)
	}
}

// simulateGroupDispatch runs n Poisson arrivals at lam rows/s through
// the queue the Window == 0 model describes — one worker that, whenever
// it is free and rows are waiting, takes all of them (up to maxBatch) in
// one pass of cost.Cost(rows) — and returns the latency quantiles.
func simulateGroupDispatch(cost ServingCost, maxBatch int, lam float64, n int) (p50, p99 float64) {
	rng := rand.New(rand.NewSource(1))
	arrive := make([]float64, n)
	now := 0.0
	for i := range arrive {
		now += rng.ExpFloat64() / lam
		arrive[i] = now
	}
	lat := make([]float64, 0, n)
	free := 0.0
	for i := 0; i < n; {
		start := math.Max(free, arrive[i])
		j := i
		for j < n && arrive[j] <= start && j-i < maxBatch {
			j++
		}
		free = start + cost.Cost(float64(j-i))
		for ; i < j; i++ {
			lat = append(lat, free-arrive[i])
		}
	}
	sort.Float64s(lat)
	return lat[n/2], lat[n*99/100]
}

// The Window == 0 report against a simulation of the queue it models,
// from an idle pool to 90% of capacity (nearer saturation backlogs
// outgrow MaxBatch, which the model does not follow: it is up to 25%
// optimistic on p99 at 97%), for a pass with no fixed cost
// (the M/D/1 limit), with this repository's CPU-probed shape (fixed cost
// a tenth of a row), and with a fixed cost worth 5 and 50 rows (the
// fluid limit). A lost term shows as a factor of two somewhere in this
// grid; the model's own error is under 20%.
func TestServingGroupDispatchMatchesSimulation(t *testing.T) {
	const within = 1.25
	for _, cost := range []ServingCost{
		{PassSec: 0, RowSec: 10e-6},
		{PassSec: 1e-6, RowSec: 11e-6},
		{PassSec: 50e-6, RowSec: 10e-6},
		{PassSec: 500e-6, RowSec: 10e-6},
	} {
		s := ServingScenario{Cost: cost, Replicas: 1, MaxBatch: 64}
		for _, util := range []float64{0.02, 0.1, 0.3, 0.5, 0.7, 0.9} {
			s.OfferedQPS = util * s.MaxQPS()
			r := s.Report()
			p50, p99 := simulateGroupDispatch(cost, s.MaxBatch, s.OfferedQPS, 200_000)
			if ratio := r.P50 / p50; ratio < 1/within || ratio > within {
				t.Errorf("%+v at %.0f%%: p50 %.1fµs modelled, %.1fµs simulated (ratio %.2f)", cost, 100*util, 1e6*r.P50, 1e6*p50, ratio)
			}
			if ratio := r.P99 / p99; ratio < 1/within || ratio > within {
				t.Errorf("%+v at %.0f%%: p99 %.1fµs modelled, %.1fµs simulated (ratio %.2f)", cost, 100*util, 1e6*r.P99, 1e6*p99, ratio)
			}
		}
	}
}

func TestFigureS1Sweep(t *testing.T) {
	reps := []int{1, 2, 4}
	wins := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	pts := FigureS1(testCost(), 64, reps, wins, 0.6, 0, 0)
	if len(pts) != len(reps)*len(wins) {
		t.Fatalf("sweep size %d, want %d", len(pts), len(reps)*len(wins))
	}
	byRep := map[int][]FigureS1Point{}
	for _, p := range pts {
		if p.MaxQPS <= 0 || p.P50Ms <= 0 || p.P99Ms < p.P50Ms || math.IsInf(p.P99Ms, 1) {
			t.Fatalf("degenerate point %+v", p)
		}
		if p.OfferedQPS >= p.MaxQPS {
			t.Fatalf("operating point beyond capacity: %+v", p)
		}
		byRep[p.Replicas] = append(byRep[p.Replicas], p)
	}
	// Capacity grows with replicas at a fixed window.
	if !(byRep[4][0].MaxQPS > byRep[2][0].MaxQPS && byRep[2][0].MaxQPS > byRep[1][0].MaxQPS) {
		t.Fatalf("capacity not monotone in replicas: %+v", pts)
	}
	// A longer window cannot reduce capacity (MaxQPS is window-free)
	// but must raise low-load occupancy headroom — and the quoted p50
	// grows with the window at a fixed utilization only in the
	// window-bound regime; just pin that latencies stay ordered.
	for _, ps := range byRep {
		for _, p := range ps {
			if p.BulkP99Ms < p.P99Ms {
				t.Fatalf("bulk p99 beat interactive in %+v", p)
			}
		}
	}
}
