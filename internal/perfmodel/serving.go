package perfmodel

import (
	"fmt"
	"math"
	"time"
)

// Serving capacity model. Figures 9–11 predict epoch time from an
// analytical cost decomposition; this file gives the inference path the
// same treatment so the serve benchmarks become capacity planning: given
// the calibrated cost of one forward pass, how many requests per second
// can a replica pool sustain, and what latency does a caller see at a
// given load, replica count, and batch window?
//
// The model mirrors internal/serve's pipeline mechanically:
//
//   - arrival: callers submit rows at OfferedQPS; a CacheHitRate
//     fraction answers from the LRU without touching the queue, so only
//     the miss stream loads the model;
//   - batch-window fill: rows sent one at a time through Server.Call
//     open a window of length Window with the first queued row; the
//     batch flushes at MaxBatch rows or when the window closes,
//     whichever is first. At low load the window bounds occupancy
//     (B = 1 + λ·W); at high load the size cap does (B = MaxBatch,
//     filled in (MaxBatch-1)/λ);
//   - group dispatch (Window == 0): rows that arrive as complete units
//     — every HTTP request — wait for no window. An idle worker takes
//     them at once; a busy one takes, at its next pass, everything that
//     queued during this one. Occupancy is the fixed point of that:
//     B = λ·t(B)/Replicas, floored at one row and capped at MaxBatch;
//   - service: one flush costs Cost.PassSec + B·Cost.RowSec — the
//     affine cost model serve.CostProbe calibrates on the running
//     binary, with the per-row slope tied to the architecture's
//     forward-only GEMM work (Arch.ServeFlopsPerRow) when projecting to
//     an uncalibrated model;
//   - parallelism: Replicas workers each run one batch at a time, so
//     the pool is an M/D/c queue of batches (Poisson batch arrivals,
//     deterministic service, c = Replicas). Queue delay uses the
//     Sakasegawa approximation;
//   - lanes: the batcher drains Interactive strictly before Bulk, which
//     the model treats as 2-class non-preemptive priority — interactive
//     waits shrink toward the empty-queue residual while bulk waits
//     inflate by 1/(1-ρ).
//
// Reported latency is the miss path (window wait + queue wait + pass);
// cache hits return in microseconds and would only flatter the
// percentiles. Like the training model, absolute numbers are only as
// good as the calibrated constants — the tier-1 capacity test validates
// prediction against a measured in-process benchmark.

// ServeFlopsPerRow returns the forward-only GEMM work of one served
// predict row: the forward net and the decoder (Dec(F(x))) at ~2 flops per
// parameter per row. Training's 6-flop forward+backward cost
// (FlopsPerSample) never applies to serving.
func (a Arch) ServeFlopsPerRow() float64 {
	_, dec, fwd, _, _ := a.Params()
	return 2 * float64(fwd+dec)
}

// ServingCost is the calibrated cost of one batched forward pass:
// t(B) = PassSec + B·RowSec. serve.CostProbe measures both constants on
// the running binary; ServingCostFromArch projects them for a model too
// large to probe.
type ServingCost struct {
	// PassSec is the fixed per-dispatch cost, paid once per flush.
	PassSec float64
	// RowSec is the marginal cost of one batch row.
	RowSec float64
}

// Cost returns the modeled duration of one forward pass of b rows.
func (c ServingCost) Cost(b float64) float64 { return c.PassSec + b*c.RowSec }

// ServingCostFromArch projects a predict serving cost for an architecture
// from first principles: its forward-only GEMM work divided by the host's
// effective GEMM throughput (calibrate flopsPerSec by probing any model on
// the same host: RowSec·flops/row of the probed net), plus a fixed
// per-pass cost.
func ServingCostFromArch(a Arch, flopsPerSec, passSec float64) (ServingCost, error) {
	if flopsPerSec <= 0 {
		return ServingCost{}, fmt.Errorf("perfmodel: flopsPerSec must be positive, got %g", flopsPerSec)
	}
	return ServingCost{PassSec: passSec, RowSec: a.ServeFlopsPerRow() / flopsPerSec}, nil
}

// ServingScenario describes one serving configuration to be costed, the
// serving analogue of Scenario: workload (offered load, cache hit rate,
// lane mix) plus machine (calibrated pass cost, replica pool) plus
// tuning (batch size cap, batch window).
type ServingScenario struct {
	Cost ServingCost
	// Replicas is the pool width: concurrent forward passes.
	Replicas int
	// MaxBatch caps rows per forward pass (serve.Config.MaxBatch).
	MaxBatch int
	// Window is the batch-fill window (serve.Config.MaxDelay) rows
	// submitted one at a time through Server.Call wait out. Zero means
	// arrivals are complete units (the HTTP path): no window, dispatch
	// when a worker is idle.
	Window time.Duration
	// OfferedQPS is the total request arrival rate, rows/s, including
	// rows the cache will answer.
	OfferedQPS float64
	// CacheHitRate is the fraction of offered rows answered from the
	// LRU response cache without a forward pass, in [0, 1).
	CacheHitRate float64
	// BulkFraction is the share of offered rows in the Bulk lane, in
	// [0, 1]; the remainder is Interactive.
	BulkFraction float64
}

// Validate reports whether the scenario is well-formed.
func (s ServingScenario) Validate() error {
	if s.Cost.RowSec <= 0 || s.Cost.PassSec < 0 {
		return fmt.Errorf("perfmodel: invalid serving cost %+v", s.Cost)
	}
	if s.Replicas < 1 || s.MaxBatch < 1 || s.Window < 0 {
		return fmt.Errorf("perfmodel: invalid serving shape %+v", s)
	}
	if s.OfferedQPS < 0 || s.CacheHitRate < 0 || s.CacheHitRate >= 1 ||
		s.BulkFraction < 0 || s.BulkFraction > 1 {
		return fmt.Errorf("perfmodel: invalid serving workload %+v", s)
	}
	return nil
}

// ServingReport is the costed result of one serving scenario. Latencies
// are for rows that miss the cache and reach the model; a saturated
// scenario (offered misses beyond MaxQPS·(1-hit)) reports infinite
// latencies.
type ServingReport struct {
	// Saturated is true when the miss stream exceeds the pool's service
	// capacity: the queue grows without bound (in the real server,
	// backpressure converts the excess into ErrOverloaded).
	Saturated bool

	// Occupancy is the expected rows per forward pass at this load.
	Occupancy float64
	// FillSec is how long the first row of a batch waits for its flush.
	FillSec float64
	// PassSec is the duration of one forward pass at this occupancy.
	PassSec float64
	// Utilization is the pool's busy fraction, 0..1 (≥1 ⇒ Saturated).
	Utilization float64

	// P50/P99 are interactive-lane latencies, seconds; BulkP50/BulkP99
	// the bulk lane's, inflated by priority starvation.
	P50, P99         float64
	BulkP50, BulkP99 float64

	// MaxQPS is the highest offered load (rows/s, cache hits included)
	// this configuration can sustain: the size-capped pass rate times
	// the pool width, corrected for the cache.
	MaxQPS float64
}

// MaxQPS returns the scenario's sustainable offered load independent of
// OfferedQPS: at saturation every pass is full (MaxBatch rows), each
// replica completes one per Cost(MaxBatch), and the cache multiplies
// the miss capacity back into offered rows.
func (s ServingScenario) MaxQPS() float64 {
	b := float64(s.MaxBatch)
	missCap := float64(s.Replicas) * b / s.Cost.Cost(b)
	return missCap / (1 - s.CacheHitRate)
}

// expTail is the p99/mean ratio of an exponential tail (ln 100): the
// queue-wait distribution of a loaded M/D/c is approximately
// exponential beyond its mean, which is the standard heavy-traffic
// approximation.
const expTail = 4.605170185988091

// Report costs the scenario. It panics on an invalid scenario, matching
// Scenario.Epoch.
func (s ServingScenario) Report() ServingReport {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	r := ServingReport{MaxQPS: s.MaxQPS()}
	lam := s.OfferedQPS * (1 - s.CacheHitRate) // miss rows/s into the queue
	if s.Window == 0 {
		s.groupDispatch(lam, &r)
		return r
	}
	w := s.Window.Seconds()

	// Batch-window fill: does the size cap or the window close the
	// batch first?
	bmax := float64(s.MaxBatch)
	if lam*w >= bmax-1 {
		r.Occupancy = bmax
		if lam > 0 {
			r.FillSec = (bmax - 1) / lam
		}
	} else {
		r.Occupancy = 1 + lam*w
		r.FillSec = w
	}
	r.PassSec = s.Cost.Cost(r.Occupancy)

	// M/D/c occupancy: batches arrive at lam/B and each of Replicas
	// workers serves one in PassSec.
	mu := float64(s.Replicas) * r.Occupancy / r.PassSec // rows/s service capacity
	r.Utilization = 1
	if mu > 0 {
		r.Utilization = lam / mu
	}
	if r.Utilization >= 1 {
		r.Saturated = true
		inf := math.Inf(1)
		r.P50, r.P99, r.BulkP50, r.BulkP99 = inf, inf, inf, inf
		return r
	}

	// Sakasegawa mean queue wait for M/D/c, in units of one pass:
	// Wq ≈ ρ^(√(2(c+1))-1)/(c(1-ρ)) · T · (Ca²+Cs²)/2 with Ca²=1,
	// Cs²=0 — at c=1 this is the exact M/D/1 wait ρT/(2(1-ρ)).
	c := float64(s.Replicas)
	rho := r.Utilization
	wq := math.Pow(rho, math.Sqrt(2*(c+1))-1) / (c * (1 - rho)) * r.PassSec / 2

	// 2-class non-preemptive priority: scale the single-class wait so
	// the interactive lane only queues behind interactive work (plus
	// the residual of the pass in progress) while the bulk lane also
	// absorbs everything the interactive lane displaced. With no bulk
	// traffic the interactive wait collapses to wq.
	rhoI := rho * (1 - s.BulkFraction)
	w0 := wq * (1 - rho)
	wInteractive := w0 / (1 - rhoI)
	wBulk := w0 / ((1 - rhoI) * (1 - rho))

	// A row waits for its batch to fill (uniformly distributed over the
	// fill span), for a free replica, and for the pass itself. The p99
	// rides the exponential tail of the queue wait.
	r.P50 = r.FillSec/2 + wInteractive + r.PassSec
	r.P99 = r.FillSec + expTail*wInteractive + r.PassSec
	r.BulkP50 = r.FillSec/2 + wBulk + r.PassSec
	r.BulkP99 = r.FillSec + expTail*wBulk + r.PassSec
	return r
}

// groupDispatch costs the Window == 0 scenario: rows arrive as complete
// units and are dispatched by worker availability, not by a timer. Two
// limits anchor it. Where a pass has a fixed cost to amortise, the queue
// behaves as a fluid: each pass takes exactly the rows that arrived
// during the one before, and a row waits out the pass in progress. Where
// it has none (PassSec = 0) batching absorbs nothing and the pool is the
// M/D/c queue of single rows. Between them, a backlog one row above the
// fluid level decays by φ = λ·RowSec/Replicas per pass, so the fluid
// wait is stretched by 1 + φ/(1-φ)·RowSec/PassSec(B) — which is 1/(1-ρ)
// at PassSec = 0, Sakasegawa's M/D/c wait exactly, and → 1 as the fixed
// cost dominates. TestServingGroupDispatchMatchesSimulation holds both
// quantiles to a simulated bulk-service queue up to 90% of capacity;
// nearer saturation backlogs outgrow MaxBatch and the model, which lets
// no pass fall short, turns optimistic.
func (s ServingScenario) groupDispatch(lam float64, r *ServingReport) {
	c, bmax := float64(s.Replicas), float64(s.MaxBatch)
	missCap := c * bmax / s.Cost.Cost(bmax) // rows/s at full batches
	if lam >= missCap {
		r.Saturated, r.Occupancy, r.Utilization = true, bmax, 1
		r.PassSec = s.Cost.Cost(bmax)
		inf := math.Inf(1)
		r.P50, r.P99, r.BulkP50, r.BulkP99 = inf, inf, inf, inf
		return
	}
	// B = λ·t(B)/c solved for B: the rows that arrive during one pass.
	// Below one row per pass the pool idles between rows; from there to
	// MaxBatch it is always busy and batch growth carries the load.
	phi := lam * s.Cost.RowSec / c // < 1 below saturation
	r.Occupancy = math.Max(1, lam*s.Cost.PassSec/(c*(1-phi)))
	r.PassSec = s.Cost.Cost(r.Occupancy)
	r.Utilization = math.Min(1, lam*r.PassSec/(c*r.Occupancy))

	// With probability pWait every worker is busy (the exponent is
	// Sakasegawa's, as above) and the wait is uniform over the gap
	// between pass completions, pass/c; otherwise there is none.
	pWait := math.Pow(r.Utilization, math.Sqrt(2*(c+1))-1)
	stretch := 1 + phi/(1-phi)*s.Cost.RowSec/r.PassSec
	wait := func(pass, q float64) float64 {
		if pWait <= 1-q {
			return 0
		}
		return stretch * pass / c * (1 - (1-q)/pWait)
	}
	// The tail rides a fuller pass than the median does: arrivals during
	// a pass are Poisson, so the 99th percentile batch is the mean plus
	// 2.33 standard deviations.
	mean := lam * r.PassSec / c
	tailPass := s.Cost.Cost(math.Min(bmax, math.Max(r.Occupancy, mean+2.33*math.Sqrt(mean))))
	// Lanes only matter once a backlog outgrows one pass: the bulk lane
	// then also waits out the share of full-batch capacity that
	// interactive rows take ahead of it.
	ahead := lam / missCap * (1 - s.BulkFraction)
	r.P50 = wait(r.PassSec, 0.50) + r.PassSec
	r.P99 = wait(tailPass, 0.99) + tailPass
	r.BulkP50 = wait(r.PassSec, 0.50)/(1-ahead) + r.PassSec
	r.BulkP99 = wait(tailPass, 0.99)/(1-ahead) + tailPass
}

// FigureS1Point is one cell of the serving-capacity sweep: a replica
// count and batch window (zero: complete units, no window), the sustainable QPS, and the latency a caller
// sees at a utilization-targeted operating point.
type FigureS1Point struct {
	Replicas int
	Window   time.Duration
	// MaxQPS is the sustainable offered load of this configuration.
	MaxQPS float64
	// OfferedQPS is the operating point (util · MaxQPS) the latencies
	// below are quoted at.
	OfferedQPS float64
	Occupancy  float64
	// P50Ms/P99Ms are interactive-lane latencies at the operating
	// point, milliseconds.
	P50Ms, P99Ms float64
	// BulkP99Ms is the bulk lane's p99 at the same point.
	BulkP99Ms float64
}

// FigureS1 sweeps serving capacity over replica counts and batch
// windows — the serving analogue of Figure 11's trainer sweep. Each
// point reports the configuration's sustainable QPS and its latency at
// util·MaxQPS offered load (util in (0,1), e.g. 0.6 for a production
// headroom target) with the given cache hit rate and bulk share.
func FigureS1(cost ServingCost, maxBatch int, replicas []int, windows []time.Duration,
	util, cacheHit, bulkFrac float64) []FigureS1Point {
	var out []FigureS1Point
	for _, rep := range replicas {
		for _, win := range windows {
			s := ServingScenario{
				Cost:         cost,
				Replicas:     rep,
				MaxBatch:     maxBatch,
				Window:       win,
				CacheHitRate: cacheHit,
				BulkFraction: bulkFrac,
			}
			s.OfferedQPS = util * s.MaxQPS()
			r := s.Report()
			out = append(out, FigureS1Point{
				Replicas:   rep,
				Window:     win,
				MaxQPS:     r.MaxQPS,
				OfferedQPS: s.OfferedQPS,
				Occupancy:  r.Occupancy,
				P50Ms:      1e3 * r.P50,
				P99Ms:      1e3 * r.P99,
				BulkP99Ms:  1e3 * r.BulkP99,
			})
		}
	}
	return out
}
