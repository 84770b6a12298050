package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Pipeline stage names: the spans every request passes through, each
// with its own latency histogram. Together they decompose end-to-end
// latency the same way perfmodel.ServingScenario does analytically
// (window fill, replica wait, pass cost), so an operator can see
// *where* a latency regression lives instead of only that one exists.
const (
	// StageQueueWait is enqueue → a worker took the row: all the time a
	// row spends waiting, in the one place it waits — its priority lane —
	// for companions or the window (the model's FillSec) and for a free
	// worker (the M/D/c queue wait).
	StageQueueWait = "queue_wait"
	// StageAssembly is row taken → forward start: the gather into the
	// batch matrix. Recorded once per batch.
	StageAssembly = "batch_assembly"
	// StageForward is the model's batched forward pass. Recorded once
	// per batch.
	StageForward = "forward"
	// StageEncode is the HTTP response encoding span (JSON or binary
	// frame), recorded by the handler once per response. In-process
	// callers never pay it.
	StageEncode = "encode"
)

// Stage indices into Stats.stageH, in pipeline order.
const (
	stageQueueWait = iota
	stageAssembly
	stageForward
	stageEncode
	numStages
)

// stageNames maps a stage index to its exported name.
var stageNames = [numStages]string{StageQueueWait, StageAssembly, StageForward, StageEncode}

// Trace is one request's span record: where its latency went, stage by
// stage. The pipeline fills it as the request moves; CallTrace returns
// it to the caller and the HTTP handler renders it as a Server-Timing
// header and a structured log field.
type Trace struct {
	// QueueWait is enqueue → taken by a worker (StageQueueWait).
	QueueWait time.Duration
	// Assembly is taken → forward start, shared by every row of the
	// batch (StageAssembly).
	Assembly time.Duration
	// Forward is the batched forward pass, shared by every row of the
	// batch (StageForward).
	Forward time.Duration
	// Batch is the number of live rows in the forward pass.
	Batch int
	// CacheHit marks a row answered from the LRU cache: no other span
	// applies.
	CacheHit bool
}

// Stats is the server's one set of instruments: plain atomics and
// lock-free histograms created once at NewServer. The request path only
// ever adds to them, and every reader — the StatsSnapshot JSON, the
// Prometheus exposition — renders a statsView copied from them without
// taking a lock, so a scrape can never stall a batch flush.
type Stats struct {
	start   time.Time
	methods []string // sorted; rows[i] belongs to methods[i]
	// rows counts completed rows per (method, lane). Requests and
	// MethodRequests are sums over it rather than counters of their own,
	// so the three views agree in every view, mid-traffic included.
	rows [][numLanes]atomic.Int64

	batches   atomic.Int64 // forward passes that answered their rows
	batchRows atomic.Int64 // rows summed over those passes
	maxBatch  atomic.Int64
	overloads atomic.Int64 // rows rejected by backpressure
	expired   atomic.Int64 // rows dropped before a pass: deadline passed
	cancelled atomic.Int64 // rows dropped before a pass: context cancelled
	// failures counts rows failed by the model's own forward pass — the
	// only error class that is the model's fault rather than the
	// caller's or the queue's.
	failures    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64 // lookups the model then answered, on either lane
	maxLatency  atomic.Int64 // nanoseconds, enqueue to scatter

	// latencyH is the end-to-end latency histogram (seconds) the mean
	// and quantile fields of StatsSnapshot — and the capacity-model
	// validation — read from; stageH holds one per pipeline stage.
	latencyH *metrics.Histogram
	stageH   [numStages]*metrics.Histogram
}

// newStats starts the throughput clock for a server of the given
// (sorted) method set.
func newStats(methods []string) *Stats {
	s := &Stats{
		start:    time.Now(),
		methods:  methods,
		rows:     make([][numLanes]atomic.Int64, len(methods)),
		latencyH: metrics.NewHistogram(metrics.LatencyBuckets()),
	}
	for i := range s.stageH {
		s.stageH[i] = metrics.NewHistogram(metrics.LatencyBuckets())
	}
	return s
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// request records one completed row of method slot and lane and its
// queue-to-reply latency.
func (s *Stats) request(slot int, class Priority, d time.Duration) {
	s.latencyH.Observe(d.Seconds())
	storeMax(&s.maxLatency, int64(d))
	s.rows[slot][class].Add(1)
}

// batch records one forward pass of n coalesced requests.
func (s *Stats) batch(n int) {
	s.batches.Add(1)
	s.batchRows.Add(int64(n))
	storeMax(&s.maxBatch, int64(n))
}

// statsView is one instant's copy of every instrument, taken once per
// Stats call or scrape; the JSON snapshot and the Prometheus exposition
// are two renderers over it.
type statsView struct {
	methods                                 []string
	rows                                    [][numLanes]int64
	batches, batchRows, maxBatch            int64
	overloads, expired, cancelled, failures int64
	cacheHits, cacheMisses                  int64
	cacheEntries                            int   // filled by Server.view: the cache is the server's
	cacheBytes                              int64 // row data those entries hold
	maxLatency                              time.Duration
	uptime                                  float64
	latency                                 metrics.HistogramSnapshot
	stages                                  [numStages]metrics.HistogramSnapshot
}

func (s *Stats) view() statsView {
	v := statsView{
		methods:     s.methods,
		rows:        make([][numLanes]int64, len(s.rows)),
		batches:     s.batches.Load(),
		batchRows:   s.batchRows.Load(),
		maxBatch:    s.maxBatch.Load(),
		overloads:   s.overloads.Load(),
		expired:     s.expired.Load(),
		cancelled:   s.cancelled.Load(),
		failures:    s.failures.Load(),
		cacheHits:   s.cacheHits.Load(),
		cacheMisses: s.cacheMisses.Load(),
		maxLatency:  time.Duration(s.maxLatency.Load()),
		uptime:      time.Since(s.start).Seconds(),
		latency:     s.latencyH.Snapshot(),
	}
	for i := range s.rows {
		for l := range s.rows[i] {
			v.rows[i][l] = s.rows[i][l].Load()
		}
	}
	for i, h := range s.stageH {
		v.stages[i] = h.Snapshot()
	}
	return v
}

// meanBatch is the mean rows per forward pass, 0 before the first.
func (v statsView) meanBatch() float64 {
	if v.batches == 0 {
		return 0
	}
	return float64(v.batchRows) / float64(v.batches)
}

// StageSnapshot summarizes one pipeline stage's latency histogram for
// the stats JSON endpoint, all times in milliseconds.
type StageSnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// stageSnapshot renders one histogram snapshot in milliseconds.
func stageSnapshot(h metrics.HistogramSnapshot) StageSnapshot {
	return StageSnapshot{
		Count:  int64(h.Count),
		MeanMs: 1e3 * h.Mean(),
		P50Ms:  1e3 * h.Quantile(0.50),
		P90Ms:  1e3 * h.Quantile(0.90),
		P99Ms:  1e3 * h.Quantile(0.99),
		P999Ms: 1e3 * h.Quantile(0.999),
	}
}

// StatsSnapshot is one instant's copy of the serving counters, shaped for
// the per-model stats JSON endpoint.
type StatsSnapshot struct {
	Requests int64 `json:"requests"`
	// MethodRequests splits Requests by model method ("predict",
	// "invert", ...); methods never served are absent.
	MethodRequests map[string]int64 `json:"method_requests,omitempty"`
	// LaneRequests splits MethodRequests by priority lane, method →
	// lane name → completed rows.
	LaneRequests map[string]map[string]int64 `json:"lane_requests,omitempty"`
	Batches      int                         `json:"batches"`
	Overloads    int64                       `json:"overloads"`
	Expired      int64                       `json:"expired"`
	Cancelled    int64                       `json:"cancelled"`
	// ModelFailures counts rows failed by the model's forward pass
	// itself (ErrModelFailure, HTTP 500).
	ModelFailures int64   `json:"model_failures"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheEntries  int     `json:"cache_entries"` // rows the response cache holds now
	CacheBytes    int64   `json:"cache_bytes"`   // their row data: entries × row width × 4
	MeanBatch     float64 `json:"mean_batch"`
	MaxBatch      float64 `json:"max_batch"`
	MeanLatMs     float64 `json:"mean_latency_ms"`
	MaxLatMs      float64 `json:"max_latency_ms"`
	// LatencyP50Ms..P999Ms are end-to-end latency quantiles estimated
	// from the streaming histogram — the measured counterpart of
	// perfmodel.ServingScenario's predicted P50/P99.
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyP999Ms float64 `json:"latency_p999_ms"`
	// Stages decomposes latency by pipeline stage (queue_wait,
	// batch_assembly, forward, encode) — where the milliseconds went.
	Stages       map[string]StageSnapshot `json:"stages,omitempty"`
	ThroughputPS float64                  `json:"throughput_per_sec"`
	UptimeSec    float64                  `json:"uptime_sec"`
}

// snapshot renders the view as the stats JSON document. Methods and
// lanes that never completed a row are absent.
func (v statsView) snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Batches:       int(v.batches),
		Overloads:     v.overloads,
		Expired:       v.expired,
		Cancelled:     v.cancelled,
		ModelFailures: v.failures,
		CacheHits:     v.cacheHits,
		CacheMisses:   v.cacheMisses,
		CacheEntries:  v.cacheEntries,
		CacheBytes:    v.cacheBytes,
		MeanBatch:     v.meanBatch(),
		MaxBatch:      float64(v.maxBatch),
		MeanLatMs:     1e3 * v.latency.Mean(),
		MaxLatMs:      durMs(v.maxLatency),
		LatencyP50Ms:  1e3 * v.latency.Quantile(0.50),
		LatencyP90Ms:  1e3 * v.latency.Quantile(0.90),
		LatencyP99Ms:  1e3 * v.latency.Quantile(0.99),
		LatencyP999Ms: 1e3 * v.latency.Quantile(0.999),
		Stages:        make(map[string]StageSnapshot, numStages),
		UptimeSec:     v.uptime,
	}
	for i, method := range v.methods {
		byLane := make(map[string]int64, numLanes)
		var total int64
		for l, n := range v.rows[i] {
			if n > 0 {
				byLane[Priority(l).String()] = n
				total += n
			}
		}
		if total == 0 {
			continue
		}
		if snap.MethodRequests == nil {
			snap.MethodRequests = make(map[string]int64, len(v.methods))
			snap.LaneRequests = make(map[string]map[string]int64, len(v.methods))
		}
		snap.MethodRequests[method] = total
		snap.LaneRequests[method] = byLane
		snap.Requests += total
	}
	for i, h := range v.stages {
		if h.Count > 0 {
			snap.Stages[stageNames[i]] = stageSnapshot(h)
		}
	}
	if v.uptime > 0 {
		snap.ThroughputPS = float64(snap.Requests+v.cacheHits) / v.uptime
	}
	return snap
}

// Inflight returns the number of requests currently admitted to the
// pipeline (queued or in a forward pass) — the live queue depth behind
// the QueueDepth backpressure bound.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// LaneDepths returns the number of rows currently queued per priority
// lane, summed across methods — the scrape-time lane occupancy gauge.
// Queued is everything admitted that no worker has taken: Inflight less
// the rows in a forward pass.
func (s *Server) LaneDepths() map[string]int {
	out := make(map[string]int, numLanes)
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := Priority(0); l < numLanes; l++ {
		n := 0
		for _, q := range s.order {
			n += q.lanes[l].n
		}
		out[l.String()] = n
	}
	return out
}
