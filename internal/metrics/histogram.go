package metrics

import (
	"math"
	"sync/atomic"
)

// Histogram is a streaming latency histogram: observations are counted
// into fixed buckets and quantiles are estimated from the bucket counts,
// so recording is O(log buckets) with no per-observation allocation and
// the memory cost is independent of the observation count. Observe is
// lock-free (atomic bucket counters), which is what lets the serving hot
// path record every request while a /metrics scrape reads concurrently:
// the scrape takes a Snapshot without ever blocking a recorder.
//
// Buckets are half-open ranges (lo, hi] defined by their upper bounds;
// everything above the last bound lands in an implicit +Inf bucket. Use
// ExpBuckets for the exponential spacing latency wants — constant
// relative error across decades, the same trade prometheus client
// histograms make.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-updated
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and growing by factor: start, start·factor, start·factor², ….
// It panics on a non-positive start, n < 1, or factor <= 1 — bucket
// layouts are static program structure, not runtime input.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default layout for request-latency histograms in
// seconds: 10µs to ~84s doubling per bucket (24 buckets), which covers a
// cache hit through a saturated bulk sweep at ~2x resolution.
func LatencyBuckets() []float64 { return ExpBuckets(10e-6, 2, 24) }

// NewHistogram builds a histogram over the given upper bounds. The
// bounds must be positive and strictly increasing; NewHistogram panics
// otherwise (a malformed layout is a programming error).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	prev := 0.0
	for _, b := range bounds {
		if !(b > prev) || math.IsInf(b, 1) || math.IsNaN(b) {
			panic("metrics: histogram bounds must be finite, positive, strictly increasing")
		}
		prev = b
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. NaN observations are dropped — they carry
// no magnitude to bucket and would poison the running sum. Negative
// values count into the first bucket (durations cannot be negative, but
// clock steps can manufacture them; losing them would undercount
// requests).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[h.bucketIdx(v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucketIdx returns the index of the bucket v falls in, by binary search
// over the upper bounds.
func (h *Histogram) bucketIdx(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Snapshot captures the bucket counts at one instant. Concurrent
// Observe calls may land between bucket reads — a snapshot is consistent
// to within the handful of observations in flight, which is the usual
// scrape-time contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after NewHistogram
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state, the
// unit the Prometheus exposition and the stats endpoints render from.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf bucket.
	Bounds []float64
	Counts []uint64
	// Count and Sum are the observation count and value sum.
	Count uint64
	Sum   float64
}

// Mean returns the average observation, or 0 for an empty snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// holding the q·Count-th observation and interpolating linearly inside
// it — the same estimator Prometheus's histogram_quantile uses. An empty
// snapshot reports 0; a quantile landing in the +Inf bucket reports the
// last finite bound (the histogram cannot resolve beyond its layout).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			if i >= len(s.Bounds) {
				// +Inf bucket: saturate at the last finite bound.
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - seen) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		seen += float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
