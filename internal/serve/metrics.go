package serve

import (
	"net/http"

	"repro/internal/metrics"
)

// Prometheus exposition for the serving stack. MetricsHandler renders
// every registered model's counters, gauges, and latency histograms in
// the Prometheus text format, one scrape at a time.
//
// The exposition is rebuilt from snapshots on every scrape rather than
// shared with the hot path: the pipeline's own instruments (atomic
// counters and lock-free histograms, see Stats) are read, never
// written, here — so a slow or hostile scraper cannot block a batch
// flush, and a hot swap (Registry.Replace) needs no metric re-wiring.
// Counters therefore reset when a reload swaps a model's generation,
// which Prometheus rate() absorbs as an ordinary counter reset; the
// jag_generation gauge says when that happened.
//
// Metric reference (all series but the last carry a model label):
//
//	jag_requests_total{model,method,lane}   completed rows
//	jag_batches_total                       forward passes
//	jag_overloads_total                     rows rejected by backpressure
//	jag_expired_total, jag_cancelled_total  rows dropped before a pass
//	jag_model_failures_total                rows failed by the model itself
//	jag_cache_hits_total, jag_cache_misses_total
//	jag_cache_hit_rate                      hits/(hits+misses), 0 when idle
//	jag_cache_entries, jag_cache_bytes      rows the LRU holds, and their bytes
//	jag_queue_depth                         in-flight rows (live gauge)
//	jag_lane_depth{lane}                    queued rows per priority lane
//	jag_mean_batch                          mean rows per forward pass
//	jag_capacity_qps                        probed sustainable rows/s (0 until probed)
//	jag_model_ready                         1 while serving, 0 once closed
//	jag_generation                          hot-swap generation (1 = never swapped)
//	jag_reloads_total                       completed hot swaps
//	jag_reload_rejected_total               reload attempts rolled back
//	jag_reload_error                        1 while the last reload attempt failed
//	jag_uptime_seconds                      current generation's serving time
//	jag_request_latency_seconds             end-to-end latency histogram
//	jag_stage_latency_seconds{stage}        per-stage latency histograms
//	                                        (queue_wait, batch_assembly,
//	                                        forward, encode)
//	jag_http_panics_total                   handler panics answered 500 (per process)
//
// docs/OBSERVABILITY.md is the operator-facing reference.

// promContentType is the Prometheus text exposition media type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves GET /metrics for every model of a Registry.
// NewRegistryHandler mounts it on the v1 surface; mount it separately to
// scrape on a different listener (as jagserve -debug-addr does).
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := metrics.NewRegistry()
		for _, name := range reg.Names() {
			if s, ok := reg.Get(name); ok {
				collectModel(m, reg, name, s)
			}
		}
		m.Counter("jag_http_panics_total", "Handler panics answered with a 500.", nil,
			uint64(reg.httpPanics.Load()))
		WriteMetrics(w, m)
	})
}

// WriteMetrics answers a scrape with m's Prometheus text exposition.
func WriteMetrics(w http.ResponseWriter, m *metrics.Registry) {
	w.Header().Set("Content-Type", promContentType)
	// A write error here means the scraper hung up mid-response; the
	// exposition text is regenerated on the next scrape.
	_ = m.WritePrometheus(w)
}

// collectModel fills the scrape registry with one model's series: the
// Prometheus renderer over the server's statsView (stats.go holds the
// JSON one), plus the live gauges and the registry's reload bookkeeping.
func collectModel(m *metrics.Registry, reg *Registry, name string, s *Server) {
	v := s.view()
	l := metrics.Labels{"model": name}

	for i, method := range v.methods {
		for lane, n := range v.rows[i] {
			if n > 0 {
				m.Counter("jag_requests_total", "Completed rows by model, method, and priority lane.",
					metrics.Labels{"model": name, "method": method, "lane": Priority(lane).String()}, uint64(n))
			}
		}
	}
	m.Counter("jag_batches_total", "Forward passes run.", l, uint64(v.batches))
	m.Counter("jag_overloads_total", "Rows rejected by queue-depth backpressure.", l, uint64(v.overloads))
	m.Counter("jag_expired_total", "Rows dropped before a forward pass: deadline passed.", l, uint64(v.expired))
	m.Counter("jag_cancelled_total", "Rows dropped before a forward pass: context cancelled.", l, uint64(v.cancelled))
	m.Counter("jag_model_failures_total", "Rows failed by the model's own forward pass.", l, uint64(v.failures))
	m.Counter("jag_cache_hits_total", "Rows answered from the LRU response cache.", l, uint64(v.cacheHits))
	m.Counter("jag_cache_misses_total", "Rows looked up in the LRU response cache, not found, and answered by the model.", l, uint64(v.cacheMisses))
	hitRate := 0.0
	if total := v.cacheHits + v.cacheMisses; total > 0 {
		hitRate = float64(v.cacheHits) / float64(total)
	}
	m.Gauge("jag_cache_hit_rate", "Cache hits over answered rows.", l, hitRate)
	m.Gauge("jag_cache_entries", "Rows held by the LRU response cache (interactive-lane rows only).", l, float64(v.cacheEntries))
	m.Gauge("jag_cache_bytes", "Row data held by the LRU response cache: entries x row width x 4.", l, float64(v.cacheBytes))
	m.Gauge("jag_queue_depth", "Rows admitted and not yet answered.", l, float64(s.Inflight()))
	for lane, depth := range s.LaneDepths() {
		m.Gauge("jag_lane_depth", "Rows queued per priority lane.",
			metrics.Labels{"model": name, "lane": lane}, float64(depth))
	}
	m.Gauge("jag_mean_batch", "Mean rows per forward pass.", l, v.meanBatch())
	m.Gauge("jag_capacity_qps", "Probed sustainable row rate (rows/s), 0 until probed.", l, s.CapacityQPS())
	ready := 1.0
	if s.Closed() {
		ready = 0
	}
	m.Gauge("jag_model_ready", "1 while the model accepts requests.", l, ready)
	m.Gauge("jag_uptime_seconds", "Serving time of the current generation.", l, v.uptime)

	gen := reg.Generation(name)
	m.Gauge("jag_generation", "Hot-swap generation (1 = never swapped).", l, float64(gen))
	m.Counter("jag_reloads_total", "Completed hot swaps.", l, uint64(gen-1))
	if rs, ok := reg.ReloadState(name); ok {
		m.Counter("jag_reload_rejected_total", "Reload attempts rejected (load error or canary failure).", l,
			uint64(rs.Rejections))
		failed := 0.0
		if rs.LastError != "" {
			failed = 1
		}
		m.Gauge("jag_reload_error", "1 while the most recent reload attempt failed.", l, failed)
	}

	m.Histogram("jag_request_latency_seconds", "End-to-end request latency (enqueue to scatter).",
		l, v.latency)
	for i, h := range v.stages {
		m.Histogram("jag_stage_latency_seconds", "Per-stage latency: queue_wait, batch_assembly, forward, encode.",
			metrics.Labels{"model": name, "stage": stageNames[i]}, h)
	}
}
