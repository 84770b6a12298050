package proxy

import (
	"fmt"
	"math"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Backend is one jagserve replica behind the front door. The hot path
// touches only its atomics and latency histogram (in-flight count for
// routing, health bit for candidate selection, capacity bits for
// weighting, attempt counters for /metrics, which Proxy.Metrics renders
// per scrape); the mutex guards the cold bookkeeping the health
// machinery reads and writes — breaker windows and probe streaks.
// Backends are created once at proxy construction and only ever handled
// by pointer.
type Backend struct {
	name string // host:port — the metrics label and log handle
	base string // normalized base URL, no trailing slash

	inflight atomic.Int64
	healthy  atomic.Bool
	// capacity holds the float64 bits of the backend's probed
	// sustainable row rate (rows/s), read off each successful /healthz
	// probe; 0 until the first probe that reports one.
	capacity atomic.Uint64

	latency     *metrics.Histogram              // attempt latency, connect to full reply
	codes       [len(codeClasses)]atomic.Uint64 // attempts by outcome, indexed like codeClasses
	errs        [len(errKinds)]atomic.Uint64    // counted failures by kind, indexed like errKinds
	transitions [2]atomic.Uint64                // health flips: [0] to down, [1] to up

	mu sync.Mutex
	// consecFails counts consecutive forward failures (transport error
	// or 5xx); the passive breaker trips at Config.BreakerFails.
	consecFails int
	// probeOKs / probeFails count consecutive active-probe outcomes;
	// FailAfter probe failures drop the backend, RecoverAfter probe
	// successes reinstate it. Any forward or probe failure resets the
	// success streak, so reinstatement needs genuinely consecutive
	// healthy probes.
	probeOKs   int
	probeFails int
	// window is a ring of recent forward outcomes (true = failure) for
	// the error-rate trip: a backend failing half its traffic is down
	// even if successes keep interleaving.
	window     [errorWindow]bool
	windowPos  int
	windowFill int
	lastErr    string
}

// Attempt outcomes, the code label of jag_proxy_requests_total: a
// transport error, or the reply's status class.
var codeClasses = [...]string{"error", "1xx", "2xx", "3xx", "4xx", "5xx"}

// Counted attempt failures, the kind label of jag_proxy_errors_total.
const (
	errTimeout = iota
	errConn
	errStatus5xx
)

var errKinds = [...]string{errTimeout: "timeout", errConn: "conn", errStatus5xx: "status_5xx"}

// newBackend validates and normalizes one backend URL.
func newBackend(raw string) (*Backend, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("proxy: backend %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("proxy: backend %q: want an http(s) URL", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("proxy: backend %q: missing host", raw)
	}
	b := &Backend{
		name:    u.Host,
		base:    strings.TrimRight(u.String(), "/"),
		latency: metrics.NewHistogram(metrics.LatencyBuckets()),
	}
	b.healthy.Store(true) // optimistic until the first probe says otherwise
	return b, nil
}

// Name returns the backend's host:port handle.
func (b *Backend) Name() string { return b.name }

// Healthy reports whether the router currently offers this backend.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Inflight returns the number of proxied requests outstanding on this
// backend right now.
func (b *Backend) Inflight() int64 { return b.inflight.Load() }

// CapacityQPS returns the backend's last-seen probed capacity, 0 when
// the backend never reported one.
func (b *Backend) CapacityQPS() float64 {
	return math.Float64frombits(b.capacity.Load())
}

func (b *Backend) setCapacity(qps float64) {
	if qps < 0 || math.IsNaN(qps) || math.IsInf(qps, 0) {
		qps = 0
	}
	b.capacity.Store(math.Float64bits(qps))
}

// lastError returns the most recent failure detail, for /healthz.
func (b *Backend) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// noteForward records one forwarded request's outcome for the passive
// circuit breaker and reports whether the breaker just tripped: the
// backend was healthy and either BreakerFails consecutive forwards
// failed or the rolling window's error rate reached errorRate.
func (b *Backend) noteForward(failed bool, detail string, breakerFails int) (trip bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if failed {
		b.consecFails++
		b.probeOKs = 0
		if detail != "" {
			b.lastErr = detail
		}
	} else {
		b.consecFails = 0
	}
	b.window[b.windowPos] = failed
	b.windowPos = (b.windowPos + 1) % errorWindow
	if b.windowFill < errorWindow {
		b.windowFill++
	}
	if !failed || !b.healthy.Load() {
		return false
	}
	if b.consecFails >= breakerFails {
		return true
	}
	if b.windowFill < errorWindow {
		return false
	}
	errs := 0
	for _, bad := range b.window {
		if bad {
			errs++
		}
	}
	return float64(errs)/errorWindow >= errorRate
}

// noteProbe records one active-probe outcome and reports whether the
// health state should flip: down after failAfter consecutive probe
// failures, up after recoverAfter consecutive successes.
func (b *Backend) noteProbe(ok bool, detail string, failAfter, recoverAfter int) (down, up bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.probeFails = 0
		b.probeOKs++
		if !b.healthy.Load() && b.probeOKs >= recoverAfter {
			// Give the reinstated backend a clean slate: stale breaker
			// state must not re-trip it on its first request back.
			b.consecFails = 0
			b.windowFill, b.windowPos = 0, 0
			return false, true
		}
		return false, false
	}
	b.probeOKs = 0
	b.probeFails++
	if detail != "" {
		b.lastErr = detail
	}
	if b.healthy.Load() && b.probeFails >= failAfter {
		return true, false
	}
	return false, false
}
