// Package proxy is the fleet front door: an HTTP load balancer over N
// jagserve replicas, turning the single-process serving stack into the
// strong-scaled serving tier the paper's training side argues for —
// once one replica runs as fast as the hardware allows, throughput only
// grows by routing across many.
//
// The proxy keeps one Backend per replica and combines:
//
//   - active health probing: every Config.HealthInterval each backend's
//     /healthz is probed; Config.FailAfter consecutive probe failures
//     drop it from routing and Config.RecoverAfter consecutive
//     successes reinstate it;
//   - passive circuit breaking: transport errors, timeouts, and 5xx on
//     forwarded traffic trip a backend after Config.BreakerFails
//     consecutive failures or when half of its last 20 forwards failed
//     — the prober then owns reinstatement;
//   - weighted least-loaded routing: when every candidate reports a
//     probed capacity (jagserve publishes CostProbe-derived QPS for
//     each model it loads in its /healthz reply, which every active
//     probe reads), requests go to the backend with the lowest
//     (inflight+1)/capacity; otherwise power-of-two-choices on
//     in-flight counts;
//   - bounded retries and hedging: a failed attempt (connect error,
//     broken reply, retryable status — see serve.RetryableStatus) is
//     retried on an untried backend up to Config.MaxRetries times;
//     interactive-lane requests additionally hedge after
//     Config.HedgeDelay, racing a second backend (bulk never hedges);
//   - per-client token-bucket rate limiting with 429 + Retry-After;
//   - observability: jag_proxy_* metric families on GET /metrics,
//     counted in atomics on the attempt path and rendered into a new
//     registry per scrape (Metrics), as jagserve does; and the request
//     lifecycle internal/serve's v1
//     handler runs — serve.Lifecycle: X-Request-Id accepted or minted,
//     echoed and forwarded so one correlation ID traces a request
//     proxy→backend, plus an optional structured access log whose
//     records have the backend tier's shape.
//
// docs/FLEET.md is the operator guide; perfmodel.FleetScenario is the
// matching capacity model.
package proxy

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// Config tunes the proxy; the zero value serves with the defaults noted
// on each field.
type Config struct {
	// HealthInterval is the active /healthz probe period (default 1s).
	HealthInterval time.Duration
	// FailAfter is the consecutive probe failures that drop a backend
	// (default 2).
	FailAfter int
	// RecoverAfter is the consecutive probe successes that reinstate a
	// dropped backend (default 2).
	RecoverAfter int
	// BreakerFails is the consecutive forward failures (transport error
	// or 5xx) that trip the passive breaker (default 3).
	BreakerFails int
	// MaxRetries is the extra attempts (retries and hedges combined)
	// after the first, each on a backend the request has not tried yet
	// (default 2; negative for none).
	MaxRetries int
	// HedgeDelay races a second backend when an interactive request has
	// not answered within it; 0 disables hedging. Bulk-lane requests
	// (X-Priority: bulk) never hedge. Note the proxy reads only the
	// header: a priority set inside a JSON body selects the backend's
	// bulk lane but does not suppress hedging.
	HedgeDelay time.Duration
	// RatePerSec enables per-client token-bucket rate limiting on call
	// routes at this refill rate; 0 disables. Burst is the bucket size
	// (default max(1, ceil(RatePerSec))).
	RatePerSec float64
	Burst      int
	// MaxBodyBytes caps a call request body (default 64 MiB).
	MaxBodyBytes int64
	// AccessLog, when non-nil, gets one structured record per request.
	AccessLog *slog.Logger
	// Logf, when non-nil, receives health-transition log lines
	// (default: discarded).
	Logf func(format string, args ...any)
}

// What nobody has needed to tune.
const (
	// probeTimeout bounds one health probe.
	probeTimeout = 2 * time.Second
	// errorRate is the failure fraction of a backend's last errorWindow
	// forwards that trips the breaker even without a consecutive run.
	errorRate   = 0.5
	errorWindow = 20
)

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 2
	}
	if c.BreakerFails <= 0 {
		c.BreakerFails = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.Burst <= 0 {
		c.Burst = int(c.RatePerSec)
		if float64(c.Burst) < c.RatePerSec {
			c.Burst++
		}
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Proxy fronts a set of jagserve backends. It is an http.Handler;
// Start launches the health maintenance loop.
type Proxy struct {
	cfg      Config
	backends []*Backend
	limiter  *rateLimiter
	hc       *http.Client // forwards: no global timeout, per-attempt ctx
	probeHC  *http.Client // health probes: probeTimeout
	handler  http.Handler // the route mux inside serve.Lifecycle

	// Fleet-wide counters; the per-backend instruments live on Backend.
	rateLimited, noBackend, retries, hedges, hedgeWins, panics atomic.Uint64
}

// New builds a proxy over the given backend base URLs (such as
// "http://127.0.0.1:8081"). All backends start healthy; call Start to
// begin probing.
func New(backendURLs []string, cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(backendURLs) == 0 {
		return nil, fmt.Errorf("proxy: no backends")
	}
	p := &Proxy{
		cfg: cfg,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		probeHC: &http.Client{Timeout: probeTimeout},
	}
	seen := map[string]bool{}
	for _, raw := range backendURLs {
		b, err := newBackend(raw)
		if err != nil {
			return nil, err
		}
		if seen[b.base] {
			return nil, fmt.Errorf("proxy: duplicate backend %s", b.base)
		}
		seen[b.base] = true
		p.backends = append(p.backends, b)
	}
	if cfg.RatePerSec > 0 {
		p.limiter = newRateLimiter(cfg.RatePerSec, cfg.Burst)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{name}/{method}", p.serveCall)
	mux.HandleFunc("GET /v1/models", p.servePass)
	mux.HandleFunc("GET /v1/models/{name}/stats", p.servePass)
	mux.HandleFunc("GET /healthz", p.serveHealthz)
	mux.HandleFunc("GET /metrics", p.serveMetrics)
	p.handler = serve.Lifecycle(mux, cfg.AccessLog, func() { p.panics.Add(1) })
	return p, nil
}

// Start launches the maintenance loop — active health probing, which
// also reads each backend's capacity, and rate-limiter cleanup — until
// ctx is cancelled. It runs one synchronous probe sweep first, so a
// proxy whose backends are already up routes with fresh health and
// weights from its first request.
func (p *Proxy) Start(ctx context.Context) {
	p.probeSweep(ctx)
	go p.maintain(ctx)
}

// Backends exposes the backend set (for /healthz and tests).
func (p *Proxy) Backends() []*Backend { return p.backends }

// Metrics renders the proxy's instruments into a new registry, the
// GET /metrics exposition: the fleet counters, then per backend its
// attempt counters, latency histogram and the healthy/inflight/capacity
// gauges. Every series is present, at 0 before any traffic, so rate()
// needs no first-sample special case.
func (p *Proxy) Metrics() *metrics.Registry {
	m := metrics.NewRegistry()
	m.Counter("jag_proxy_rate_limited_total", "Requests shed by per-client frontend rate limiting.", nil, p.rateLimited.Load())
	m.Counter("jag_proxy_no_backend_total", "Requests failed because no backend was available.", nil, p.noBackend.Load())
	m.Counter("jag_proxy_retries_total", "Attempts relaunched on another backend after a retryable failure.", nil, p.retries.Load())
	m.Counter("jag_proxy_hedges_total", "Second attempts raced for slow interactive requests.", nil, p.hedges.Load())
	m.Counter("jag_proxy_hedge_wins_total", "Hedged attempts that answered first.", nil, p.hedgeWins.Load())
	m.Counter("jag_proxy_panics_total",
		"Panics contained: a handler's answered with a 500, a backend attempt's failed as a transport error.", nil, p.panics.Load())
	for _, b := range p.backends {
		l := metrics.Labels{"backend": b.name}
		m.Histogram("jag_proxy_request_latency_seconds", "Backend attempt latency (connect to full reply), per backend.",
			l, b.latency.Snapshot())
		for i, code := range codeClasses {
			m.Counter("jag_proxy_requests_total", "Forwarded attempts per backend and status class.",
				metrics.Labels{"backend": b.name, "code": code}, b.codes[i].Load())
		}
		for i, kind := range errKinds {
			m.Counter("jag_proxy_errors_total", "Backend attempt failures by kind.",
				metrics.Labels{"backend": b.name, "kind": kind}, b.errs[i].Load())
		}
		for i, to := range []string{"down", "up"} {
			m.Counter("jag_proxy_health_transitions_total", "Backend health flips, labeled by direction.",
				metrics.Labels{"backend": b.name, "to": to}, b.transitions[i].Load())
		}
		up := 0.0
		if b.Healthy() {
			up = 1
		}
		m.Gauge("jag_proxy_backend_healthy", "1 while the backend is routed to.", l, up)
		m.Gauge("jag_proxy_backend_inflight", "Proxied requests outstanding on the backend.", l, float64(b.Inflight()))
		m.Gauge("jag_proxy_backend_capacity_qps", "Backend's probed sustainable row rate (rows/s), 0 until reported.",
			l, b.CapacityQPS())
	}
	return m
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// ServeHTTP runs the request through serve.Lifecycle — the correlation
// ID and access log the backends' own handler uses — into the proxy's
// route set:
//
//	POST /v1/models/{name}/{method}  forwarded with retries (+ hedging)
//	GET  /v1/models, .../stats       forwarded to one healthy backend
//	GET  /healthz                    the proxy's own fleet health
//	GET  /metrics                    jag_proxy_* Prometheus exposition
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.handler.ServeHTTP(w, r) }

// pick selects a backend for the next attempt, excluding tried ones.
// Healthy candidates are preferred; when none remain (fleet-wide
// outage, or every healthy backend already tried) it falls back to any
// untried backend — health state can be stale, and a desperate attempt
// beats a certain failure. Among candidates: weighted least-loaded by
// (inflight+1)/capacity over those with a probed capacity — one that has
// not reported yet waits for its first probe, or for a retry — and
// power-of-two-choices on in-flight counts only when none has one.
func (p *Proxy) pick(tried map[*Backend]bool) *Backend {
	cands := make([]*Backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.Healthy() && !tried[b] {
			cands = append(cands, b)
		}
	}
	if len(cands) == 0 {
		for _, b := range p.backends {
			if !tried[b] {
				cands = append(cands, b)
			}
		}
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	var best *Backend
	bestScore := 0.0
	for _, b := range cands {
		if capacity := b.CapacityQPS(); capacity > 0 {
			if score := float64(b.inflight.Load()+1) / capacity; best == nil || score < bestScore {
				best, bestScore = b, score
			}
		}
	}
	if best != nil {
		return best
	}
	i := rand.IntN(len(cands))
	j := rand.IntN(len(cands) - 1)
	if j >= i {
		j++
	}
	if cands[j].inflight.Load() < cands[i].inflight.Load() {
		return cands[j]
	}
	return cands[i]
}

// serveCall forwards one batched model call with rate limiting,
// retries, and (interactive-lane only) hedging.
func (p *Proxy) serveCall(w http.ResponseWriter, r *http.Request) {
	if p.limiter != nil {
		if ok, retryAfter := p.limiter.allow(clientKey(r), time.Now()); !ok {
			p.rateLimited.Add(1)
			sec := int(retryAfter.Seconds() + 0.999)
			if sec < 1 {
				sec = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(sec))
			serve.WriteError(w, http.StatusTooManyRequests,
				fmt.Sprintf("rate limit exceeded; retry after %ds", sec))
			return
		}
	}
	body, ok := readBody(w, r, p.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	class, err := serve.ParsePriority(r.Header.Get(serve.PriorityHeader))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	hedge := class == serve.Interactive && p.cfg.HedgeDelay > 0
	out := p.dispatch(r, body, hedge)
	p.relay(w, r, out)
}

// servePass forwards one read-only route (model listing, stats) with
// retries but no hedging or rate limiting.
func (p *Proxy) servePass(w http.ResponseWriter, r *http.Request) {
	out := p.dispatch(r, nil, false)
	p.relay(w, r, out)
}

// outcome is one attempt's fully-buffered result. Buffering the whole
// reply before relaying is what makes mid-body backend deaths
// retryable: the client never sees bytes from an attempt that later
// broke.
type outcome struct {
	b      *Backend
	status int
	header http.Header
	body   []byte
	err    error
	hedged bool
}

// relayable reports whether this outcome ends the dispatch: a reply
// arrived and it is not a "not now" status worth trying elsewhere.
func (o outcome) relayable() bool {
	return o.err == nil && !serve.RetryableStatus(o.status)
}

// dispatch runs the attempt state machine: route, forward, retry on
// retryable failures against untried backends, and — when hedge is set
// — race a second backend after HedgeDelay. At most 1+MaxRetries
// attempts are launched (hedges included); the first relayable outcome
// wins and pending attempts are cancelled.
func (p *Proxy) dispatch(r *http.Request, body []byte, hedge bool) outcome {
	ctx := r.Context()
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	maxAttempts := 1 + p.cfg.MaxRetries
	results := make(chan outcome, maxAttempts)
	tried := make(map[*Backend]bool, len(p.backends))
	launched := 0
	launch := func(hedged bool) bool {
		if launched >= maxAttempts {
			return false
		}
		b := p.pick(tried)
		if b == nil {
			return false
		}
		tried[b] = true
		launched++
		b.inflight.Add(1) // attempt takes it off once the outcome is counted
		go func() { results <- p.attempt(actx, b, r, body, hedged) }()
		return true
	}

	if !launch(false) {
		return outcome{err: errNoBackend}
	}
	var hedgeC <-chan time.Time
	if hedge {
		t := time.NewTimer(p.cfg.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var last outcome
	for {
		select {
		case out := <-results:
			pending--
			if out.relayable() {
				if out.hedged {
					p.hedgeWins.Add(1)
				}
				return out
			}
			last = out
			if ctx.Err() == nil && launch(false) {
				p.retries.Add(1)
				pending++
				continue
			}
			if pending > 0 {
				continue // a raced attempt may still come back relayable
			}
			return last
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				p.hedges.Add(1)
				pending++
			}
		case <-ctx.Done():
			return outcome{err: ctx.Err()}
		}
	}
}

// errNoBackend is dispatch's "nothing to route to" sentinel.
var errNoBackend = fmt.Errorf("proxy: no backend available")

// forwardHeaders is the request-header whitelist forwarded to backends.
var forwardHeaders = []string{
	"Content-Type", "Accept",
	serve.PriorityHeader, serve.DeadlineHeader, serve.ScalarsOnlyHeader,
	serve.RequestIDHeader,
}

// attempt forwards the request to one backend, buffers the whole reply,
// and feeds the passive breaker with the observed outcome. The caller
// has counted it in b's in-flight gauge; attempt takes it off after
// counting the outcome, so a backend at 0 in flight has every attempt
// it served in jag_proxy_requests_total.
func (p *Proxy) attempt(ctx context.Context, b *Backend, r *http.Request, body []byte, hedged bool) outcome {
	start := time.Now()
	status, header, raw, err := p.forward(ctx, b, r, body)
	b.latency.Observe(time.Since(start).Seconds())
	class := 0 // transport error
	if err == nil {
		// Clamped: a hostile backend may answer any three-digit status,
		// and everything from 500 up is a failure below anyway.
		class = min(max(status/100, 1), 5)
	}
	b.codes[class].Add(1)
	b.inflight.Add(-1)

	if err != nil {
		// Transport failure: connect refused, timeout, or a reply that
		// died mid-body. Don't hold it against the backend when our own
		// client vanished — the cancellation is the caller's, not the
		// backend's.
		if r.Context().Err() == nil && ctx.Err() != context.Canceled {
			p.noteForward(b, true, err.Error())
			b.errs[errKind(err)].Add(1)
		}
		return outcome{b: b, err: err, hedged: hedged}
	}
	if status >= 500 {
		p.noteForward(b, true, fmt.Sprintf("HTTP %d", status))
		b.errs[errStatus5xx].Add(1)
	} else {
		p.noteForward(b, false, "")
	}
	return outcome{b: b, status: status, header: header, body: raw, hedged: hedged}
}

// forward sends r to b and buffers the whole reply. It runs on an
// attempt goroutine, outside serve.Lifecycle's recover, so a panic under
// it — in the transport, in a body reader — would end the process: here
// it is counted, logged, and becomes this attempt's transport error,
// which feeds the breaker and lets dispatch retry elsewhere or answer
// 502.
func (p *Proxy) forward(ctx context.Context, b *Backend, r *http.Request, body []byte) (status int, header http.Header, raw []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			p.panics.Add(1)
			log.Printf("panic forwarding %s %s%s (request %s): %v\n%s", r.Method, b.base, r.URL.RequestURI(),
				r.Header.Get(serve.RequestIDHeader), v, debug.Stack())
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	req, err := newBackendRequest(ctx, b, r, body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	raw, err = readAllBody(resp)
	return resp.StatusCode, resp.Header, raw, err
}

// noteForward feeds the passive breaker and performs the trip.
func (p *Proxy) noteForward(b *Backend, failed bool, detail string) {
	if b.noteForward(failed, detail, p.cfg.BreakerFails) {
		p.setHealth(b, false, "breaker: "+detail)
	}
}

// setHealth flips one backend's health bit, counting and logging real
// transitions exactly once (Swap makes concurrent trips idempotent).
func (p *Proxy) setHealth(b *Backend, up bool, reason string) {
	if b.healthy.Swap(up) == up {
		return
	}
	to, i := "down", 0
	if up {
		to, i = "up", 1
	}
	b.transitions[i].Add(1)
	p.logf("proxy: backend %s %s (%s)", b.name, to, reason)
}

// backendHeader names the replica that served the relayed reply, for
// debugging and tests.
const backendHeader = "X-Jag-Backend"

// relayHeaders is the response-header whitelist copied back to the
// client. X-Request-Id is not copied: the proxy already set its own
// (which the backend echoed, since it was forwarded).
var relayHeaders = []string{
	"Content-Type", "Retry-After", "Server-Timing",
}

// relay writes the winning outcome to the client.
func (p *Proxy) relay(w http.ResponseWriter, r *http.Request, out outcome) {
	if out.b != nil {
		w.Header().Set(backendHeader, out.b.name)
		serve.AddLogAttrs(r.Context(), slog.String("backend", out.b.name))
	}
	switch {
	case out.err == errNoBackend:
		p.noBackend.Add(1)
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusServiceUnavailable, "no backend available")
		return
	case out.err != nil:
		if r.Context().Err() != nil {
			return // client is gone; nobody reads this reply
		}
		serve.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("backend attempt failed: %v", out.err))
		return
	}
	for _, h := range relayHeaders {
		if v := out.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	// The body is held whole, so it leaves with its length: un-chunked, and
	// the client can size its buffer as readAllBody sized this one.
	w.Header().Set("Content-Length", strconv.Itoa(len(out.body)))
	w.WriteHeader(out.status)
	// The status line is already out; a short write means the client
	// disconnected and there is nothing left to report.
	_, _ = w.Write(out.body)
}

// FleetHealth is the GET /healthz reply: the proxy's view of the fleet.
type FleetHealth struct {
	// Status is "ok" with every backend healthy, "degraded" with some
	// down, "down" (and HTTP 503) with none left.
	Status   string                   `json:"status"`
	Healthy  int                      `json:"healthy"`
	Backends map[string]BackendHealth `json:"backends"`
}

// BackendHealth is one backend's entry in the fleet /healthz reply.
type BackendHealth struct {
	Healthy     bool    `json:"healthy"`
	Inflight    int64   `json:"inflight"`
	CapacityQPS float64 `json:"capacity_qps,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
}

// FleetHealth snapshots the proxy's view of the fleet — the same
// document GET /healthz serves, for in-process embedders.
func (p *Proxy) FleetHealth() FleetHealth {
	resp := FleetHealth{Backends: make(map[string]BackendHealth, len(p.backends))}
	for _, b := range p.backends {
		h := BackendHealth{
			Healthy:     b.Healthy(),
			Inflight:    b.Inflight(),
			CapacityQPS: b.CapacityQPS(),
			LastError:   b.lastError(),
		}
		if h.Healthy {
			resp.Healthy++
		}
		resp.Backends[b.name] = h
	}
	switch {
	case resp.Healthy == len(p.backends):
		resp.Status = "ok"
	case resp.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
	}
	return resp
}

func (p *Proxy) serveHealthz(w http.ResponseWriter, r *http.Request) {
	resp := p.FleetHealth()
	status := http.StatusOK
	if resp.Status == "down" {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, resp)
}

func (p *Proxy) serveMetrics(w http.ResponseWriter, r *http.Request) {
	serve.WriteMetrics(w, p.Metrics())
}
