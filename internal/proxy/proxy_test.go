package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// fakeBackend is an httptest stand-in for one jagserve replica with a
// scriptable call handler, a healthz switch and the capacity its healthz
// reports (none while 0).
type fakeBackend struct {
	srv      *httptest.Server
	healthy  atomic.Bool
	capacity atomic.Int64
	calls    atomic.Int64
	handler  atomic.Value // func(w http.ResponseWriter, r *http.Request)
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	f.healthy.Store(true)
	f.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"outputs":[[1]]}`)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.healthy.Load() {
			http.Error(w, "closed", http.StatusServiceUnavailable)
			return
		}
		if qps := f.capacity.Load(); qps > 0 {
			fmt.Fprintf(w, `{"status":"ok","models":{"jag":{"status":"ok","generation":1,"capacity_qps":%d}}}`, qps)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/models/{name}/{method}", func(w http.ResponseWriter, r *http.Request) {
		f.calls.Add(1)
		f.handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"models":[{"name":"jag","ready":true,"methods":{}}]}`)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func newTestProxy(t *testing.T, cfg Config, backends ...*fakeBackend) (*Proxy, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.srv.URL
	}
	p, err := New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

func postCall(t *testing.T, base string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/models/jag/predict",
		strings.NewReader(`{"inputs":[[0.5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// counterValue reads one counter series from the proxy's exposition, as a
// /metrics scrape would; a series not created yet reads 0.
func counterValue(p *Proxy, name string, labels metrics.Labels) uint64 {
	var b strings.Builder
	if err := p.Metrics().WritePrometheus(&b); err != nil {
		panic(err)
	}
	var pairs []string
	for _, k := range slices.Sorted(maps.Keys(labels)) {
		pairs = append(pairs, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	series := name
	if pairs != nil {
		series += "{" + strings.Join(pairs, ",") + "}"
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

func TestPickWeightedLeastLoaded(t *testing.T) {
	b1, _ := newBackend("http://a:1")
	b2, _ := newBackend("http://b:2")
	p := &Proxy{backends: []*Backend{b1, b2}}
	// b1: high capacity, some load; b2: low capacity, same load. Score
	// (inflight+1)/capacity favors b1.
	b1.setCapacity(1000)
	b2.setCapacity(10)
	b1.inflight.Store(5)
	b2.inflight.Store(5)
	for i := 0; i < 10; i++ {
		if got := p.pick(map[*Backend]bool{}); got != b1 {
			t.Fatalf("pick chose %s, want high-capacity backend %s", got.Name(), b1.Name())
		}
	}
	// Load b1 far beyond its capacity advantage and the choice flips.
	b1.inflight.Store(10_000)
	if got := p.pick(map[*Backend]bool{}); got != b2 {
		t.Fatalf("pick chose %s under overload, want %s", got.Name(), b2.Name())
	}
	// Excluding the best leaves the other.
	if got := p.pick(map[*Backend]bool{b2: true}); got != b1 {
		t.Fatalf("pick with exclusion chose %v, want %s", got, b1.Name())
	}
}

func TestPickPowerOfTwoFallback(t *testing.T) {
	// No capacities: P2C on inflight. With a 0-load and a loaded backend
	// the 0-load one must win every draw that offers both, i.e. always
	// (two candidates means both are always compared).
	b1, _ := newBackend("http://a:1")
	b2, _ := newBackend("http://b:2")
	b2.inflight.Store(50)
	p := &Proxy{backends: []*Backend{b1, b2}}
	for i := 0; i < 20; i++ {
		if got := p.pick(map[*Backend]bool{}); got != b1 {
			t.Fatalf("P2C chose loaded backend %s", got.Name())
		}
	}
	// Unhealthy backends are not candidates while a healthy one remains.
	b1.healthy.Store(false)
	if got := p.pick(map[*Backend]bool{}); got != b2 {
		t.Fatalf("pick chose unhealthy backend")
	}
	// ...but with every backend down, routing falls back to untried ones
	// rather than failing outright.
	b2.healthy.Store(false)
	if got := p.pick(map[*Backend]bool{}); got == nil {
		t.Fatalf("pick returned nil with untried (if unhealthy) backends remaining")
	}
	if got := p.pick(map[*Backend]bool{b1: true, b2: true}); got != nil {
		t.Fatalf("pick fabricated a backend: %v", got)
	}
}

func TestActiveProbeDropAndReinstate(t *testing.T) {
	f := newFakeBackend(t)
	p, err := New([]string{f.srv.URL}, Config{FailAfter: 2, RecoverAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := p.Backends()[0]
	ctx := context.Background()

	p.probeSweep(ctx)
	if !b.Healthy() {
		t.Fatal("backend unhealthy after a passing probe")
	}
	f.healthy.Store(false)
	p.probeSweep(ctx)
	if !b.Healthy() {
		t.Fatal("one probe failure dropped the backend; FailAfter=2 requires two")
	}
	p.probeSweep(ctx)
	if b.Healthy() {
		t.Fatal("backend still healthy after FailAfter consecutive probe failures")
	}
	f.healthy.Store(true)
	p.probeSweep(ctx)
	if b.Healthy() {
		t.Fatal("one probe success reinstated the backend; RecoverAfter=2 requires two")
	}
	p.probeSweep(ctx)
	if !b.Healthy() {
		t.Fatal("backend not reinstated after RecoverAfter consecutive probe successes")
	}
	down := counterValue(p, "jag_proxy_health_transitions_total", metrics.Labels{"backend": b.Name(), "to": "down"})
	up := counterValue(p, "jag_proxy_health_transitions_total", metrics.Labels{"backend": b.Name(), "to": "up"})
	if down != 1 || up != 1 {
		t.Fatalf("transitions down=%d up=%d, want 1 and 1", down, up)
	}
}

// TestCapacityFollowsHealthProbe: the routing weight comes from each
// /healthz probe, not a slower loop of its own — a backend that reports
// a new capacity is weighted by it from the next sweep on, and one whose
// probe fails keeps the last weight it reported.
func TestCapacityFollowsHealthProbe(t *testing.T) {
	f := newFakeBackend(t)
	p, err := New([]string{f.srv.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := p.Backends()[0]
	for i, step := range []struct {
		capacity int64
		healthy  bool
		want     float64
	}{
		{100, true, 100},
		{300, true, 300},
		{500, false, 300}, // 503: the capacity it would report is never read
	} {
		f.capacity.Store(step.capacity)
		f.healthy.Store(step.healthy)
		p.probeSweep(context.Background())
		if got := b.CapacityQPS(); got != step.want {
			t.Fatalf("sweep %d: capacity %g, want %g", i, got, step.want)
		}
	}
}

// TestPickWeightsTheProbedSubset: a backend that has not reported its
// capacity yet does not pull the rest of the fleet off weighted routing —
// first attempts go by (inflight+1)/capacity among the probed ones, and the
// unprobed backend takes a retry once they are all tried.
func TestPickWeightsTheProbedSubset(t *testing.T) {
	fast, _ := newBackend("http://a:1")
	slow, _ := newBackend("http://b:2")
	fresh, _ := newBackend("http://c:3")
	p := &Proxy{backends: []*Backend{fast, slow, fresh}}
	fast.setCapacity(1000)
	slow.setCapacity(10)
	fast.inflight.Store(5)
	slow.inflight.Store(5) // fresh is idle: P2C would pick it every time
	for i := 0; i < 20; i++ {
		if got := p.pick(map[*Backend]bool{}); got != fast {
			t.Fatalf("pick chose %s, want the high-capacity backend %s", got.Name(), fast.Name())
		}
	}
	if got := p.pick(map[*Backend]bool{fast: true}); got != slow {
		t.Fatalf("pick with the best tried chose %s, want the other probed backend %s", got.Name(), slow.Name())
	}
	if got := p.pick(map[*Backend]bool{fast: true, slow: true}); got != fresh {
		t.Fatalf("pick with every probed backend tried chose %v, want %s", got, fresh.Name())
	}
	fresh.setCapacity(1000) // its first probe: now the idle one wins
	if got := p.pick(map[*Backend]bool{}); got != fresh {
		t.Fatalf("pick chose %s after the idle backend reported, want %s", got.Name(), fresh.Name())
	}
}

func TestRetryOnRetryableStatus(t *testing.T) {
	bad := newFakeBackend(t)
	good := newFakeBackend(t)
	bad.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	})
	// Pin routing order: give bad lower load... P2C with two candidates
	// compares both, so drive every request and require that all succeed
	// regardless of which backend each tries first.
	p, front := newTestProxy(t, Config{MaxRetries: 1, BreakerFails: 100}, bad, good)
	for i := 0; i < 8; i++ {
		resp := postCall(t, front.URL, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via retry", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Jag-Backend"); got == "" || !strings.Contains(good.srv.URL, got) {
			t.Fatalf("request %d relayed from %q, want the good backend", i, got)
		}
	}
	if v := counterValue(p, "jag_proxy_retries_total", nil); v == 0 {
		t.Fatal("no retries counted despite a 503-ing backend in rotation")
	}
}

// TestNegativeMaxRetriesMakesOneAttempt: MaxRetries < 0 is no retry at
// all (jagproxy -retries 0), while the zero value keeps the default 2 —
// a 503 from the first-picked backend is then the answer.
func TestNegativeMaxRetriesMakesOneAttempt(t *testing.T) {
	bad, good := newFakeBackend(t), newFakeBackend(t)
	bad.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	})
	p, front := newTestProxy(t, Config{MaxRetries: -1}, bad, good)
	p.Backends()[0].setCapacity(1000) // least-loaded picks the bad backend first
	p.Backends()[1].setCapacity(1)
	if resp := postCall(t, front.URL, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the first attempt's 503", resp.StatusCode)
	}
	if got := counterValue(p, "jag_proxy_retries_total", nil); got != 0 || good.calls.Load() != 0 {
		t.Fatalf("retries_total %d, good backend called %d times: want one attempt only", got, good.calls.Load())
	}
}

func TestPassiveBreakerTripsOnConsecutiveFailures(t *testing.T) {
	bad := newFakeBackend(t)
	good := newFakeBackend(t)
	bad.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	p, front := newTestProxy(t, Config{MaxRetries: 2, BreakerFails: 2}, bad, good)
	badB := p.Backends()[0]
	for i := 0; i < 64 && badB.Healthy(); i++ { // pick is random: about every second call tries the bad backend first
		postCall(t, front.URL, nil)
	}
	if badB.Healthy() {
		t.Fatal("passive breaker never tripped a backend failing every request")
	}
	// 500 is not a retryable status; the winning reply may legitimately
	// be the bad backend's when it was tried last. What matters is the
	// breaker took it out of rotation: traffic now flows only to good.
	before := bad.calls.Load()
	for i := 0; i < 5; i++ {
		resp := postCall(t, front.URL, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d after breaker isolated the bad backend", resp.StatusCode)
		}
	}
	if bad.calls.Load() != before {
		t.Fatal("tripped backend still receiving traffic")
	}
}

func TestHedgeInteractiveOnly(t *testing.T) {
	slow := newFakeBackend(t)
	fast := newFakeBackend(t)
	slow.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		fmt.Fprint(w, `{"outputs":[[1]]}`)
	})
	fast.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"outputs":[[2]]}`)
	})
	// Weight routing so the first pick is deterministic: the slow
	// backend advertises far more capacity, so least-loaded prefers it.
	p, front := newTestProxy(t, Config{HedgeDelay: 30 * time.Millisecond, MaxRetries: 1}, slow, fast)
	p.Backends()[0].setCapacity(1000)
	p.Backends()[1].setCapacity(1)

	start := time.Now()
	resp := postCall(t, front.URL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("interactive request took %v; the hedge should have answered first", d)
	}
	if got := counterValue(p, "jag_proxy_hedges_total", nil); got != 1 {
		t.Fatalf("hedges_total = %d, want 1", got)
	}
	if got := counterValue(p, "jag_proxy_hedge_wins_total", nil); got != 1 {
		t.Fatalf("hedge_wins_total = %d, want 1", got)
	}

	// The bulk lane never hedges: the same slow first pick must run to
	// completion.
	start = time.Now()
	resp = postCall(t, front.URL, map[string]string{"X-Priority": "bulk"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk status %d", resp.StatusCode)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Fatalf("bulk request answered in %v; it must not hedge off the slow backend", d)
	}
	if got := counterValue(p, "jag_proxy_hedges_total", nil); got != 1 {
		t.Fatalf("hedges_total = %d after bulk request, want still 1", got)
	}
}

func TestRateLimit429WithRetryAfter(t *testing.T) {
	f := newFakeBackend(t)
	p, front := newTestProxy(t, Config{RatePerSec: 0.5, Burst: 1}, f)
	if resp := postCall(t, front.URL, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}
	resp := postCall(t, front.URL, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 reply missing Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body not the JSON error envelope: %v %q", err, body.Error)
	}
	if got := counterValue(p, "jag_proxy_rate_limited_total", nil); got != 1 {
		t.Fatalf("rate_limited_total = %d, want 1", got)
	}
	// GET routes are exempt: health checks and dashboards must not spend
	// the client's call budget.
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under rate limit: %v %v", err, hresp.Status)
	}
	hresp.Body.Close()
}

func TestRequestIDPropagation(t *testing.T) {
	f := newFakeBackend(t)
	var seen atomic.Value
	f.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get("X-Request-Id"))
		fmt.Fprint(w, `{"outputs":[[1]]}`)
	})
	_, front := newTestProxy(t, Config{}, f)
	resp := postCall(t, front.URL, map[string]string{"X-Request-Id": "trace-me-42"})
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("echoed request id %q, want trace-me-42", got)
	}
	if got, _ := seen.Load().(string); got != "trace-me-42" {
		t.Fatalf("backend saw request id %q, want trace-me-42", got)
	}
	// Without a caller ID the proxy mints one and still propagates it.
	resp = postCall(t, front.URL, nil)
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" {
		t.Fatal("proxy did not mint a request id")
	}
	if got, _ := seen.Load().(string); got != minted {
		t.Fatalf("backend saw %q, proxy echoed %q", got, minted)
	}
}

func TestPassthroughAndFleetHealthz(t *testing.T) {
	f := newFakeBackend(t)
	p, front := newTestProxy(t, Config{}, f)
	resp, err := http.Get(front.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var models struct {
		Models []struct {
			Name string `json:"name"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].Name != "jag" {
		t.Fatalf("passthrough listing: %+v", models)
	}

	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health FleetHealth
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Healthy != 1 {
		t.Fatalf("fleet health %+v, want ok/1", health)
	}

	// Every backend down: fleet /healthz degrades to 503 "down".
	p.Backends()[0].healthy.Store(false)
	hresp2, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz status %d, want 503", hresp2.StatusCode)
	}
}

// scrape fetches the proxy's /metrics text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestMetricsExposition(t *testing.T) {
	f := newFakeBackend(t)
	p, front := newTestProxy(t, Config{}, f)
	// Every series is rendered at 0 before the first request — rate()
	// needs no first-sample special case.
	name := p.Backends()[0].Name()
	text := scrape(t, front.URL)
	for _, want := range []string{
		"jag_proxy_retries_total 0",
		"jag_proxy_hedges_total 0",
		"jag_proxy_no_backend_total 0",
		fmt.Sprintf(`jag_proxy_requests_total{backend=%q,code="2xx"} 0`, name),
		fmt.Sprintf(`jag_proxy_errors_total{backend=%q,kind="conn"} 0`, name),
		fmt.Sprintf(`jag_proxy_health_transitions_total{backend=%q,to="down"} 0`, name),
		fmt.Sprintf(`jag_proxy_request_latency_seconds_count{backend=%q} 0`, name),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("first scrape missing %q", want)
		}
	}
	postCall(t, front.URL, nil)
	text = scrape(t, front.URL)
	for _, want := range []string{
		fmt.Sprintf(`jag_proxy_requests_total{backend=%q,code="2xx"} 1`, name),
		"jag_proxy_requests_total{",
		"jag_proxy_request_latency_seconds_bucket{",
		"jag_proxy_backend_healthy{",
		"jag_proxy_backend_inflight{",
		"jag_proxy_backend_capacity_qps{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestProxyCountersConserve: every attempt the proxy launches is one
// jag_proxy_requests_total sample, so once nothing is in flight one
// render shows Σ requests_total = routed calls + retries + hedges, and
// no more hedges won than were raced. One backend answers 503 (calls
// retry), one answers late (calls hedge), and scrapes run beside the
// traffic — under -race that is the concurrent read of every
// instrument the attempt path writes.
func TestProxyCountersConserve(t *testing.T) {
	refusing, slow, fast := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	refusing.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	})
	slow.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(20 * time.Millisecond):
			fmt.Fprint(w, `{"outputs":[[1]]}`)
		case <-r.Context().Done():
		}
	})
	p, front := newTestProxy(t, Config{HedgeDelay: 2 * time.Millisecond, HealthInterval: 5 * time.Millisecond, RecoverAfter: 1},
		refusing, slow, fast)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx) // reinstates the refusing backend each time its breaker trips

	const clients, perClient = 4, 40
	done := make(chan struct{})
	var scrapes sync.WaitGroup
	for range 2 {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-done:
					return
				default:
					if err := p.Metrics().WritePrometheus(io.Discard); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var calls sync.WaitGroup
	for range clients {
		calls.Add(1)
		go func() {
			defer calls.Done()
			for range perClient {
				resp, err := http.Post(front.URL+"/v1/models/jag/predict", "application/json", strings.NewReader(`{"inputs":[[0.5]]}`))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("call: status %d, want 200", resp.StatusCode)
				}
			}
		}()
	}
	calls.Wait()
	close(done)
	scrapes.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for _, b := range p.Backends() {
		for b.Inflight() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("backend %s still has %d attempts in flight", b.Name(), b.Inflight())
			}
			time.Sleep(time.Millisecond)
		}
	}

	var text strings.Builder
	if err := p.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	value := func(series string) uint64 {
		for _, line := range strings.Split(text.String(), "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("no %s series in:\n%s", series, text.String())
		return 0
	}
	var attempts uint64
	for _, b := range p.Backends() {
		for _, code := range codeClasses {
			attempts += value(fmt.Sprintf(`jag_proxy_requests_total{backend=%q,code=%q}`, b.Name(), code))
		}
	}
	retries, hedges, wins := value("jag_proxy_retries_total"), value("jag_proxy_hedges_total"), value("jag_proxy_hedge_wins_total")
	t.Logf("%d calls: %d attempts, %d retries, %d hedges, %d hedge wins", clients*perClient, attempts, retries, hedges, wins)
	if retries == 0 || hedges == 0 {
		t.Fatalf("retries %d, hedges %d: the traffic must exercise both", retries, hedges)
	}
	if want := uint64(clients*perClient) + retries + hedges; attempts != want {
		t.Errorf("Σ jag_proxy_requests_total = %d, want calls + retries + hedges = %d", attempts, want)
	}
	if wins > hedges {
		t.Errorf("hedge_wins_total %d > hedges_total %d", wins, hedges)
	}
}

// TestLegacyAliasesGone pins the removal of the pre-v1 routes: the proxy
// no longer forwards them, whatever the backends would answer.
func TestLegacyAliasesGone(t *testing.T) {
	f := newFakeBackend(t)
	_, front := newTestProxy(t, Config{}, f)
	resp, err := http.Post(front.URL+"/predict", "application/json", strings.NewReader(`{"input":[0.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /predict status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats status %d, want 404", resp.StatusCode)
	}
	if f.calls.Load() != 0 {
		t.Fatal("an alias request reached a backend")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output
// written from handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// records waits for n JSON log records and returns them decoded.
func (b *syncBuffer) records(t *testing.T, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		text := strings.TrimSpace(b.String())
		if lines := strings.Split(text, "\n"); text != "" && len(lines) >= n {
			out := make([]map[string]any, len(lines))
			for i, line := range lines {
				if err := json.Unmarshal([]byte(line), &out[i]); err != nil {
					t.Fatalf("access log line is not JSON: %v\n%s", err, line)
				}
			}
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("want %d access-log records, have:\n%s", n, text)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAccessLog checks the proxy's records have the shared lifecycle's
// shape — the backend tier's base keys plus the backend that answered —
// and that a client that disconnects before any reply is logged as 499,
// not as the 200 nobody received.
func TestAccessLog(t *testing.T) {
	f := newFakeBackend(t)
	var logBuf syncBuffer
	p, front := newTestProxy(t, Config{AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil))}, f)

	resp := postCall(t, front.URL, map[string]string{"X-Request-Id": "log-me-1"})
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("relayed call: status %d, err %v", resp.StatusCode, err)
	}
	rec := logBuf.records(t, 1)[0]
	if rec["msg"] != "request" || rec["method"] != "POST" || rec["path"] != "/v1/models/jag/predict" ||
		rec["request_id"] != "log-me-1" || rec["backend"] != p.Backends()[0].Name() {
		t.Fatalf("record fields wrong: %v", rec)
	}
	if status, _ := rec["status"].(float64); status != http.StatusOK {
		t.Fatalf("status %v, want 200", rec["status"])
	}
	if n, _ := rec["bytes"].(float64); int(n) != len(body) {
		t.Fatalf("bytes %v, want the %d relayed", rec["bytes"], len(body))
	}
	if _, ok := rec["duration_ms"].(float64); !ok {
		t.Fatalf("record missing duration_ms: %v", rec)
	}

	// A backend that never answers, and a client that gives up on it.
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	f.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/models/jag/predict",
		strings.NewReader(`{"inputs":[[0.5]]}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request got a reply")
	}
	rec = logBuf.records(t, 2)[1]
	if status, _ := rec["status"].(float64); status != 499 {
		t.Fatalf("cancelled client logged as status %v, want 499: %v", rec["status"], rec)
	}
	if n, _ := rec["bytes"].(float64); n != 0 {
		t.Fatalf("cancelled client logged %v bytes, want 0", rec["bytes"])
	}
}

// unsized hides a reader's length from net/http, so the request goes
// out chunked with no Content-Length.
type unsized struct{ io.Reader }

// TestBodiesSizedFromContentLength drives request and reply bodies
// through both of the proxy's read paths — sized from Content-Length
// when the peer declared one, io.ReadAll when it is chunked — and
// checks the limits hold on each: an over-limit request is a 413 (on
// the declared length alone, before the backend is touched), a body at
// the limit passes, and a reply that ends before its declared length is
// a relay failure, never a short 200.
func TestBodiesSizedFromContentLength(t *testing.T) {
	be := newFakeBackend(t)
	var chunkedReply atomic.Bool
	be.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if chunkedReply.Load() {
			w.(http.Flusher).Flush() // headers out with no length: chunked
		} else {
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		}
		w.Write(body)
	})
	const limit = 100 << 10
	_, front := newTestProxy(t, Config{MaxBodyBytes: limit, MaxRetries: -1}, be)
	post := func(body io.Reader) (int, []byte) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/models/jag/predict", "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, got
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), limit/16) // exactly the limit
	for _, c := range []struct {
		name         string
		sized, reply bool // request declares its length; reply declares its length
	}{{"sized both ways", true, true}, {"chunked request", false, true}, {"chunked reply", true, false}} {
		chunkedReply.Store(!c.reply)
		var body io.Reader = bytes.NewReader(payload)
		if !c.sized {
			body = unsized{body}
		}
		if status, got := post(body); status != http.StatusOK || !bytes.Equal(got, payload) {
			t.Fatalf("%s: status %d, %d bytes back, want 200 and the %d sent", c.name, status, len(got), len(payload))
		}
	}

	calls := be.calls.Load()
	over := append(bytes.Clone(payload), 'x')
	if status, _ := post(bytes.NewReader(over)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length over the limit: status %d, want 413", status)
	}
	if status, _ := post(unsized{bytes.NewReader(over)}); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the limit: status %d, want 413", status)
	}
	if be.calls.Load() != calls {
		t.Fatal("an over-limit request reached the backend")
	}

	// A backend that dies mid-reply: declares 1000 bytes, sends 10.
	be.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		fmt.Fprint(buf, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n0123456789")
		buf.Flush()
		conn.Close()
	})
	if status, got := post(bytes.NewReader(payload)); status != http.StatusBadGateway {
		t.Fatalf("short backend reply relayed as status %d (%d bytes), want 502", status, len(got))
	}
}

// echoModel answers each two-value row with itself repeated to 600
// values: a one-row JSON reply is past the 2 KB below which net/http
// works out a Content-Length by itself.
type echoModel struct{}

func (echoModel) Dims() map[string]serve.Dims {
	return map[string]serve.Dims{serve.MethodPredict: {In: 2, Out: 600}}
}

func (echoModel) Run(_ string, x *tensor.Matrix) (*tensor.Matrix, error) {
	y := tensor.New(x.Rows, 600)
	for i := 0; i < x.Rows; i++ {
		for j := range y.Row(i) {
			y.Row(i)[j] = x.At(i, j%2) + float32(j)/1024
		}
	}
	return y, nil
}

// TestCallRepliesDeclareTheirLength: both tiers hold a call reply whole
// before they send it, so it leaves with a Content-Length and no chunked
// framing — a JSON reply, a JGT1 frame, and a mixed-result reply (rows
// beside row errors, which is rendered by encoding/json), direct from
// the backend and through the proxy.
func TestCallRepliesDeclareTheirLength(t *testing.T) {
	srv := serve.NewServer(echoModel{}, serve.Config{MaxBatch: 4})
	reg := serve.NewRegistry()
	if err := reg.Register("jag", srv); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	direct := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{}))
	defer direct.Close()
	p, err := New([]string{direct.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	proxied := httptest.NewServer(p)
	defer proxied.Close()

	frame, err := serve.EncodeFrame([][]float32{{0.25, 0.5}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct{ name, url string }{{"direct", direct.URL}, {"proxied", proxied.URL}} {
		for _, c := range []struct {
			name, contentType string
			body              []byte
			replyType, has    string
		}{
			{"json", "application/json", []byte(`{"inputs":[[0.25,0.5]]}`), "application/json", `{"outputs":[[0.25,`},
			{"jgt1", serve.ContentTypeTensor, frame, serve.ContentTypeTensor, "JGT1"},
			{"mixed", "application/json", []byte(`{"inputs":[[0.25,0.5],[1],[1,2]]}`), "application/json", `"errors":[null,{"status":400,`},
		} {
			resp, err := http.Post(tier.url+"/v1/models/jag/predict", c.contentType, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != c.replyType || !bytes.Contains(body, []byte(c.has)) || len(body) < 4096 {
				t.Fatalf("%s %s: status %d, %s, %d bytes: %.80q", tier.name, c.name, resp.StatusCode, resp.Header.Get("Content-Type"), len(body), body)
			}
			if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
				t.Errorf("%s %s: Content-Length %d, Transfer-Encoding %v, want %d and none", tier.name, c.name, resp.ContentLength, resp.TransferEncoding, len(body))
			}
		}
	}
}

// TestPanickingProxyHandlerIsContained: a panic on the proxy's handler
// goroutine (here from a corrupted backend table, met by pick) is a
// counted 500 with the error envelope, and the connection serves the
// next request. Called on the test's goroutine first: without the
// recover in serve.Lifecycle that ends the test binary.
func TestPanickingProxyHandlerIsContained(t *testing.T) {
	var stderr syncBuffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	p, front := newTestProxy(t, Config{}, newFakeBackend(t))
	whole := p.backends
	p.backends = []*Backend{nil}

	req := httptest.NewRequest(http.MethodPost, "/v1/models/jag/predict", strings.NewReader(`{"inputs":[[0.5]]}`))
	req.Header.Set(serve.RequestIDHeader, "boom-2")
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `{"error":"internal error (request boom-2)"}`) {
		t.Fatalf("panicking call: status %d, body %q", rec.Code, rec.Body)
	}
	p.backends = whole // Metrics walks the backends
	if got := counterValue(p, "jag_proxy_panics_total", nil); got != 1 {
		t.Fatalf("jag_proxy_panics_total = %d, want 1", got)
	}
	if !strings.Contains(stderr.String(), "(request boom-2)") {
		t.Errorf("log lacks the request ID: %s", stderr.String())
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var reused []bool
	post := func() int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/models/jag/predict", strings.NewReader(`{"inputs":[[0.5]]}`))
		if err != nil {
			t.Fatal(err)
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	p.backends = []*Backend{nil}
	if code := post(); code != http.StatusInternalServerError {
		t.Fatalf("panicking call over a connection: status %d, want 500", code)
	}
	p.backends = whole
	if code := post(); code != http.StatusOK {
		t.Fatalf("call after the panic: status %d, want 200", code)
	}
	if len(reused) != 2 || reused[0] || !reused[1] {
		t.Errorf("connection reuse across the panic = %v, want the second request on the first's connection", reused)
	}
	if got := counterValue(p, "jag_proxy_panics_total", nil); got != 2 {
		t.Errorf("jag_proxy_panics_total = %d, want 2", got)
	}
}

// panickyTransport panics on every request to one backend and forwards
// the rest.
type panickyTransport struct {
	host string
	next http.RoundTripper
}

func (t panickyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Host == t.host {
		panic("transport fell over")
	}
	return t.next.RoundTrip(r)
}

// TestPanickingAttemptIsContained: a panic on one of dispatch's attempt
// goroutines — outside serve.Lifecycle's recover, so at the parent of PR 24
// it ended the test binary — is that backend's failed attempt: counted,
// held against the backend until its breaker trips, and the request is
// answered by the other backend; with no other backend left it is a 502.
func TestPanickingAttemptIsContained(t *testing.T) {
	var stderr syncBuffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	bad, good := newFakeBackend(t), newFakeBackend(t)
	p, front := newTestProxy(t, Config{BreakerFails: 2}, bad, good)
	badB, goodB := p.backends[0], p.backends[1]
	p.hc = &http.Client{Transport: panickyTransport{host: badB.name, next: p.hc.Transport}}

	panicked := 0
	for i := 0; i < 64 && badB.Healthy(); i++ { // pick is random: about every second call tries the bad backend first
		resp := postCall(t, front.URL, map[string]string{serve.RequestIDHeader: "boom-3"})
		if resp.StatusCode != http.StatusOK || resp.Header.Get(backendHeader) != goodB.name {
			t.Fatalf("call %d: status %d from %q, want 200 from the backend whose transport works", i, resp.StatusCode, resp.Header.Get(backendHeader))
		}
		panicked = int(counterValue(p, "jag_proxy_panics_total", nil))
	}
	if panicked != 2 || badB.Healthy() {
		t.Fatalf("%d panics contained, backend healthy=%v: want the breaker tripped by the second", panicked, badB.Healthy())
	}
	if got := counterValue(p, "jag_proxy_retries_total", nil); got != 2 {
		t.Errorf("jag_proxy_retries_total = %d, want one per panicked attempt", got)
	}
	if got := counterValue(p, "jag_proxy_requests_total", metrics.Labels{"backend": badB.name, "code": "error"}); got != 2 {
		t.Errorf("the panicked attempts count as %d transport errors, want 2", got)
	}
	if badB.Inflight() != 0 || bad.calls.Load() != 0 {
		t.Errorf("bad backend: inflight %d, calls %d, want 0 and 0", badB.Inflight(), bad.calls.Load())
	}
	if !strings.Contains(stderr.String(), "transport fell over") || !strings.Contains(stderr.String(), "(request boom-3)") {
		t.Errorf("log lacks the panic or the request ID: %s", stderr.String())
	}

	// Nothing else to try: the panic is the answer's reason, not the process's end.
	goodB.healthy.Store(false)
	p.backends = p.backends[:1]
	resp := postCall(t, front.URL, nil)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(body), "panic: transport fell over") {
		t.Fatalf("lone panicking backend: status %d, body %q, want 502 naming the panic", resp.StatusCode, body)
	}
}

// TestProxyGoroutinesReturnToBaseline: a proxy that has probed, hedged,
// cancelled the losing attempts and dialled a refused backend leaves
// nothing running once its context is cancelled and its connections are
// closed — no prober, no attempt goroutine, no connection reader.
func TestProxyGoroutinesReturnToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()
	var cancelled atomic.Int64
	slow, fast, gone := newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)
	gone.srv.Close() // its URL now refuses connections
	slow.handler.Store(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a request read to its end sees its client leave
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			cancelled.Add(1)
		}
	})
	p, front := newTestProxy(t, Config{HealthInterval: 10 * time.Millisecond, HedgeDelay: 20 * time.Millisecond}, slow, fast, gone)
	p.Backends()[0].setCapacity(1000) // least-loaded picks the slow backend first: calls hedge
	p.Backends()[1].setCapacity(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	client := &http.Client{}
	for i := 0; i < 50; i++ {
		resp, err := client.Post(front.URL+"/v1/models/jag/predict", "application/json", strings.NewReader(`{"inputs":[[0.5]]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d", i, resp.StatusCode)
		}
	}
	cancel()
	for _, s := range []*httptest.Server{front, slow.srv, fast.srv} {
		s.Close()
	}
	for _, c := range []*http.Client{client, p.hc, p.probeHC} {
		c.CloseIdleConnections()
	}
	if hedges := counterValue(p, "jag_proxy_hedges_total", nil); hedges == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d hedges, %d attempts cancelled mid-flight; want both", hedges, cancelled.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the proxy started:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
