package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// drivePredicts pushes n distinct interactive predict rows through ts.
func drivePredicts(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, status := postPredict(t, ts, PredictRequest{Input: testInput(i)})
		if status != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, status)
		}
		if len(resp.Outputs) != 1 {
			t.Fatalf("predict %d: %d outputs", i, len(resp.Outputs))
		}
	}
}

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Fatalf("/metrics content-type %q, want %q", ct, promContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsExposition drives traffic through the v1 handler and
// checks that the Prometheus exposition carries the per-(model, method,
// lane) request counter, the per-stage histograms, and the serving
// gauges — the contract docs/OBSERVABILITY.md documents.
func TestMetricsExposition(t *testing.T) {
	ts := newTestHTTP(t)
	defer ts.Close()
	const n = 5
	drivePredicts(t, ts, n)
	// Repeat one row to produce a cache hit.
	if _, status := postPredict(t, ts, PredictRequest{Input: testInput(0)}); status != http.StatusOK {
		t.Fatalf("cache-hit predict: status %d", status)
	}
	text := scrape(t, ts)

	// Labels render sorted by key, so the series name is deterministic.
	for _, want := range []string{
		fmt.Sprintf(`jag_requests_total{lane="interactive",method="predict",model="default"} %d`, n),
		`# TYPE jag_requests_total counter`,
		`# TYPE jag_request_latency_seconds histogram`,
		fmt.Sprintf(`jag_request_latency_seconds_count{model="default"} %d`, n),
		`jag_request_latency_seconds_bucket{model="default",le="+Inf"}`,
		`# TYPE jag_stage_latency_seconds histogram`,
		fmt.Sprintf(`jag_stage_latency_seconds_count{model="default",stage="queue_wait"} %d`, n),
		fmt.Sprintf(`jag_stage_latency_seconds_count{model="default",stage="encode"} %d`, n+1),
		`jag_stage_latency_seconds_count{model="default",stage="forward"}`,
		`jag_stage_latency_seconds_count{model="default",stage="batch_assembly"}`,
		`jag_cache_hits_total{model="default"} 1`,
		fmt.Sprintf(`jag_cache_misses_total{model="default"} %d`, n),
		`jag_model_ready{model="default"} 1`,
		`jag_generation{model="default"} 1`,
		`jag_reloads_total{model="default"} 0`,
		`jag_lane_depth{lane="interactive",model="default"} 0`,
		`jag_queue_depth{model="default"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestMetricsScrapeUnderLoad hammers the call route and /metrics
// concurrently. Under -race this doubles as proof that scrapes read the
// pipeline's instruments without racing the hot path; the assertions
// prove a scrape mid-traffic always renders a complete exposition.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	ts := newTestHTTP(t)
	defer ts.Close()
	const clients, perClient, scrapes = 4, 25, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				postPredict(t, ts, PredictRequest{Input: testInput(c*perClient + i)})
			}
		}(c)
	}
	for i := 0; i < scrapes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := scrape(t, ts)
			if !strings.Contains(text, "# TYPE jag_request_latency_seconds histogram") {
				t.Error("mid-load scrape missing the latency histogram family")
			}
		}()
	}
	wg.Wait()
	final := scrape(t, ts)
	want := fmt.Sprintf(`jag_request_latency_seconds_count{model="default"} %d`, clients*perClient)
	if !strings.Contains(final, want) {
		t.Fatalf("final scrape missing %q in:\n%s", want, final)
	}
}

// TestRequestIDEcho checks the correlation-ID contract: caller-supplied
// IDs propagate to the response, absent or unprintable ones are
// replaced with a fresh 16-hex-digit ID.
func TestRequestIDEcho(t *testing.T) {
	ts := newTestHTTP(t)
	defer ts.Close()
	get := func(id string) string {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get(RequestIDHeader)
	}
	if got := get("trace-abc-123"); got != "trace-abc-123" {
		t.Fatalf("caller ID not propagated: got %q", got)
	}
	fresh := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if got := get(""); !fresh.MatchString(got) {
		t.Fatalf("missing ID not replaced with a fresh one: got %q", got)
	}
	if got := get(strings.Repeat("x", 200)); !fresh.MatchString(got) {
		t.Fatalf("oversized ID not replaced: got %q", got)
	}
	// An unprintable ID never leaves Go's http client, so exercise the
	// sanitizer through the handler directly.
	s, _ := newTestServer(t, Config{MaxBatch: 1})
	h := defaultHandler(t, s, HandlerConfig{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header[RequestIDHeader] = []string{"bad\x01id"}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); !fresh.MatchString(got) {
		t.Fatalf("unprintable ID not replaced: got %q", got)
	}
}

// TestServerTimingHeader checks that a successful call response carries
// the stage decomposition as a Server-Timing header.
func TestServerTimingHeader(t *testing.T) {
	ts := newTestHTTP(t)
	defer ts.Close()
	body, _ := json.Marshal(PredictRequest{Input: testInput(1)})
	resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := resp.Header.Get("Server-Timing")
	for _, metric := range []string{"queue_wait;dur=", "batch_assembly;dur=", "forward;dur=", "batch;desc="} {
		if !strings.Contains(st, metric) {
			t.Fatalf("Server-Timing %q missing %q", st, metric)
		}
	}
	// The identical row again: answered from cache, marked as such.
	resp2, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st2 := resp2.Header.Get("Server-Timing"); !strings.Contains(st2, `cache;desc="hit"`) {
		t.Fatalf("cache-hit Server-Timing %q lacks the cache marker", st2)
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

// TestAccessLogJSON checks the structured access log: one JSON record
// per request, carrying the response's request ID, the status, and the
// per-stage spans for call routes.
func TestAccessLogJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond})
	var logBuf syncBuffer
	h := defaultHandler(t, s, HandlerConfig{
		AccessLog: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	body, _ := json.Marshal(PredictRequest{Input: testInput(2)})
	resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wantID := resp.Header.Get(RequestIDHeader)

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 log record, got %d:\n%s", len(lines), logBuf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, lines[0])
	}
	if rec["msg"] != "request" || rec["method"] != "POST" ||
		rec["path"] != "/v1/models/default/predict" || rec["request_id"] != wantID {
		t.Fatalf("record fields wrong: %v", rec)
	}
	if status, _ := rec["status"].(float64); status != http.StatusOK {
		t.Fatalf("status %v, want 200", rec["status"])
	}
	for _, span := range []string{"duration_ms", "queue_wait_ms", "batch_assembly_ms", "forward_ms", "encode_ms"} {
		if _, ok := rec[span].(float64); !ok {
			t.Fatalf("record missing span %q: %v", span, rec)
		}
	}
	if batch, _ := rec["batch"].(float64); batch < 1 {
		t.Fatalf("batch %v, want >= 1", rec["batch"])
	}
}

// TestCallTraceSpans checks the in-process tracing contract: CallTrace
// returns per-stage spans that are positive, and the queue-wait span is
// bounded by the configured batch window plus scheduling slack.
func TestCallTraceSpans(t *testing.T) {
	const window = 2 * time.Millisecond
	s, _ := newTestServer(t, Config{MaxBatch: 8, MaxDelay: window, CacheSize: 16})
	y, tr, err := s.CallTrace(t.Context(), MethodPredict, testInput(9), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) == 0 {
		t.Fatal("no output")
	}
	if tr.CacheHit {
		t.Fatal("first call marked as cache hit")
	}
	if tr.Batch != 1 {
		t.Fatalf("batch %d, want 1", tr.Batch)
	}
	if tr.QueueWait <= 0 || tr.Forward <= 0 {
		t.Fatalf("non-positive spans: %+v", tr)
	}
	if tr.QueueWait > 10*window {
		t.Fatalf("queue wait %v far exceeds the %v window", tr.QueueWait, window)
	}
	// Identical row: cache hit, no pipeline spans.
	_, tr2, err := s.CallTrace(t.Context(), MethodPredict, testInput(9), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.CacheHit {
		t.Fatal("second identical call not served from cache")
	}
	if tr2.QueueWait != 0 || tr2.Forward != 0 {
		t.Fatalf("cache hit carries pipeline spans: %+v", tr2)
	}
}
