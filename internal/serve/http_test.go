package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/parallel"
)

// defaultHandler mounts s as the sole model, named "default", of a fresh
// registry behind the v1 handler — the single-model deployment shape
// most handler tests drive.
func defaultHandler(t testing.TB, s *Server, hc HandlerConfig) http.Handler {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register("default", s); err != nil {
		t.Fatal(err)
	}
	return NewRegistryHandler(reg, hc)
}

// newTestHTTP starts an httptest server over a single-replica pool.
func newTestHTTP(t *testing.T) *httptest.Server {
	t.Helper()
	model := cyclegan.New(testModelCfg(), 42)
	pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{MaxBatch: 8, CacheSize: 16})
	ts := httptest.NewServer(defaultHandler(t, s, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// predictPath is the default model's predict route.
const predictPath = "/v1/models/default/predict"

// postPredict posts a PredictRequest to the default model's predict
// route and decodes the reply.
func postPredict(t *testing.T, ts *httptest.Server, req PredictRequest) (PredictResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+predictPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		// Failed batches still carry the per-row detail; error bodies
		// without it ({"error":...}) decode to the zero response.
		_ = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, resp.StatusCode
}

// TestHTTPPredict drives the predict route with a batch and a single input.
func TestHTTPPredict(t *testing.T) {
	ts := newTestHTTP(t)
	outDim := jag.Tiny8.OutputDim()

	out, code := postPredict(t, ts, PredictRequest{
		Inputs: [][]float32{testInput(0), testInput(1)},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Outputs) != 2 || len(out.Outputs[0]) != outDim {
		t.Fatalf("got %d outputs of width %d, want 2 x %d", len(out.Outputs), len(out.Outputs[0]), outDim)
	}

	single, code := postPredict(t, ts, PredictRequest{Input: testInput(0)})
	if code != http.StatusOK || len(single.Outputs) != 1 {
		t.Fatalf("single input: status %d, %d outputs", code, len(single.Outputs))
	}
	for j, v := range single.Outputs[0] {
		if v != out.Outputs[0][j] {
			t.Fatal("single-input reply differs from batch reply for the same input")
		}
	}
}

// TestHTTPLargeBatch posts more inputs than the server's queue depth:
// the handler must throttle row submission instead of tripping its own
// backpressure and failing the whole request with 503.
func TestHTTPLargeBatch(t *testing.T) {
	model := cyclegan.New(testModelCfg(), 42)
	pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{MaxBatch: 8, QueueDepth: 16})
	ts := httptest.NewServer(defaultHandler(t, s, HandlerConfig{}))
	defer func() {
		ts.Close()
		s.Close()
	}()

	const n = 100 // > QueueDepth
	inputs := make([][]float32, n)
	for i := range inputs {
		inputs[i] = testInput(i)
	}
	out, code := postPredict(t, ts, PredictRequest{Inputs: inputs})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 for batch larger than queue depth", code)
	}
	if len(out.Outputs) != n {
		t.Fatalf("got %d outputs, want %d", len(out.Outputs), n)
	}
}

// TestHTTPScalarsOnly checks the payload-trimming flag.
func TestHTTPScalarsOnly(t *testing.T) {
	ts := newTestHTTP(t)
	out, code := postPredict(t, ts, PredictRequest{Input: testInput(2), ScalarsOnly: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(out.Outputs[0]) != jag.ScalarDim {
		t.Fatalf("scalars_only width %d, want %d", len(out.Outputs[0]), jag.ScalarDim)
	}
}

// TestHTTPErrors covers method, body and dimension validation.
func TestHTTPErrors(t *testing.T) {
	ts := newTestHTTP(t)

	resp, err := http.Get(ts.URL + predictPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET %s status %d", predictPath, resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+predictPath, "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status %d", resp.StatusCode)
	}

	if _, code := postPredict(t, ts, PredictRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty request status %d", code)
	}
	if _, code := postPredict(t, ts, PredictRequest{Input: []float32{1}}); code != http.StatusBadRequest {
		t.Fatalf("short input status %d", code)
	}
}

// TestHTTPPartialRowErrors posts a batch with one poisoned row: the
// reply must be 200 with the valid rows' outputs and an aligned per-row
// error entry, instead of discarding the siblings' completed work.
func TestHTTPPartialRowErrors(t *testing.T) {
	ts := newTestHTTP(t)
	out, code := postPredict(t, ts, PredictRequest{
		Inputs: [][]float32{testInput(0), {1, 2}, testInput(1)},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 for a mixed batch", code)
	}
	if len(out.Outputs) != 3 || len(out.Errors) != 3 {
		t.Fatalf("outputs/errors = %d/%d entries, want 3/3", len(out.Outputs), len(out.Errors))
	}
	if out.Outputs[0] == nil || out.Outputs[2] == nil || out.Outputs[1] != nil {
		t.Fatalf("outputs not aligned: row1 should be the only null")
	}
	if out.Errors[0] != nil || out.Errors[2] != nil {
		t.Fatalf("errors not aligned: %+v", out.Errors)
	}
	if out.Errors[1] == nil || out.Errors[1].Status != http.StatusBadRequest {
		t.Fatalf("row 1 error = %+v, want status 400", out.Errors[1])
	}
}

// TestHTTPAllRowsFailed checks that a batch with no surviving rows
// reports the severest row status at the top level, with the per-row
// detail still in the body.
func TestHTTPAllRowsFailed(t *testing.T) {
	ts := newTestHTTP(t)
	out, code := postPredict(t, ts, PredictRequest{
		Inputs: [][]float32{{1}, {2, 3}},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 when every row is invalid", code)
	}
	if len(out.Errors) != 2 || out.Errors[0] == nil || out.Errors[1] == nil {
		t.Fatalf("per-row errors missing from failed batch: %+v", out.Errors)
	}
}

// TestHTTPDeadlineExpired posts a request with a 10 ms deadline while the
// server's only worker is held inside a forward pass: the row is queued
// with nowhere to go, expires there, is dropped before it reaches the
// model, and surfaces as 504 with the expiry visible in the stats.
func TestHTTPDeadlineExpired(t *testing.T) {
	s, model := newScriptedServer(t, Config{MaxBatch: 64})
	ts := httptest.NewServer(defaultHandler(t, s, HandlerConfig{}))
	defer ts.Close()
	release := holdWorker(t, s, model)

	out, code := postPredict(t, ts, PredictRequest{Input: []float32{1, 0.5}, DeadlineMs: 10})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 for an expired deadline", code)
	}
	if len(out.Errors) != 1 || out.Errors[0] == nil || out.Errors[0].Status != http.StatusGatewayTimeout {
		t.Fatalf("row error = %+v, want status 504", out.Errors)
	}
	// The worker meets the dead row only once it is free again.
	release()
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Stats()
		if snap.Expired == 1 {
			if snap.Requests != 1 {
				t.Fatalf("served %d rows, want only the one that held the worker: %+v", snap.Requests, snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry never reached stats: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, p := range model.log() {
		for _, id := range p.ids {
			if id == 1 {
				t.Fatal("the expired row reached the model")
			}
		}
	}
}

// TestHTTPPriority covers lane selection via body field and header, and
// rejection of unknown classes.
func TestHTTPPriority(t *testing.T) {
	ts := newTestHTTP(t)
	if _, code := postPredict(t, ts, PredictRequest{Input: testInput(0), Priority: "bulk"}); code != http.StatusOK {
		t.Fatalf("bulk priority status %d", code)
	}
	if _, code := postPredict(t, ts, PredictRequest{Input: testInput(0), Priority: "urgent"}); code != http.StatusBadRequest {
		t.Fatalf("unknown priority status %d, want 400", code)
	}

	body, _ := json.Marshal(PredictRequest{Input: testInput(0)})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+predictPath, bytes.NewReader(body))
	req.Header.Set(PriorityHeader, "bulk")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header priority status %d", resp.StatusCode)
	}
}

// TestBatchStatusDeterministic pins the severity ordering of the
// all-rows-failed top-level status: 500 > 503 > 504 > 499 > 404 > 400,
// independent of row order.
func TestBatchStatusDeterministic(t *testing.T) {
	re := func(st int) *RowError { return &RowError{Status: st} }
	cases := []struct {
		rows []*RowError
		want int
	}{
		{[]*RowError{re(503), re(500)}, 500},
		{[]*RowError{re(400), re(404)}, 404},
		{[]*RowError{re(404), re(499)}, 499},
		{[]*RowError{re(400), re(503)}, 503},
		{[]*RowError{re(503), re(400)}, 503},
		{[]*RowError{re(504), re(503), re(400)}, 503},
		{[]*RowError{re(400), re(504)}, 504},
		{[]*RowError{re(504), re(499), nil}, 504},
		{[]*RowError{re(499), re(400)}, 499},
		{[]*RowError{re(400), re(400)}, 400},
	}
	for i, c := range cases {
		if got := batchStatus(c.rows); got != c.want {
			t.Errorf("case %d: batchStatus = %d, want %d", i, got, c.want)
		}
	}
}

// TestHTTPHealthzClosed checks that /healthz flips to 503/"closed" once
// the server is shut down, so load balancers stop routing to it.
func TestHTTPHealthzClosed(t *testing.T) {
	model := cyclegan.New(testModelCfg(), 42)
	pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{})
	ts := httptest.NewServer(defaultHandler(t, s, HandlerConfig{}))
	defer ts.Close()
	s.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed /healthz status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "closed" {
		t.Fatalf("closed /healthz status = %q, want \"closed\"", health.Status)
	}
}

// TestHTTPHealthAndStats checks the observability endpoints.
func TestHTTPHealthAndStats(t *testing.T) {
	ts := newTestHTTP(t)
	postPredict(t, ts, PredictRequest{Input: testInput(0)})
	postPredict(t, ts, PredictRequest{Input: testInput(0)}) // cache hit

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models["default"].Status != "ok" || health.Models["default"].Replicas != 1 {
		t.Fatalf("health = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/models/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 1 || snap.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 model request and 1 cache hit", snap)
	}
}

// shapePanicModel is a scriptedModel whose Replicas — which the listing
// and health routes read on the handler's goroutine — panics once armed.
type shapePanicModel struct {
	scriptedModel
	armed atomic.Bool
}

func (m *shapePanicModel) Replicas() int {
	if m.armed.Load() {
		panic("shape: boom")
	}
	return 1
}

// TestPanickingHandlerIsContained: a handler that panics answers 500 with
// the error envelope and the request's ID, is counted in
// jag_http_panics_total and named in the access log, and the
// connection's next request is served as if nothing had happened. The
// first half calls the handler on the test's own goroutine, so without
// the recover in Lifecycle the panic ends the test binary.
func TestPanickingHandlerIsContained(t *testing.T) {
	m := &shapePanicModel{}
	s := NewServer(m, Config{MaxBatch: 4})
	defer s.Close()
	var logged, stderr syncBuffer
	log.SetOutput(&stderr)
	defer log.SetOutput(os.Stderr)
	h := defaultHandler(t, s, HandlerConfig{AccessLog: slog.New(slog.NewJSONHandler(&logged, nil))})
	m.armed.Store(true)

	req := httptest.NewRequest(http.MethodGet, "/v1/models", nil)
	req.Header.Set(RequestIDHeader, "boom-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var envelope struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(envelope.Error, "boom-1") || rec.Header().Get(RequestIDHeader) != "boom-1" {
		t.Fatalf("panicking route: status %d, body %q (%v), want a 500 error envelope naming request boom-1", rec.Code, rec.Body, err)
	}
	if rec := logged.String(); !strings.Contains(rec, `"status":500`) || !strings.Contains(rec, `"request_id":"boom-1"`) || !strings.Contains(rec, `"panic":"shape: boom"`) {
		t.Errorf("access log does not record the panic: %s", rec)
	}
	if out := stderr.String(); !strings.Contains(out, "(request boom-1): shape: boom") || !strings.Contains(out, "shapePanicModel") {
		t.Errorf("log lacks the panic, its request ID or its stack: %s", out)
	}

	// Over a real connection: the panic, then a call and a scrape on the
	// same keep-alive connection.
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var reused []bool
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
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
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	if code, body := do(http.MethodGet, "/healthz", ""); code != http.StatusInternalServerError || !strings.Contains(body, `{"error":"internal error`) {
		t.Fatalf("panicking /healthz: status %d, body %q", code, body)
	}
	if code, body := do(http.MethodPost, predictPath, `{"input":[1,2]}`); code != http.StatusOK || !strings.Contains(body, `"outputs"`) {
		t.Fatalf("call after the panic: status %d, body %q", code, body)
	}
	code, metrics := do(http.MethodGet, "/metrics", "")
	if code != http.StatusOK || !strings.Contains(metrics, "jag_http_panics_total 2\n") {
		t.Fatalf("scrape after two panics: status %d, jag_http_panics_total line missing or wrong:\n%s", code, metrics)
	}
	if !reflect.DeepEqual(reused, []bool{false, true, true}) {
		t.Errorf("connection reuse across the panic = %v, want one connection for all three requests", reused)
	}
}

// TestInteractiveAdmissionsMarkTheProcess: every way an interactive row
// comes in — a JSON body that names its lane, a JGT1 frame under the
// priority header, a request that names no lane, Server.Call, and a repeat
// the LRU answers — marks the process, so that parallel.Quiet reads false and
// the next long forward pass keeps its gaps between waves; a bulk row, JSON
// or JGT1, does not. Each case starts in a quiet process: the test waits out
// the quiet window before it.
func TestInteractiveAdmissionsMarkTheProcess(t *testing.T) {
	pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(testModelCfg(), 42)}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{MaxBatch: 8, CacheSize: 16})
	ts := httptest.NewServer(defaultHandler(t, s, HandlerConfig{}))
	defer s.Close()
	defer ts.Close()

	x := []float32{0.1, 0.2, 0.3, 0.4, 0.5}
	post := func(body []byte, contentType, priority string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+predictPath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if priority != "" {
			req.Header.Set(PriorityHeader, priority)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", contentType, priority, resp.StatusCode)
		}
	}
	postJSON := func(row []float32, lane string) {
		t.Helper()
		body, _ := json.Marshal(PredictRequest{Input: row, Priority: lane})
		post(body, "application/json", "")
	}
	postFrame := func(row []float32, lane string) {
		t.Helper()
		frame, err := EncodeFrame([][]float32{row})
		if err != nil {
			t.Fatal(err)
		}
		post(frame, ContentTypeTensor, lane)
	}
	cases := []struct {
		name  string
		marks bool
		call  func()
	}{
		{"bulk JSON", false, func() { postJSON([]float32{0.9, 0.1, 0.1, 0.1, 0.1}, "bulk") }},
		{"bulk JGT1", false, func() { postFrame([]float32{0.8, 0.1, 0.1, 0.1, 0.1}, "bulk") }},
		{"JSON", true, func() { postJSON(x, "interactive") }},
		{"JGT1", true, func() { postFrame([]float32{0.7, 0.1, 0.1, 0.1, 0.1}, "interactive") }},
		{"no priority header", true, func() {
			if _, _, err := NewClient(ts.URL).Call(context.Background(), "default", MethodPredict, [][]float32{{0.6, 0.1, 0.1, 0.1, 0.1}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"Server.Call", true, func() {
			if _, err := s.Call(context.Background(), MethodPredict, []float32{0.5, 0.1, 0.1, 0.1, 0.1}, Interactive); err != nil {
				t.Fatal(err)
			}
		}},
		{"LRU hit", true, func() {
			hits := s.Stats().CacheHits
			postJSON(x, "")
			if s.Stats().CacheHits != hits+1 {
				t.Fatalf("the repeat of the JSON row was not a cache hit")
			}
		}},
	}
	for _, c := range cases {
		for deadline := time.Now().Add(10 * time.Second); !parallel.Quiet(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the process was not quiet 10 s on", c.name)
			}
		}
		c.call()
		if marked := !parallel.Quiet(); marked != c.marks {
			t.Errorf("%s: marked the process %v, want %v", c.name, marked, c.marks)
		}
	}
}
