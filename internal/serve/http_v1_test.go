package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/tensor"
)

// newV1TestServer mounts a two-model registry ("alpha" seeded 42,
// "beta" seeded 7) and returns it with the httptest server.
func newV1TestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	for name, seed := range map[string]int64{"alpha": 42, "beta": 7} {
		pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(testModelCfg(), seed)}, false)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(pool, Config{MaxBatch: 8, CacheSize: 16})
		if err := reg.Register(name, s); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(NewRegistryHandler(reg, HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, reg
}

// refRow runs one row through a reference surrogate pass.
func refRow(seed int64, x []float32, invert bool) []float32 {
	ref := cyclegan.New(testModelCfg(), seed)
	xm := tensor.New(1, jag.InputDim)
	copy(xm.Row(0), x)
	var y *tensor.Matrix
	if invert {
		y = ref.Invert(xm)
	} else {
		y = ref.Predict(xm)
	}
	return append([]float32(nil), y.Row(0)...)
}

// TestV1TwoModelsIndependent drives the acceptance scenario: one
// process, two named models, predict on one and invert on the other,
// over both transports, each reply matching its own model's reference
// pass.
func TestV1TwoModelsIndependent(t *testing.T) {
	ts, _ := newV1TestServer(t)
	ctx := context.Background()
	x := testInput(3)

	jsonClient := NewClient(ts.URL)
	binClient := NewClient(ts.URL)
	binClient.Binary = true

	for _, c := range []*Client{jsonClient, binClient} {
		outs, rowErrs, err := c.Call(ctx, "alpha", MethodPredict, [][]float32{x})
		if err != nil || rowErrs != nil {
			t.Fatalf("alpha predict (binary=%v): %v %v", c.Binary, err, rowErrs)
		}
		want := refRow(42, x, false)
		if len(outs) != 1 || len(outs[0]) != len(want) {
			t.Fatalf("alpha predict shape %dx%d", len(outs), len(outs[0]))
		}
		for j := range want {
			if outs[0][j] != want[j] {
				t.Fatalf("alpha predict differs from seed-42 reference at col %d", j)
			}
		}

		outs, rowErrs, err = c.Call(ctx, "beta", MethodInvert, [][]float32{x})
		if err != nil || rowErrs != nil {
			t.Fatalf("beta invert (binary=%v): %v %v", c.Binary, err, rowErrs)
		}
		want = refRow(7, x, true)
		if len(outs) != 1 || len(outs[0]) != jag.InputDim {
			t.Fatalf("beta invert shape %dx%d", len(outs), len(outs[0]))
		}
		for j := range want {
			if outs[0][j] != want[j] {
				t.Fatalf("beta invert differs from seed-7 reference at col %d", j)
			}
		}
	}
}

// TestV1ModelListing checks GET /v1/models: names, readiness, and
// per-method dims.
func TestV1ModelListing(t *testing.T) {
	ts, reg := newV1TestServer(t)
	models, err := NewClient(ts.URL).Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0].Name != "alpha" || models[1].Name != "beta" {
		t.Fatalf("listing = %+v, want sorted [alpha beta]", models)
	}
	outDim := jag.Tiny8.OutputDim()
	for _, m := range models {
		if !m.Ready || m.Replicas != 1 {
			t.Fatalf("model %s: ready=%v replicas=%d", m.Name, m.Ready, m.Replicas)
		}
		if d := m.Methods[MethodPredict]; d.In != jag.InputDim || d.Out != outDim {
			t.Fatalf("model %s predict dims %+v", m.Name, d)
		}
		if d := m.Methods[MethodInvert]; d.In != jag.InputDim || d.Out != jag.InputDim {
			t.Fatalf("model %s invert dims %+v", m.Name, d)
		}
	}

	// A closed model flips Ready in the listing.
	s, _ := reg.Get("beta")
	s.Close()
	models, err = NewClient(ts.URL).Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if models[0].Ready != true || models[1].Ready != false {
		t.Fatalf("readiness after close = %v/%v", models[0].Ready, models[1].Ready)
	}
}

// TestV1PerModelStats checks that each model's counters are its own.
func TestV1PerModelStats(t *testing.T) {
	ts, _ := newV1TestServer(t)
	ctx := context.Background()
	c := NewClient(ts.URL)
	if _, _, err := c.Call(ctx, "alpha", MethodPredict, [][]float32{testInput(0), testInput(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Call(ctx, "beta", MethodInvert, [][]float32{testInput(0)}); err != nil {
		t.Fatal(err)
	}
	alpha, err := c.Stats(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := c.Stats(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if alpha.Requests != 2 || alpha.MethodRequests[MethodPredict] != 2 {
		t.Fatalf("alpha stats = %+v, want 2 predict requests", alpha)
	}
	if beta.Requests != 1 || beta.MethodRequests[MethodInvert] != 1 {
		t.Fatalf("beta stats = %+v, want 1 invert request", beta)
	}
	if _, err := c.Stats(ctx, "missing"); err == nil {
		t.Fatal("stats for unknown model succeeded")
	}
}

// TestV1NotFoundAndVerbs covers the routing edge cases: unknown model
// and unknown method 404, wrong verb 405.
func TestV1NotFoundAndVerbs(t *testing.T) {
	ts, _ := newV1TestServer(t)
	body, _ := json.Marshal(PredictRequest{Input: testInput(0)})

	post := func(path string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/models/ghost/predict"); code != http.StatusNotFound {
		t.Fatalf("unknown model status %d, want 404", code)
	}
	if code := post("/v1/models/alpha/embed"); code != http.StatusNotFound {
		t.Fatalf("unknown method status %d, want 404", code)
	}

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/models/alpha/predict"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET call route status %d, want 405", code)
	}
	// The pre-v1 aliases are gone, whatever the verb.
	if code := post("/predict"); code != http.StatusNotFound {
		t.Fatalf("POST /predict status %d, want 404", code)
	}
	if code := get("/stats"); code != http.StatusNotFound {
		t.Fatalf("GET /stats status %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/models status %d, want 405", resp.StatusCode)
	}
}

// TestV1MalformedFrames posts corrupt binary bodies: every one must be
// a clean 400, never a panic or a hang.
func TestV1MalformedFrames(t *testing.T) {
	ts, _ := newV1TestServer(t)
	good, err := EncodeFrame([][]float32{testInput(0)})
	if err != nil {
		t.Fatal(err)
	}
	wrongCols, err := EncodeFrame([][]float32{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	overflow := append([]byte(nil), good...)
	overflow[8], overflow[9], overflow[10], overflow[11] = 0xff, 0xff, 0xff, 0xff
	overflow[12], overflow[13], overflow[14], overflow[15] = 0xff, 0xff, 0xff, 0xff

	cases := map[string][]byte{
		"bad magic":         append([]byte("XXXX"), good[4:]...),
		"truncated header":  good[:10],
		"truncated payload": good[:len(good)-4],
		"row/col overflow":  overflow,
		"wrong cols":        wrongCols,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/models/alpha/predict", ContentTypeTensor, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestV1BinaryReplyDeclaresItsLength: the reply frame is streamed row
// by row, but its length is known before the first byte, so it goes
// out with a Content-Length (not chunked) that a relay can size its
// buffer from — and the streamed bytes are the frame EncodeFrame would
// have built, which the reference pass pins bit for bit. A bulk call of
// the same rows is then served by the cache the interactive call
// filled.
func TestV1BinaryReplyDeclaresItsLength(t *testing.T) {
	ts, _ := newV1TestServer(t)
	inputs := [][]float32{testInput(0), testInput(1), testInput(2)}
	body, err := EncodeFrame(inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(inputs))
	for i, x := range inputs {
		want[i] = refRow(42, x, false)
	}
	wantFrame, err := EncodeFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{"interactive", "bulk"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/alpha/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentTypeTensor)
		req.Header.Set(PriorityHeader, lane)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", lane, resp.StatusCode, err)
		}
		if resp.ContentLength != int64(len(wantFrame)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v; want %d and none", lane, resp.ContentLength, resp.TransferEncoding, len(wantFrame))
		}
		if !bytes.Equal(got, wantFrame) {
			t.Fatalf("%s: reply frame differs from the reference rows' frame", lane)
		}
		if hit := strings.Contains(resp.Header.Get("Server-Timing"), "cache"); hit != (lane == "bulk") {
			t.Fatalf("%s: Server-Timing %q", lane, resp.Header.Get("Server-Timing"))
		}
	}
}

// TestV1BadDeadlineHeader rejects malformed X-Deadline-Ms values: a
// typo must not silently strip the caller's shedding protection.
func TestV1BadDeadlineHeader(t *testing.T) {
	ts, _ := newV1TestServer(t)
	body, _ := json.Marshal(PredictRequest{Input: testInput(0)})
	for _, bad := range []string{"250ms", "-1", "0", "2.5", "lots"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/alpha/predict", bytes.NewReader(body))
		req.Header.Set(DeadlineHeader, bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %q status %d, want 400", DeadlineHeader, bad, resp.StatusCode)
		}
	}
}

// TestV1BinaryRowErrorFallback sends a binary batch with one NaN row:
// the frame has no error channel, so the reply must fall back to JSON
// with the aligned per-row errors and the good row's output intact.
func TestV1BinaryRowErrorFallback(t *testing.T) {
	ts, _ := newV1TestServer(t)
	bad := testInput(1)
	bad[2] = float32(math.NaN())
	c := NewClient(ts.URL)
	c.Binary = true
	outs, rowErrs, err := c.Call(context.Background(), "alpha", MethodPredict, [][]float32{testInput(0), bad})
	if err != nil {
		t.Fatal(err)
	}
	if len(rowErrs) != 2 || rowErrs[0] != nil || rowErrs[1] == nil || rowErrs[1].Status != http.StatusBadRequest {
		t.Fatalf("row errors = %+v, want aligned [nil, 400]", rowErrs)
	}
	if len(outs) != 2 || outs[0] == nil || outs[1] != nil {
		t.Fatal("outputs not aligned with the failed row nulled")
	}
}

// TestV1HealthzPerModel checks per-model readiness and the overall-503
// contract once any registered model is closed.
func TestV1HealthzPerModel(t *testing.T) {
	ts, reg := newV1TestServer(t)
	getHealth := func() (HealthResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h, resp.StatusCode
	}

	h, code := getHealth()
	if code != http.StatusOK || h.Status != "ok" || len(h.Models) != 2 {
		t.Fatalf("healthy: %+v (%d)", h, code)
	}
	if h.Models["alpha"].Status != "ok" || h.Models["beta"].Status != "ok" {
		t.Fatalf("per-model status: %+v", h.Models)
	}

	s, _ := reg.Get("beta")
	s.Close()
	h, code = getHealth()
	if code != http.StatusServiceUnavailable || h.Status != "closed" {
		t.Fatalf("one model closed: %+v (%d), want overall 503", h, code)
	}
	if h.Models["alpha"].Status != "ok" || h.Models["beta"].Status != "closed" {
		t.Fatalf("per-model readiness wrong: %+v", h.Models)
	}
}
