package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/tensor"
)

// newNamedServer builds a single-replica server for registry tests.
func newNamedServer(t *testing.T, seed int64) *Server {
	t.Helper()
	pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(testModelCfg(), seed)}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{MaxBatch: 4})
	t.Cleanup(s.Close)
	return s
}

// TestRegistryRegister covers naming rules, duplicates, and lookup.
func TestRegistryRegister(t *testing.T) {
	reg := NewRegistry()
	a, b := newNamedServer(t, 1), newNamedServer(t, 2)
	if err := reg.Register("jag", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("jag", b); err == nil {
		t.Fatal("duplicate name accepted")
	}
	for _, bad := range []string{"", "has space", "a/b", "-leading", "q?x"} {
		if err := reg.Register(bad, b); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}
	if err := reg.Register("jag.top-2_v1", b); err != nil {
		t.Fatalf("valid punctuated name rejected: %v", err)
	}
	if err := reg.Register("nil", nil); err == nil {
		t.Fatal("nil server accepted")
	}

	if got, ok := reg.Get("jag"); !ok || got != a {
		t.Fatal("Get returned the wrong server")
	}
	if _, ok := reg.Get("missing"); ok {
		t.Fatal("Get found an unregistered model")
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "jag" || names[1] != "jag.top-2_v1" {
		t.Fatalf("Names = %v, want sorted pair", names)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
}

// TestRegistryClose shuts every registered server down.
func TestRegistryClose(t *testing.T) {
	reg := NewRegistry()
	a, b := newNamedServer(t, 1), newNamedServer(t, 2)
	if err := reg.Register("a", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("b", b); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if !a.Closed() || !b.Closed() {
		t.Fatal("Close left a server running")
	}
}

// newGenerationServer starts a one-worker server over a scriptedModel
// whose every output value is gen, so a reply names the generation that
// served it.
func newGenerationServer(t *testing.T, cfg Config, gen float32) (*Server, *scriptedModel) {
	t.Helper()
	s, m := newScriptedServer(t, cfg)
	reply := func(rows int) *tensor.Matrix {
		y := tensor.New(rows, 2)
		for i := range y.Data {
			y.Data[i] = gen
		}
		return y
	}
	m.reply.Store(&reply)
	return s, m
}

// hugeReplyModel answers every row with a 16 MB JGT1 row: more than the
// loopback socket buffers hold, so a client that stops reading leaves the
// handler blocked in its write.
type hugeReplyModel struct{}

func (hugeReplyModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 1, Out: 4 << 20}}
}

func (hugeReplyModel) Run(_ string, x *tensor.Matrix) (*tensor.Matrix, error) {
	return tensor.New(x.Rows, 4<<20), nil
}

// TestStalledReaderDoesNotPinSwap: a client that sends a request and
// never reads its reply must not hold the generation that answered it. The
// handler is stuck writing 16 MB into a full socket, and Replace still
// returns at once with the old server closed: a swap waits for passes
// over admitted rows, never for a client.
func TestStalledReaderDoesNotPinSwap(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	old := NewServer(hugeReplyModel{}, Config{MaxBatch: 1})
	next := NewServer(hugeReplyModel{}, Config{MaxBatch: 1})
	defer next.Close()
	if err := reg.Register("m", old); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryHandler(reg, HandlerConfig{}))
	defer ts.Close()

	frame, err := EncodeFrame([][]float32{{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Closed first among the defers: it unblocks the handler's write, or
	// a Replace this test gave up on, before ts.Close waits for them.
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/models/m/predict HTTP/1.1\r\nHost: stalled\r\nContent-Type: %s\r\nAccept: %s\r\nContent-Length: %d\r\n\r\n",
		ContentTypeTensor, ContentTypeTensor, len(frame))
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The row is answered; its reply is what the client does not read.
	waitFor(t, "the stalled request's row to be answered", func() bool { return old.Stats().Requests == 1 })

	swapped := make(chan error, 1)
	start := time.Now()
	go func() { swapped <- reg.Replace("m", next) }()
	select {
	case err := <-swapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Replace still blocked 2s after the swap began: a client that stops reading holds the old generation")
	}
	t.Logf("Replace returned in %v beside a stalled reader", time.Since(start))
	if !old.Closed() {
		t.Fatal("displaced server not closed when Replace returned")
	}
	if got, _ := reg.Get("m"); got != next || reg.Generation("m") != 2 {
		t.Fatal("swap did not land")
	}
}

// TestSwapMidRequestKeepsOneGeneration: a request is answered whole by
// the generation it started on. Its six rows go on the lane in three
// chunks (QueueDepth 4); the first is held in generation 1's model while
// Replace lands, the later two still run on generation 1, and Replace
// returns only once the last of them is answered.
func TestSwapMidRequestKeepsOneGeneration(t *testing.T) {
	cfg := Config{MaxBatch: 64, MaxDelay: time.Minute, QueueDepth: 4}
	old, m := newGenerationServer(t, cfg, 1)
	next, _ := newGenerationServer(t, cfg, 2)
	reg := NewRegistry()
	if err := reg.Register("m", old); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewRegistryHandler(reg, HandlerConfig{}))
	defer ts.Close()

	gate := make(chan struct{})
	m.gate.Store(&gate)
	const rows = 6
	type reply struct {
		resp PredictResponse
		code int
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		body, _ := json.Marshal(PredictRequest{Inputs: scriptedRows(0, rows)})
		resp, err := http.Post(ts.URL+"/v1/models/m/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var r reply
		r.code, r.err = resp.StatusCode, json.NewDecoder(resp.Body).Decode(&r.resp)
		replied <- r
	}()
	select {
	case <-m.entered:
	case <-time.After(unitTimeout):
		t.Fatal("the request's first chunk never reached the model")
	}

	swapped := make(chan error, 1)
	go func() { swapped <- reg.Replace("m", next) }()
	waitFor(t, "the swap to route lookups to generation 2", func() bool {
		got, _ := reg.Get("m")
		return got == next
	})
	m.gate.CompareAndSwap(&gate, nil)
	close(gate)

	select {
	case err := <-swapped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(unitTimeout):
		t.Fatal("Replace never returned")
	}
	if n := old.Stats().Requests; n != rows {
		t.Fatalf("Replace returned with %d of the request's %d rows answered", n, rows)
	}
	r := <-replied
	if r.err != nil || r.code != http.StatusOK || r.resp.Errors != nil || len(r.resp.Outputs) != rows {
		t.Fatalf("reply: status %d, %v, %+v", r.code, r.err, r.resp)
	}
	for i, y := range r.resp.Outputs {
		if len(y) != 2 || y[0] != 1 || y[1] != 1 {
			t.Fatalf("row %d answered %v, want generation 1's [1 1]", i, y)
		}
	}
}

// TestStaleServerFollowsSwap: a request that looked the name up before a
// swap but reaches the displaced server after it closed is refused there
// whole and answered by the successor. Once the registry itself is
// closed, the name resolves to a closed server that refuses it too, and
// the request's rows are ErrClosed (503s) rather than going round.
func TestStaleServerFollowsSwap(t *testing.T) {
	cfg := Config{MaxBatch: 64, MaxDelay: time.Minute}
	stale, _ := newGenerationServer(t, cfg, 1)
	next, _ := newGenerationServer(t, cfg, 2)
	reg := NewRegistry()
	if err := reg.Register("m", stale); err != nil {
		t.Fatal(err)
	}
	if err := reg.Replace("m", next); err != nil {
		t.Fatal(err)
	}
	xs := scriptedRows(0, 3)
	call := func() ([][]float32, []error, *Server) {
		ys := make([][]float32, len(xs))
		traces := make([]Trace, len(xs))
		errs := make([]error, len(xs))
		got := reg.submit(context.Background(), "m", stale, MethodPredict, Interactive, true, xs, ys, traces, errs)
		return ys, errs, got
	}

	ys, errs, got := call()
	if got != next {
		t.Fatal("the request was not answered by the successor")
	}
	for i, err := range errs {
		if err != nil || len(ys[i]) != 2 || ys[i][0] != 2 {
			t.Fatalf("row %d: %v, %v; want generation 2's answer", i, ys[i], err)
		}
	}

	reg.Close()
	_, errs, _ = call()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) || rowStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("row %d after Registry.Close: %v, want ErrClosed (503)", i, err)
		}
	}
}
