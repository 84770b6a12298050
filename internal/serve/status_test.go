package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// These tests pin the typed-error contract jagproxy's retry loop builds
// on: whole-request failures from Client.Call and the GET helpers must
// surface as *StatusError with the right Code and RetryableStatus verdict,
// and a shedding backend must keep row errors aligned with the request
// rows rather than escalating to a whole-request failure.

// TestClientStatusErrorTyped checks that non-2xx replies come back as
// *StatusError reachable through errors.As, carrying the status, the
// Retry-After hint, and the right retryability class.
func TestClientStatusErrorTyped(t *testing.T) {
	ctx := context.Background()

	// A backpressuring reply — bare 503 with a Retry-After hint, no
	// JSON body — is retryable and keeps the hint.
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer shed.Close()
	_, _, err := NewClient(shed.URL).Call(ctx, "m", MethodPredict, [][]float32{{0.5}})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("503 reply error = %v, want a *StatusError in the chain", err)
	}
	if se.Code != http.StatusServiceUnavailable || se.RetryAfter != 2*time.Second {
		t.Fatalf("typed 503 = %+v, want Code 503 RetryAfter 2s", se)
	}
	if !RetryableStatus(se.Code) {
		t.Error("503 must be retryable")
	}

	// A hard 4xx from the real server — unknown model — is typed too,
	// but non-retryable: every replica serves the same model set.
	ts, _ := newV1TestServer(t)
	_, _, err = NewClient(ts.URL).Call(ctx, "ghost", MethodPredict, [][]float32{testInput(0)})
	se = nil
	if !errors.As(err, &se) {
		t.Fatalf("unknown-model error = %v, want a *StatusError in the chain", err)
	}
	if se.Code != http.StatusNotFound || RetryableStatus(se.Code) {
		t.Fatalf("typed 404 = %+v, want non-retryable Code 404", se)
	}
	if se.Detail == "" {
		t.Error("404 from the real server lost its error detail")
	}

	// The GET helpers share the typed path.
	if _, err := NewClient(ts.URL).Stats(ctx, "ghost"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("Stats unknown-model error = %v, want typed 404", err)
	}
}

// TestClientMidBodyDropRetryable kills the connection partway through
// the reply on both transports. The client must fail with a retryable
// 502 StatusError — the request may never have reached a forward pass,
// so a retry loop is entitled to try another replica.
func TestClientMidBodyDropRetryable(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		binary  bool
		handler http.HandlerFunc
	}{
		// A tensor frame whose header promises more floats than the
		// connection delivers.
		"binary": {true, func(w http.ResponseWriter, r *http.Request) {
			hdr := make([]byte, frameHeader)
			copy(hdr, frameMagic)
			binary.LittleEndian.PutUint32(hdr[4:], frameVersion)
			binary.LittleEndian.PutUint32(hdr[8:], 1)
			binary.LittleEndian.PutUint32(hdr[12:], 8)
			w.Header().Set("Content-Type", ContentTypeTensor)
			_, _ = w.Write(hdr) // promised 8 floats never arrive
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		// A chunked JSON reply aborted before the body completes.
		"json": {false, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"outputs":[[0.1,`))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			c := NewClient(ts.URL)
			c.Binary = tc.binary
			_, _, err := c.Call(ctx, "m", MethodPredict, [][]float32{{0.5}})
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("mid-body drop error = %v, want a *StatusError", err)
			}
			if se.Code != http.StatusBadGateway || !RetryableStatus(se.Code) {
				t.Fatalf("mid-body drop = %+v, want retryable 502", se)
			}
		})
	}
}

// slowModel sleeps per pass so a tiny QueueDepth genuinely sheds under
// concurrent load. Sleeping (not spinning) keeps the test honest on a
// one-CPU host: requests pile up in the queue, not on the scheduler.
type slowModel struct{ pass time.Duration }

func (m slowModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 2, Out: 2}}
}

func (m slowModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	time.Sleep(m.pass)
	y := tensor.New(x.Rows, 2)
	copy(y.Data, x.Data)
	return y, nil
}

// TestClientSheddingBackendRowErrors drives a concurrent burst at a
// real server with a one-deep queue. Shed rows must come back as
// aligned per-row 503s with err == nil — never a whole-request error,
// and never misaligned outputs — while at least one row still succeeds.
func TestClientSheddingBackendRowErrors(t *testing.T) {
	reg := NewRegistry()
	s := NewServer(slowModel{pass: 20 * time.Millisecond}, Config{
		MaxBatch:   1,
		MaxDelay:   time.Millisecond,
		QueueDepth: 1,
	})
	if err := reg.Register("slow", s); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryHandler(reg, HandlerConfig{}))
	defer func() {
		ts.Close()
		reg.Close()
	}()

	const clients = 8
	inputs := [][]float32{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
	type result struct {
		outs    [][]float32
		rowErrs []*RowError
		err     error
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			r := &results[i]
			r.outs, r.rowErrs, r.err = c.Call(context.Background(), "slow", MethodPredict, inputs)
		}(i)
	}
	wg.Wait()

	shedRows, okRows := 0, 0
	for i, r := range results {
		// Shedding is row-granular backpressure, not a request verdict:
		// even a fully shed batch decodes into row errors with err==nil.
		if r.err != nil {
			t.Fatalf("client %d: whole-request error %v, want per-row errors", i, r.err)
		}
		if r.rowErrs != nil && len(r.rowErrs) != len(inputs) {
			t.Fatalf("client %d: %d row errors for %d inputs, alignment lost", i, len(r.rowErrs), len(inputs))
		}
		for j := range inputs {
			var re *RowError
			if r.rowErrs != nil {
				re = r.rowErrs[j]
			}
			switch {
			case re == nil:
				okRows++
				if j >= len(r.outs) || len(r.outs[j]) != 2 {
					t.Fatalf("client %d row %d: succeeded without an aligned output", i, j)
				}
			case re.Status == http.StatusServiceUnavailable:
				shedRows++
				if !RetryableStatus(re.Status) {
					t.Fatalf("shed row status %d not retryable", re.Status)
				}
			default:
				t.Fatalf("client %d row %d: unexpected row error %+v", i, j, re)
			}
		}
	}
	if shedRows == 0 {
		t.Fatalf("a %d-client burst at a QueueDepth-1 server shed nothing (ok=%d)", clients, okRows)
	}
	if okRows == 0 {
		t.Fatal("every row shed; the server served nothing")
	}
}
