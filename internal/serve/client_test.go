package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClientWholeRequestErrors covers the non-2xx paths where the
// whole call fails rather than individual rows: unknown model and
// unknown method must come back as an error carrying the server's
// detail and status, with no outputs and no row errors.
func TestClientWholeRequestErrors(t *testing.T) {
	ts, _ := newV1TestServer(t)
	ctx := context.Background()
	c := NewClient(ts.URL)

	outs, rowErrs, err := c.Call(ctx, "ghost", MethodPredict, [][]float32{testInput(0)})
	if err == nil || outs != nil || rowErrs != nil {
		t.Fatalf("unknown model: outs=%v rowErrs=%v err=%v, want error only", outs, rowErrs, err)
	}
	if !strings.Contains(err.Error(), "unknown model") || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown-model error lost the server detail: %v", err)
	}

	if _, _, err := c.Call(ctx, "alpha", "embed", [][]float32{testInput(0)}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown method error = %v, want 404 detail", err)
	}

	// GET helpers share the error path.
	if _, err := c.Stats(ctx, "ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Stats unknown model error = %v", err)
	}
}

// TestClientNon2xxOpaqueBody covers a reply that is neither a
// PredictResponse nor the {"error": ...} convention — a proxy error
// page, say. The client must fail with the raw status, not decode
// garbage into outputs.
func TestClientNon2xxOpaqueBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		_, _ = w.Write([]byte("<html>upstream sad</html>"))
	}))
	defer ts.Close()
	_, _, err := NewClient(ts.URL).Call(context.Background(), "m", MethodPredict, [][]float32{{1}})
	if err == nil || !strings.Contains(err.Error(), "502") {
		t.Fatalf("opaque 502 error = %v, want HTTP 502 detail", err)
	}
}

// TestClientTruncatedBinaryResponse feeds the client a tensor-framed
// reply whose payload stops short of the header's claim, and one whose
// row count exceeds the request's: both must surface as decode errors,
// never a short read treated as success.
func TestClientTruncatedBinaryResponse(t *testing.T) {
	frame := func(rows, cols uint32, payloadFloats int) []byte {
		buf := make([]byte, frameHeader+4*payloadFloats)
		copy(buf, frameMagic)
		binary.LittleEndian.PutUint32(buf[4:], frameVersion)
		binary.LittleEndian.PutUint32(buf[8:], rows)
		binary.LittleEndian.PutUint32(buf[12:], cols)
		return buf
	}
	cases := map[string][]byte{
		"truncated payload": frame(2, 3, 2), // claims 6 floats, ships 2
		"excess rows":       frame(3, 1, 3), // 3 rows for a 1-input call
		"bad magic":         append([]byte("WRNG"), frame(1, 1, 1)[4:]...),
	}
	for name, body := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", ContentTypeTensor)
			_, _ = w.Write(body)
		}))
		c := NewClient(ts.URL)
		c.Binary = true
		_, _, err := c.Call(context.Background(), "m", MethodPredict, [][]float32{{0.5}})
		ts.Close()
		if err == nil {
			t.Fatalf("%s: truncated/overlong binary reply accepted", name)
		}
	}
}

// TestClientJSONRowErrorAlignment drives a mixed batch through the
// real server over both transports: the reply must keep outputs and
// row errors aligned with the request rows, and an all-failed batch
// (non-200 status but a well-formed body) must still decode into row
// errors rather than a whole-request error.
func TestClientJSONRowErrorAlignment(t *testing.T) {
	ts, _ := newV1TestServer(t)
	ctx := context.Background()

	for _, useBinary := range []bool{false, true} {
		// Each transport gets the poison it can actually carry: JSON
		// cannot marshal NaN (the client fails before the wire), so it
		// ships a wrong-width row; the rectangular binary frame cannot
		// ship a ragged row, so it carries the NaN.
		var bad []float32
		if useBinary {
			bad = testInput(1)
			bad[0] = float32(math.NaN())
		} else {
			bad = []float32{0.25}
		}
		c := NewClient(ts.URL)
		c.Binary = useBinary
		outs, rowErrs, err := c.Call(ctx, "alpha", MethodPredict,
			[][]float32{testInput(0), bad, testInput(2)})
		if err != nil {
			t.Fatalf("binary=%t: %v", useBinary, err)
		}
		if len(outs) != 3 || len(rowErrs) != 3 {
			t.Fatalf("binary=%t: %d outputs / %d row errors, want 3/3", useBinary, len(outs), len(rowErrs))
		}
		if outs[0] == nil || outs[1] != nil || outs[2] == nil {
			t.Fatalf("binary=%t: outputs not aligned around the failed row", useBinary)
		}
		if rowErrs[0] != nil || rowErrs[1] == nil || rowErrs[2] != nil {
			t.Fatalf("binary=%t: row errors not aligned: %+v", useBinary, rowErrs)
		}
		if rowErrs[1].Status != http.StatusBadRequest {
			t.Fatalf("binary=%t: NaN row status %d, want 400", useBinary, rowErrs[1].Status)
		}

		// All rows failed: top-level status is 400, but the aligned
		// errors must still come through as row errors.
		outs, rowErrs, err = c.Call(ctx, "alpha", MethodPredict, [][]float32{bad, bad})
		if err != nil {
			t.Fatalf("binary=%t all-failed: %v", useBinary, err)
		}
		if len(rowErrs) != 2 || rowErrs[0] == nil || rowErrs[1] == nil {
			t.Fatalf("binary=%t all-failed: row errors %+v", useBinary, rowErrs)
		}
		if outs[0] != nil || outs[1] != nil {
			t.Fatalf("binary=%t all-failed: outputs %+v, want all null", useBinary, outs)
		}
	}
}

// TestClientContextCancelMidRequest cancels the caller's context while
// the server is still holding the request: the call must return the
// context's error instead of hanging on the reply.
func TestClientContextCancelMidRequest(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := NewClient(ts.URL).Call(ctx, "m", MethodPredict, [][]float32{{0.5}})
	if err == nil {
		t.Fatal("cancelled call returned success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled call error = %v, want context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled call did not return promptly")
	}
}

// TestClientBinaryAcceptHeader pins the transport negotiation a binary
// client advertises: prefer the frame but accept the JSON fallback, so
// servers can always deliver row errors.
func TestClientBinaryAcceptHeader(t *testing.T) {
	var got http.Header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		_, _ = w.Write([]byte(`{"outputs":[[1]]}`))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Binary = true
	c.Priority = Bulk
	if _, _, err := c.Call(context.Background(), "m", MethodPredict, [][]float32{{0.5}}); err != nil {
		t.Fatal(err)
	}
	if ct := got.Get("Content-Type"); !strings.HasPrefix(ct, ContentTypeTensor) {
		t.Fatalf("binary request Content-Type %q", ct)
	}
	accept := got.Get("Accept")
	if !strings.Contains(accept, ContentTypeTensor) || !strings.Contains(accept, "application/json") {
		t.Fatalf("binary Accept %q must allow the JSON fallback", accept)
	}
	if got.Get(PriorityHeader) != "bulk" {
		t.Fatalf("option header lost: priority=%q", got.Get(PriorityHeader))
	}
}

// TestClientBadFrameRequest: encoding a ragged input batch fails
// client-side before anything goes on the wire.
func TestClientBadFrameRequest(t *testing.T) {
	c := NewClient("http://unreachable.invalid")
	c.Binary = true
	if _, _, err := c.Call(context.Background(), "m", MethodPredict, [][]float32{{1, 2}, {3}}); err == nil ||
		!strings.Contains(err.Error(), "ragged") {
		t.Fatalf("ragged batch error = %v", err)
	}
}
