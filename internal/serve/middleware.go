package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// The HTTP request lifecycle shared by both serving tiers: jagserve's
// v1 handler and jagproxy's front door mount the same Lifecycle
// middleware and answer through the same JSON helpers, so a request
// crossing proxy → backend carries one correlation ID and leaves one
// access-log record of the same shape on each tier.

// statusClientClosedRequest is the nginx convention for "the client
// went away before we answered" — the HTTP face of ErrCancelled, and
// the status the access log records for a request nothing was written
// to because its context ended first.
const statusClientClosedRequest = 499

// newRequestID mints a 16-hex-digit correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the platforms we run on; a zero ID
		// beats panicking in request-handling middleware.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a caller-supplied correlation ID only when
// it is short printable ASCII: anything else (header injection, binary
// junk, unbounded length) is discarded so the ID is safe to echo in a
// response header and a log line.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// logAttrsKey keys the per-request access-log slot in a request context.
type logAttrsKey struct{}

// AddLogAttrs appends attributes to the access-log record of the
// request whose context this is: the call route adds its stage spans,
// the proxy's relay adds the backend that answered. It is a no-op
// outside Lifecycle or when no access logger is configured. The slot is
// unsynchronised: only the goroutine running the handler may call this.
func AddLogAttrs(ctx context.Context, attrs ...slog.Attr) {
	if slot, ok := ctx.Value(logAttrsKey{}).(*[]slog.Attr); ok {
		*slot = append(*slot, attrs...)
	}
}

// durMs renders a span for logs and headers, in float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serverTimingValue renders a merged trace as a Server-Timing header
// value (RFC draft syntax: metric;dur=<ms>), so a browser's network
// panel — or curl -v — shows the stage decomposition with no extra
// tooling.
func serverTimingValue(t Trace) string {
	if t.CacheHit {
		return `cache;desc="hit"`
	}
	return fmt.Sprintf("queue_wait;dur=%.3f, batch_assembly;dur=%.3f, forward;dur=%.3f, batch;desc=%q",
		durMs(t.QueueWait), durMs(t.Assembly), durMs(t.Forward), fmt.Sprint(t.Batch))
}

// traceAttrs renders a merged trace as access-log attributes.
func traceAttrs(t Trace) []slog.Attr {
	if t.CacheHit {
		return []slog.Attr{slog.Bool("cache_hit", true)}
	}
	return []slog.Attr{
		slog.Float64("queue_wait_ms", durMs(t.QueueWait)),
		slog.Float64("batch_assembly_ms", durMs(t.Assembly)),
		slog.Float64("forward_ms", durMs(t.Forward)),
		slog.Int("batch", t.Batch),
	}
}

// statusWriter records the status code and body size passing through a
// ResponseWriter, for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// NewAccessLogger builds the logger behind jagserve's and jagproxy's
// -log-format flag: "text" or "json" records on w, nil (no access log)
// for the empty format.
func NewAccessLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "":
		return nil, nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("-log-format %q: want \"text\" or \"json\"", format)
}

// Lifecycle wraps a tier's route mux with the per-request plumbing:
// accept the caller's X-Request-Id (or mint one), echo it on the
// response and set it on the request headers so a proxying handler
// forwards it verbatim, and — when logger is non-nil — emit one
// structured "request" record per request: method, path, status,
// duration_ms, bytes, request_id, then whatever the handler added
// through AddLogAttrs. A request that ends with nothing written because
// its client went away is logged as 499, not as the 200 net/http would
// have sent to nobody.
//
// A handler that panics is contained to its request: onPanic is called
// (the tier counts it), the panic and its stack are logged under the
// request's ID, and the request is answered 500 with the error envelope
// — on a connection that stays good for the next request, where
// net/http's own recovery would have dropped it. Only a panic after the
// reply has begun still cuts the connection: there is no other way left
// to tell the client the body is not whole.
func Lifecycle(next http.Handler, logger *slog.Logger, onPanic func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r.Header.Set(RequestIDHeader, id)
		var extra []slog.Attr
		if logger != nil {
			r = r.WithContext(context.WithValue(r.Context(), logAttrsKey{}, &extra))
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		serveContained(next, sw, r, id, onPanic)
		if logger == nil {
			return
		}
		status := sw.status
		switch {
		case status != 0:
		case r.Context().Err() != nil:
			status = statusClientClosedRequest
		default:
			status = http.StatusOK
		}
		attrs := append([]slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Float64("duration_ms", durMs(time.Since(start))),
			slog.Int64("bytes", sw.bytes),
			slog.String("request_id", id),
		}, extra...)
		logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// serveContained runs next and turns its panic into a counted, logged
// 500 (see Lifecycle).
func serveContained(next http.Handler, w *statusWriter, r *http.Request, id string, onPanic func()) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v) // a handler's own request to drop the connection quietly
		}
		onPanic()
		log.Printf("panic serving %s %s (request %s): %v\n%s", r.Method, r.URL.Path, id, v, debug.Stack())
		AddLogAttrs(r.Context(), slog.String("panic", fmt.Sprint(v)))
		if w.status != 0 {
			panic(http.ErrAbortHandler)
		}
		w.Header().Del("Content-Length") // the reply the handler was preparing is not the one sent
		WriteError(w, http.StatusInternalServerError, "internal error (request "+id+")")
	}()
	next.ServeHTTP(w, r)
}

// maxSizedBody is the longest body ReadBody sizes its buffer for on the
// sender's word alone: the largest frame the wire format admits.
const maxSizedBody = frameHeader + 4*MaxFrameElems

// ReadBody reads a request or reply body whole. With a declared
// Content-Length (declared >= 0) it reads into a buffer of exactly that
// size — io.ReadAll reaches the same bytes by doubling, allocating about
// three times the body on the way — and a body that ends early is
// io.ErrUnexpectedEOF. An undeclared length, or one past the largest
// frame, is read as it arrives, paying for bytes that came.
func ReadBody(body io.Reader, declared int64) ([]byte, error) {
	if declared < 0 || declared > maxSizedBody {
		return io.ReadAll(body)
	}
	buf := make([]byte, declared)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

// WriteJSON renders v as a JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out; an encode error can only mean the
	// client hung up, and there is nobody left to report it to.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError renders the {"error": msg} envelope every tier answers
// whole-request failures with, so clients see one error shape
// fleet-wide.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// ServeUntilSignal serves h on ln until SIGINT or SIGTERM, then drains the
// tier. Shutdown goes first: it stops accepting connections at once and
// gives the in-flight handlers up to five seconds, and only then does
// teardown stop what they use — jagserve's batching queues and workers,
// jagproxy's prober. Tearing down first would 503 rows the drain window
// could have served. It returns once teardown has, or Serve's error if
// serving failed.
func ServeUntilSignal(ln net.Listener, h http.Handler, teardown func()) error {
	hs := &http.Server{Handler: h}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		log.Print("shutting down: draining in-flight requests")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Shutdown's only error is the deadline expiring; the process
		// exits either way, so there is nobody left to report it to.
		_ = hs.Shutdown(ctx)
		teardown()
		close(drained)
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	return nil
}
