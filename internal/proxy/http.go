package proxy

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"

	"repro/internal/serve"
)

// Request/response plumbing shared by the proxy routes: building the
// forwarded request, buffering bodies, error classification, client
// keying. The request lifecycle itself (correlation ID, access log,
// JSON error envelope) is internal/serve's, see Proxy.ServeHTTP.

// newBackendRequest clones the inbound request toward one backend: same
// method, path, and query; whitelisted headers; the pre-buffered body.
func newBackendRequest(ctx context.Context, b *Backend, r *http.Request, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, b.base+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	for _, h := range forwardHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return req, nil
}

// readBody buffers the inbound call body, rejecting oversized ones with
// 413 — on the declared length when there is one, before reading a
// byte. The buffered copy is what makes the request replayable across
// retries and hedges.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	tooLarge := func() ([]byte, bool) {
		serve.WriteError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return nil, false
	}
	if r.ContentLength > limit {
		return tooLarge()
	}
	// A chunked body's length is only known once it has all arrived.
	body, err := serve.ReadBody(io.LimitReader(r.Body, limit+1), r.ContentLength)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil, false
	}
	if int64(len(body)) > limit {
		return tooLarge()
	}
	return body, true
}

// readAllBody drains and closes one backend reply, into a buffer of its
// declared size when it has one. A reply shorter than its Content-Length
// is an error, which attempt reports as a transport failure.
func readAllBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return serve.ReadBody(resp.Body, resp.ContentLength)
}

// errKind classifies a transport error for the errors_total metric.
func errKind(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return errTimeout
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return errTimeout
	}
	return errConn
}

// clientKey identifies the caller for rate limiting: the remote IP,
// ignoring the ephemeral port so one client is one bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// BaseURL returns the backend's normalized base URL.
func (b *Backend) BaseURL() string { return b.base }
