package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// StatusError is the typed form of a whole-request HTTP failure from a
// serving backend: a non-2xx reply, or a reply that died mid-body. It
// lets callers — the jagproxy retry loop above all — branch on the
// status class with errors.As instead of parsing error strings, and
// carries the server's Retry-After hint when backpressure set one.
type StatusError struct {
	// Code is the HTTP status of the failed reply. A reply that broke
	// mid-body (connection drop, truncated frame) is reported as
	// http.StatusBadGateway: the request may never have reached a
	// forward pass, so it is safe to retry elsewhere.
	Code int
	// RetryAfter is the server's Retry-After hint, 0 when absent.
	RetryAfter time.Duration
	// Detail is the server-supplied error detail, "" for opaque bodies.
	Detail string
}

// Error renders the same text errorBody produced before this type
// existed, so messages stay stable for humans and string-matching tests.
func (e *StatusError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.Detail, e.Code)
	}
	return fmt.Sprintf("HTTP %d", e.Code)
}

// RetryableStatus reports whether an HTTP status from a serving backend
// is worth retrying: 429 (rate limited), 502 (broken reply), 503
// (shedding or draining), 504 (deadline passed in queue).
func RetryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// statusError builds the typed error for a failed reply, folding in the
// JSON {"error": ...} detail and the Retry-After hint when present.
func statusError(resp *http.Response, raw []byte) *StatusError {
	e := &StatusError{Code: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Detail = body.Error
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			e.RetryAfter = time.Duration(sec) * time.Second
		}
	}
	return e
}

// Client is a small Go client for the v1 serving API — the in-process
// counterpart of cmd/jagserve's HTTP surface, sharing the wire.go frame
// codec with the server so binary transport round-trips through one
// implementation.
type Client struct {
	base string
	hc   *http.Client

	// Binary selects the tensor frame transport for call bodies and
	// replies; JSON otherwise. Either way the client accepts both reply
	// transports, so a batch with row errors (which the server always
	// reports as JSON) still decodes.
	Binary bool
	// Priority is the queue lane requests are submitted under; the zero
	// value is Interactive.
	Priority Priority
}

// NewClient targets a server base URL such as "http://localhost:8080".
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
}

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transports) and returns the receiver for chaining.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.hc = hc
	return c
}

// Models fetches the GET /v1/models listing.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var out ModelsResponse
	if err := c.getJSON(ctx, "/v1/models", &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// Stats fetches one model's serving counters, including its hot-swap
// generation (the counters reset when a reload swaps the generation).
func (c *Client) Stats(ctx context.Context, model string) (ModelStats, error) {
	var snap ModelStats
	err := c.getJSON(ctx, "/v1/models/"+url.PathEscape(model)+"/stats", &snap)
	return snap, err
}

// Call submits a batch of input rows to POST /v1/models/{model}/{method}
// and returns the aligned outputs. rowErrs is non-nil when some rows
// failed (aligned with inputs, nil entries for successes); err reports
// transport problems and whole-request failures such as an unknown
// model or method.
func (c *Client) Call(ctx context.Context, model, method string, inputs [][]float32) (outputs [][]float32, rowErrs []*RowError, err error) {
	u := c.base + "/v1/models/" + url.PathEscape(model) + "/" + url.PathEscape(method)
	var body []byte
	contentType := "application/json"
	if c.Binary {
		body, err = EncodeFrame(inputs)
		if err != nil {
			return nil, nil, err
		}
		contentType = ContentTypeTensor
	} else {
		body, err = PredictRequest{Inputs: inputs}.encode()
		if err != nil {
			return nil, nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if c.Binary {
		// Prefer the frame but accept the JSON fallback the server uses
		// to carry aligned row errors.
		req.Header.Set("Accept", ContentTypeTensor+", application/json")
	}
	if c.Priority != Interactive {
		req.Header.Set(PriorityHeader, c.Priority.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()

	if strings.HasPrefix(resp.Header.Get("Content-Type"), ContentTypeTensor) {
		rows, err := DecodeFrame(resp.Body, 0, len(inputs))
		if err != nil {
			// A frame that stops mid-body is a broken reply, not a model
			// verdict: type it 502 so retry loops treat it like any other
			// transient replica failure.
			return nil, nil, fmt.Errorf("serve: %s %s: %w", model, method,
				&StatusError{Code: http.StatusBadGateway, Detail: "broken reply: " + err.Error()})
		}
		return rows, nil, nil
	}
	raw, err := ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: %s %s: %w", model, method,
			&StatusError{Code: http.StatusBadGateway, Detail: "broken reply: " + err.Error()})
	}
	var pr PredictResponse
	if jsonErr := pr.UnmarshalJSON(raw); jsonErr == nil && (resp.StatusCode == http.StatusOK || pr.Errors != nil) {
		return pr.Outputs, pr.Errors, nil
	}
	return nil, nil, fmt.Errorf("serve: %s %s: %w", model, method, statusError(resp, raw))
}

// getJSON performs one GET and decodes the JSON reply into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: GET %s: %w", path, statusError(resp, raw))
	}
	return json.Unmarshal(raw, v)
}
