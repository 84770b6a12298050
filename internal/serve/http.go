package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/jag"
)

// Request headers of the v1 API. The JSON body fields take precedence
// where both exist; the binary tensor transport carries no envelope, so
// these headers are its only way to set per-request options.
const (
	// PriorityHeader selects the queue lane ("interactive" or "bulk")
	// when the body carries no "priority" field.
	PriorityHeader = "X-Priority"
	// DeadlineHeader bounds the request's time in the pipeline, in
	// milliseconds, when the body carries no "deadline_ms" field.
	DeadlineHeader = "X-Deadline-Ms"
	// ScalarsOnlyHeader ("true"/"1") trims predict rows to the leading
	// scalar observables when the body carries no "scalars_only" field.
	ScalarsOnlyHeader = "X-Scalars-Only"
	// RequestIDHeader carries the request's correlation ID. A caller-set
	// value is propagated (so a proxy or client can stitch its own trace
	// together); absent one, the handler assigns a fresh ID. Either way
	// the response echoes it and the structured access log records it.
	RequestIDHeader = "X-Request-Id"
)

// PredictRequest is the JSON body of a model-method call: either one
// input row or a list.
type PredictRequest struct {
	// Input is a single parameter vector (the method's input width).
	Input []float32 `json:"input,omitempty"`
	// Inputs is a batch of parameter vectors. Each row is validated,
	// cached and admitted on its own, so one bad row never fails its
	// siblings; the rows are queued together and leave in one forward
	// pass per MaxBatch of them.
	Inputs [][]float32 `json:"inputs,omitempty"`
	// ScalarsOnly trims each predict output row to the 15 scalar
	// observables, dropping the X-ray image pixels (which dominate the
	// payload). Ignored for methods whose rows carry no image tail.
	ScalarsOnly bool `json:"scalars_only,omitempty"`
	// Priority selects the queue lane: "interactive" (default) or
	// "bulk". The X-Priority header is the fallback when this is empty.
	Priority string `json:"priority,omitempty"`
	// DeadlineMs bounds this request's time in the pipeline; rows still
	// queued when it passes are dropped without a forward pass and
	// reported as status-504 row errors. 0 uses the handler's default.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// RowError reports one failed row of a batched call.
type RowError struct {
	// Status is the HTTP status the row would have had on its own.
	Status int `json:"status"`
	// Error is the row's error message.
	Error string `json:"error"`
}

// PredictResponse is the JSON reply of a model-method call, rows
// aligned with the request inputs. When every row succeeds Errors is
// omitted; otherwise Errors has one entry per input (null for rows that
// succeeded) and the failed rows' Outputs entries are null — one
// poisoned row no longer discards its siblings' completed work.
type PredictResponse struct {
	Outputs [][]float32 `json:"outputs"`
	Errors  []*RowError `json:"errors,omitempty"`
}

// ModelInfo is one model's entry in the GET /v1/models listing.
type ModelInfo struct {
	Name string `json:"name"`
	// Ready is false once the model's server has been closed.
	Ready    bool            `json:"ready"`
	Replicas int             `json:"replicas,omitempty"`
	Ensemble bool            `json:"ensemble,omitempty"`
	Methods  map[string]Dims `json:"methods"`
	// Generation is the model's hot-swap generation: 1 at Register,
	// +1 per Registry.Replace (e.g. a reloader promoting a new LTFB
	// winner).
	Generation int64 `json:"generation"`
}

// ModelStats is the GET /v1/models/{name}/stats reply: the server's
// counters plus the registry-level reload bookkeeping. The counters
// reset on a hot swap (each generation's Server owns its own Stats);
// Generation and Reloads say when that happened.
type ModelStats struct {
	StatsSnapshot
	// Generation is the serving generation the counters belong to.
	Generation int64 `json:"generation"`
	// Reloads counts the hot swaps this name has been through
	// (Generation - 1).
	Reloads int64 `json:"reloads"`
	// CapacityQPS is the probed sustainable row rate Open publishes
	// when it loads the model, 0 when never probed (a server built
	// without Open). /healthz carries the same value (ModelHealth),
	// where a fleet router reads it. A Reloader hot swap goes through Open too, so after a
	// swap it is the new generation's own probe.
	CapacityQPS float64 `json:"capacity_qps,omitempty"`
}

// ModelsResponse is the GET /v1/models JSON reply.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// ModelHealth is one model's entry in the /healthz reply.
type ModelHealth struct {
	// Status is "ok" while the model's server accepts requests and
	// "closed" after shutdown.
	Status   string `json:"status"`
	Replicas int    `json:"replicas,omitempty"`
	Ensemble bool   `json:"ensemble,omitempty"`
	// Generation is the model's hot-swap generation (see ModelInfo).
	Generation int64 `json:"generation"`
	// CapacityQPS is the current generation's probed sustainable row
	// rate, the stats route's capacity_qps; a fleet proxy weights its
	// routing by it from every health probe.
	CapacityQPS float64 `json:"capacity_qps,omitempty"`
	// Reload is the checkpoint watcher's state when the model has one:
	// watched path, last check/swap times, and the last rejected
	// reload (a non-empty last_error means a new checkpoint failed its
	// canary or load and the previous generation kept serving).
	Reload *ReloadState `json:"reload,omitempty"`
}

// HealthResponse is the /healthz JSON reply: per-model readiness, plus
// an overall status that is "ok" only while every registered model is
// serving (any closed model turns the endpoint 503 so load balancers
// stop routing here).
type HealthResponse struct {
	Status string                 `json:"status"`
	Models map[string]ModelHealth `json:"models"`
}

// HandlerConfig tunes NewRegistryHandler.
type HandlerConfig struct {
	// DefaultDeadline is applied to calls that don't carry their own
	// deadline_ms; 0 leaves them unbounded.
	DefaultDeadline time.Duration
	// AccessLog, when non-nil, receives one structured "request" record
	// per HTTP request: method, path, status, duration, response bytes,
	// the request's correlation ID, and — for call routes — the
	// per-stage trace spans (queue wait, batch assembly, forward,
	// encode) and batch size. jagserve -log-format json wires a
	// slog.JSONHandler here.
	AccessLog *slog.Logger
}

// NewRegistryHandler exposes every model of a Registry over HTTP:
//
//	GET  /v1/models                    model listing: methods, dims, readiness, generation
//	POST /v1/models/{name}/{method}    batched call (JSON or binary tensor body)
//	GET  /v1/models/{name}/stats       per-model serving counters + reload generation
//	GET  /metrics                      Prometheus text exposition, every model
//	GET  /healthz                      per-model readiness + reload state; 503 if any model closed
//
// Every request is assigned (or propagates) an X-Request-Id correlation
// ID, echoed on the response; call routes additionally emit a
// Server-Timing header with the request's stage spans. With
// HandlerConfig.AccessLog set, each request also produces one
// structured log record carrying the same ID and spans.
//
// A hot swap (Registry.Replace, e.g. a Reloader promoting a new
// checkpoint) never fails a call: a request whose rows reached the old
// model before the swap is answered whole by it, and one that reaches
// the old server after the swap closed it is resubmitted whole to the
// new one. The swap waits for the old model's passes, not for any
// client to read its reply.
//
// Call bodies are content-negotiated: a JSON PredictRequest, or a
// binary tensor frame (Content-Type ContentTypeTensor, options via the
// X-* headers). Responses mirror the request transport — binary when
// the client accepts ContentTypeTensor (or sent binary and stated no
// preference) and every row succeeded; JSON otherwise, so the aligned
// per-row error array survives regardless of transport. The per-model
// stats route does not collide with a model method named "stats":
// stats is GET-only and calls are POST-only, so Go's method-qualified
// mux patterns keep both reachable.
func NewRegistryHandler(reg *Registry, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		resp := ModelsResponse{Models: []ModelInfo{}}
		for _, name := range reg.Names() {
			s, ok := reg.Get(name)
			if !ok {
				continue
			}
			info := ModelInfo{
				Name:       name,
				Ready:      !s.Closed(),
				Methods:    s.Dims(),
				Generation: reg.Generation(name),
			}
			info.Replicas, info.Ensemble = poolShape(s.Model())
			resp.Models = append(resp.Models, info)
		}
		WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/models/{name}/{method}", func(w http.ResponseWriter, r *http.Request) {
		name, method := r.PathValue("name"), r.PathValue("method")
		s, ok := reg.Get(name)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q (have: %s)",
				name, strings.Join(reg.Names(), ", ")))
			return
		}
		if _, ok := s.Dims()[method]; !ok {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("model %q has no method %q (serves: %s)",
				name, method, strings.Join(s.Methods(), ", ")))
			return
		}
		serveCall(w, r, reg, name, s, method, hc)
	})
	mux.HandleFunc("GET /v1/models/{name}/stats", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		s, ok := reg.Get(name)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", name))
			return
		}
		gen := reg.Generation(name)
		WriteJSON(w, http.StatusOK, ModelStats{StatsSnapshot: s.Stats(), Generation: gen, Reloads: gen - 1,
			CapacityQPS: s.CapacityQPS()})
	})
	mux.Handle("GET /metrics", MetricsHandler(reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := HealthResponse{Status: "ok", Models: map[string]ModelHealth{}}
		code := http.StatusOK
		for _, name := range reg.Names() {
			s, ok := reg.Get(name)
			if !ok {
				continue
			}
			mh := ModelHealth{Status: "ok", Generation: reg.Generation(name), CapacityQPS: s.CapacityQPS()}
			mh.Replicas, mh.Ensemble = poolShape(s.Model())
			if rs, ok := reg.ReloadState(name); ok {
				mh.Reload = &rs
			}
			if s.Closed() {
				// One dead model degrades the whole process: load
				// balancers should stop routing here rather than let
				// that model's callers 503 at the call route.
				mh.Status = "closed"
				resp.Status = "closed"
				code = http.StatusServiceUnavailable
			}
			resp.Models[name] = mh
		}
		WriteJSON(w, code, resp)
	})
	return Lifecycle(mux, hc.AccessLog, func() { reg.httpPanics.Add(1) })
}

// poolShape extracts the replica count and ensemble flag from models
// that expose them (as *Pool does); other Model implementations report
// zero values.
func poolShape(m Model) (replicas int, ensemble bool) {
	if r, ok := m.(interface{ Replicas() int }); ok {
		replicas = r.Replicas()
	}
	if e, ok := m.(interface{ Ensemble() bool }); ok {
		ensemble = e.Ensemble()
	}
	return replicas, ensemble
}

// serveCall is the transport-agnostic core of a batched model-method
// call: decode the inputs (JSON envelope or binary tensor frame),
// submit every row to the method's batching queue under one lifecycle —
// on s, the server name resolved to, or on its successor if a swap
// closed s first — and render the aligned results over the negotiated
// transport.
func serveCall(w http.ResponseWriter, r *http.Request, reg *Registry, name string, s *Server, method string, hc HandlerConfig) {
	dims := s.Dims()[method]
	binaryReq := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeTensor)

	var inputs [][]float32
	priority := r.Header.Get(PriorityHeader)
	deadline := hc.DefaultDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			// A malformed deadline must not silently become "no
			// deadline": the caller asked for shedding and would get
			// unbounded queueing instead.
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q: want a positive integer", DeadlineHeader, h))
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	scalarsOnly := isTrue(r.Header.Get(ScalarsOnlyHeader))
	if binaryReq {
		// Cap the declared row count so one small request frame cannot
		// demand an output allocation beyond the frame budget: the
		// input side is bounded by MaxFrameElems on its own, but with
		// a wide output (predict is ~49k cols at Default64) the reply
		// is the amplified dimension.
		maxRows := MaxFrameElems / dims.Out
		if maxRows < 1 {
			maxRows = 1
		}
		rows, err := DecodeFrame(r.Body, dims.In, maxRows)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad tensor frame: "+err.Error())
			return
		}
		inputs = rows
	} else {
		// The JSON body is held to the budget the frame has: no row wider
		// than the method's input, no more rows than a frame of either
		// width may carry, and no more bytes than such a request can need.
		lim := envLimits{cols: dims.In, rows: max(MaxFrameElems/max(dims.In, dims.Out), 1)}
		bodyCap := jsonBodyCap(dims.In, lim.rows)
		tooLong := func() {
			WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", bodyCap))
		}
		if r.ContentLength > bodyCap {
			tooLong() // on its declared length, unread
			return
		}
		req, err := decodeRequest(http.MaxBytesReader(w, r.Body, bodyCap), r.ContentLength, lim)
		var cut *http.MaxBytesError
		var bound *boundError
		switch {
		case errors.As(err, &cut):
			tooLong()
			return
		case errors.As(err, &bound):
			WriteError(w, bound.status, bound.msg)
			return
		case err != nil:
			WriteError(w, http.StatusBadRequest, "bad json: "+err.Error())
			return
		}
		inputs = req.Inputs
		if req.Input != nil {
			inputs = append([][]float32{req.Input}, inputs...)
		}
		if req.Priority != "" {
			priority = req.Priority
		}
		if req.DeadlineMs > 0 {
			deadline = time.Duration(req.DeadlineMs) * time.Millisecond
		}
		if req.ScalarsOnly {
			scalarsOnly = true
		}
	}
	class, err := ParsePriority(priority)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(inputs) == 0 {
		WriteError(w, http.StatusBadRequest, "no inputs")
		return
	}

	// The rows live and die with the HTTP request: a disconnecting
	// client or an elapsed deadline turns still-queued rows stale, and
	// the worker that reaches them drops them before the forward pass.
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	outputs := make([][]float32, len(inputs))
	errs := make([]error, len(inputs))
	traces := make([]Trace, len(inputs))
	// A decoded request is a complete unit — every row it will ever send
	// is here — so it goes on the lane whole, from this goroutine, and is
	// dispatched as soon as a worker is free.
	s = reg.submit(ctx, name, s, method, class, true, inputs, outputs, traces, errs)
	rowErrs, failed := collectRowErrors(errs)
	if agg, ok := mergeTraces(traces, errs); ok {
		// Before the status line: headers are frozen at first write. The
		// access log carries the same spans.
		w.Header().Set("Server-Timing", serverTimingValue(agg))
		AddLogAttrs(r.Context(), traceAttrs(agg)...)
	}
	// recordEncode charges a response-rendering span to the encode stage
	// histogram and the request's log record, on whichever transport
	// path the response takes.
	recordEncode := func(start time.Time) {
		d := time.Since(start)
		s.stats.stageH[stageEncode].Observe(d.Seconds())
		AddLogAttrs(r.Context(), slog.Float64("encode_ms", durMs(d)))
	}
	if scalarsOnly && method == MethodPredict {
		for i, row := range outputs {
			if len(row) > jag.ScalarDim {
				outputs[i] = row[:jag.ScalarDim]
			}
		}
	}

	// Respond binary when the client accepts the tensor media type, or
	// sent binary and expressed no preference — but only when every row
	// succeeded: the frame has no error channel, so mixed results fall
	// back to the JSON body and its aligned errors array.
	accept := r.Header.Get("Accept")
	wantBinary := strings.Contains(accept, ContentTypeTensor)
	if accept == "" || accept == "*/*" {
		wantBinary = binaryReq
	}
	if failed == 0 && wantBinary {
		encStart := time.Now()
		cols, err := frameCols(outputs)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", ContentTypeTensor)
		// The length is known before the first row is converted, so the
		// frame streams un-chunked and a relay can size its buffer.
		w.Header().Set("Content-Length", strconv.Itoa(frameSize(len(outputs), cols)))
		// Once the status line is out, a failed write means the client
		// disconnected and there is nothing left to report.
		_ = writeFrame(w, outputs, cols)
		recordEncode(encStart)
		return
	}
	resp := PredictResponse{Outputs: outputs}
	if failed > 0 {
		resp.Errors = rowErrs
	}
	status := http.StatusOK
	if failed == len(inputs) {
		// Nothing succeeded: surface the severest row status at the
		// top level (the body still carries the per-row detail).
		status = batchStatus(rowErrs)
	}
	encStart := time.Now()
	// Rendered whole before the status line, so the reply leaves with its
	// length (un-chunked, and a relay or client can size its buffer) and a
	// row JSON cannot carry is a 500, not a 200 with nothing after it.
	body, err := resp.encode()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding reply: "+err.Error())
		return
	}
	body = append(body, '\n') // as json.Encoder ends a document
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// The status line is out; a failed write means the client hung up.
	_, _ = w.Write(body)
	recordEncode(encStart)
}

// jsonBodyCap is the longest JSON call body serveCall reads: rows rows of
// cols values at jsonValueBytes each, and the envelope around them.
func jsonBodyCap(cols, rows int) int64 {
	const jsonValueBytes = 32 // twice a float32's longest shortest form, and its comma
	return 1024 + int64(rows)*(int64(cols)*jsonValueBytes+2)
}

// mergeTraces folds per-row traces into one request-level span record:
// the maximum of each stage across the rows that ran the model. Rows of
// one HTTP batch move through the pipeline concurrently, so maxima —
// not sums — bound the request's critical path. A request answered
// entirely from cache reports only the CacheHit marker; a request with
// no successful rows reports nothing.
func mergeTraces(traces []Trace, errs []error) (Trace, bool) {
	var agg Trace
	succeeded, ran := 0, 0
	for i, t := range traces {
		if errs[i] != nil {
			continue
		}
		succeeded++
		if t.CacheHit {
			continue
		}
		ran++
		if t.QueueWait > agg.QueueWait {
			agg.QueueWait = t.QueueWait
		}
		if t.Assembly > agg.Assembly {
			agg.Assembly = t.Assembly
		}
		if t.Forward > agg.Forward {
			agg.Forward = t.Forward
		}
		if t.Batch > agg.Batch {
			agg.Batch = t.Batch
		}
	}
	if succeeded == 0 {
		return Trace{}, false
	}
	if ran == 0 {
		return Trace{CacheHit: true}, true
	}
	return agg, true
}

// isTrue parses a permissive boolean header value.
func isTrue(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// collectRowErrors maps per-row Call errors onto aligned RowError
// entries and counts the failures.
func collectRowErrors(errs []error) (rowErrs []*RowError, failed int) {
	rowErrs = make([]*RowError, len(errs))
	for i, err := range errs {
		if err == nil {
			continue
		}
		rowErrs[i] = &RowError{Status: rowStatus(err), Error: err.Error()}
		failed++
	}
	return rowErrs, failed
}

// rowStatus maps one row's Call error to its HTTP status.
func rowStatus(err error) int {
	switch {
	case errors.Is(err, ErrModelFailure):
		return http.StatusInternalServerError
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrExpired):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCancelled):
		return statusClientClosedRequest
	case errors.Is(err, ErrUnknownMethod):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// severity ranks row statuses for the all-rows-failed top-level status:
// 500 (model failure) > 503 (capacity / shutdown — retry elsewhere) >
// 504 (deadline) > 499 (client gone) > 404 (no such method) > 400
// (caller bug). The ordering is a fixed property of the status, never
// of slice iteration order, so the top-level status of a mixed-failure
// batch is deterministic.
func severity(status int) int {
	switch status {
	case http.StatusInternalServerError:
		return 6
	case http.StatusServiceUnavailable:
		return 5
	case http.StatusGatewayTimeout:
		return 4
	case statusClientClosedRequest:
		return 3
	case http.StatusNotFound:
		return 2
	case http.StatusBadRequest:
		return 1
	}
	return 0
}

// batchStatus returns the severest status among the row errors.
func batchStatus(rowErrs []*RowError) int {
	worst := http.StatusInternalServerError // only if no row carries an error
	rank := -1
	for _, re := range rowErrs {
		if re != nil && severity(re.Status) > rank {
			worst, rank = re.Status, severity(re.Status)
		}
	}
	return worst
}
