// Package serve turns trained surrogates into an online prediction
// service — the deployment side of the paper's workflow, where the
// generative model replaces the JAG simulator for downstream consumers:
// forward prediction, inverse design, and bulk parameter sweeps.
//
// The core piece is a dynamic micro-batching queue: concurrent callers
// are coalesced into a single tensor.Matrix mini-batch, run through one
// forward pass, and the result rows scattered back to their callers.
// This is the serving-side twin of the ingest economics the paper
// exploits with Merlin and bundle files (Section II-C): per-call
// overhead dominates tiny workloads, so amortizing it across a batch is
// where the throughput lives. A batch is flushed when it reaches
// MaxBatch rows, when its oldest row has waited MaxDelay, or — the rule
// every HTTP request takes — when it holds the last row of a complete
// unit and a worker is idle. A unit is what one caller submitted
// together and will add nothing to: a decoded request says "this is
// everything", so nothing is gained by holding its batch open in front
// of a worker with nothing to do; a lone Call says "my siblings are
// other goroutines, coalesce us", and waits for them or for the window.
// While every worker is busy an open batch absorbs whatever arrives, so
// under load batches still fill — by backlog, not by timer.
//
// The pipeline serves any Model: a small interface exposing named
// methods (a *Pool of cyclegan replicas serves "predict" and "invert")
// with per-method tensor widths. Batches are keyed by method — each
// method has its own queue and batch loop, so rows bound for different
// forward passes never mix in one batch — while every method shares the
// server's worker pool, cache, backpressure budget, and stats.
//
// Every request has a lifecycle: it carries a context.Context and a
// Priority class. Each method's queue keeps one lane per class and the
// batcher drains Interactive strictly before Bulk, so design-space
// exploration preempts background scans. At flush time rows whose
// context is already cancelled or past its deadline are discarded
// before the forward pass — a caller that gave up never costs model
// time — and show up in the stats as expired/cancelled. The same
// Section II-C lesson again: per-task overhead spent on work nobody is
// waiting for is pure waste.
//
// Around the queue sit:
//
//   - a replica pool (pool.go) that round-robins batches across N
//     replicas — an nn.Network admits any number of concurrent
//     Forward(x, false) passes (training is single-owner), so a replica
//     is a concurrent execution unit, not a copy: N replicas of one
//     checkpoint are N workers over one weight set, with no lock —
//     with optional ensemble averaging across replicas loaded from
//     different checkpoints (e.g. the top-k LTFB tournament finishers);
//   - a Registry (registry.go) mapping model names to independently
//     configured Servers, each with its own pool, cache, lanes, and
//     stats — one process serving several named models. The registry is
//     also the hot-swap point: Replace atomically substitutes the
//     server behind a name (Acquire holders drain first, bounded by an
//     optional drain deadline; a per-name generation counter records
//     each swap), and a Reloader (reload.go) automates it from disk —
//     polling a spec/checkpoint path by stat signature then SHA-256
//     fingerprint, canary-testing the rebuilt pool, and promoting new
//     LTFB winners with rollback on corrupt checkpoints;
//   - an LRU response cache (cache.go) keyed on (method, quantized
//     input), exploiting that surrogate queries cluster around design
//     points of interest; every lane is served from it, only the
//     Interactive lane fills it, so a bulk scan cannot flush it;
//   - backpressure: the number of in-flight requests is bounded by
//     QueueDepth across all of a server's methods and lanes; excess
//     callers fail fast with ErrOverloaded instead of queueing without
//     bound;
//   - instrumentation (stats.go): atomic counters plus lock-free
//     streaming latency histograms — end-to-end and per pipeline stage
//     (queue_wait, batch_assembly, forward, encode) — exposed as a
//     JSON snapshot with p50/p90/p99/p999 quantiles, as a Prometheus
//     exposition (metrics.go, GET /metrics), and per request as a
//     Trace returned by CallTrace. Every HTTP request carries an
//     X-Request-Id (middleware.go) and its response a Server-Timing
//     stage decomposition; docs/OBSERVABILITY.md is the reference;
//   - calibration (probe.go): CostProbe times the model's forward pass
//     through the worker's own gather/run/scatter path and fits the
//     affine per-pass/per-row cost that internal/perfmodel's serving
//     capacity model predicts QPS and latency from.
//
// http.go adds the versioned HTTP surface used by cmd/jagserve
// (/v1/models, /v1/models/{name}/{method}, per-model stats and
// reload-aware /healthz) with both JSON and binary tensor transports
// (wire.go); client.go is the matching Go client. docs/SERVING.md is
// the operator guide.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Errors returned by Call and CallTrace.
var (
	// ErrOverloaded is returned when QueueDepth requests are already in
	// flight; callers should back off and retry (HTTP 503).
	ErrOverloaded = errors.New("serve: overloaded, queue full")
	// ErrClosed is returned once the server has been shut down.
	ErrClosed = errors.New("serve: server closed")
	// ErrExpired is returned when the request context's deadline passed
	// before the prediction completed; the row is dropped before the
	// forward pass if it is still queued (HTTP 504).
	ErrExpired = errors.New("serve: request deadline expired")
	// ErrCancelled is returned when the request context was cancelled;
	// like ErrExpired, a still-queued row never reaches the model.
	ErrCancelled = errors.New("serve: request cancelled")
	// ErrUnknownMethod is returned when a request names a method the
	// model does not serve (HTTP 404).
	ErrUnknownMethod = errors.New("serve: unknown method")
	// ErrModelFailure wraps an error returned by the model's forward
	// pass itself; the request was valid but the model could not answer
	// it (HTTP 500).
	ErrModelFailure = errors.New("serve: model failure")
)

// Names of the methods a *Pool-backed model serves. A Model may expose
// any method names; these two are the conventional vocabulary of the
// CycleGAN surrogate (http.go routes them as
// /v1/models/{name}/predict and /v1/models/{name}/invert).
const (
	// MethodPredict is the forward surrogate: 5-D inputs to output
	// bundles (scalars + images), Dec(F(x)).
	MethodPredict = "predict"
	// MethodInvert is the inverse surrogate: the self-consistency path
	// G(F(x)), inferring the inputs a design point maps back to.
	MethodInvert = "invert"
)

// Priority is a request's queue lane. The batcher drains Interactive
// strictly before Bulk, so latency-sensitive callers preempt background
// scans without a separate server.
type Priority int

const (
	// Interactive is the default class: a human (or latency-sensitive
	// system) is waiting on the answer.
	Interactive Priority = iota
	// Bulk is for background work — dataset generation, parameter
	// sweeps — that should soak up leftover capacity only.
	Bulk

	numLanes
)

// String returns the wire name of the class.
func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// ParsePriority maps a wire name to a Priority. The empty string is
// Interactive, matching the zero value.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "", "interactive":
		return Interactive, nil
	case "bulk":
		return Bulk, nil
	}
	return 0, fmt.Errorf("serve: unknown priority %q (want interactive or bulk)", s)
}

// Dims describes the per-row input and output widths of one model
// method.
type Dims struct {
	In  int `json:"in"`
	Out int `json:"out"`
}

// Model is the serving pipeline's contract with a servable model. *Pool
// is the canonical implementation; anything exposing fixed-width named
// batch methods can stand behind a Server.
type Model interface {
	// Dims enumerates the model's methods and their per-row tensor
	// widths. The key set is the method set and must be non-empty and
	// fixed for the model's lifetime; NewServer snapshots it once.
	Dims() map[string]Dims
	// Run executes one batched forward pass of method on x (one request
	// per row) and returns a matrix with the same number of rows. The
	// queue never mixes methods in one batch, and Run must be safe for
	// concurrent use — Server runs one Run call per worker in parallel.
	// x is the worker's gather matrix, refilled for its next pass: Run
	// may read it only until it returns. The result is read, not kept.
	Run(method string, x *tensor.Matrix) (*tensor.Matrix, error)
}

// Config tunes the serving pipeline around a loaded Model.
type Config struct {
	// MaxBatch is the largest number of requests coalesced into one
	// forward pass (default 64).
	MaxBatch int
	// MaxDelay is how long the oldest row of a partial batch may wait
	// before the batch is flushed (default 2ms). It is the window rows
	// submitted one at a time through Call wait for companions in —
	// latency floor vs batch occupancy is the trade-off it sets for
	// them. Rows submitted as a complete unit (every HTTP request) do
	// not wait for it: they are dispatched as soon as a worker is idle,
	// and for them it only bounds how long a batch may stay open while
	// all workers are busy.
	MaxDelay time.Duration
	// QueueDepth bounds the number of in-flight requests across all
	// methods and priority lanes; further Call requests fail with
	// ErrOverloaded (default 4*MaxBatch).
	QueueDepth int
	// Workers is the number of goroutines running forward passes; it is
	// the server's parallel width. 0 uses the model's Replicas() if it
	// has one (as *Pool does), else 1.
	Workers int
	// CacheSize is the LRU response-cache capacity in entries, shared
	// across methods; 0 disables caching. Both lanes are served from the
	// cache but only Interactive rows enter it, so a full cache holds at
	// most CacheSize × the widest method's Out × 4 bytes (the stats'
	// cache_bytes says how much it holds now).
	CacheSize int
	// CacheQuantum is the grid step inputs are snapped to when forming
	// cache keys (default 1e-6). Coarser grids trade exactness for hit
	// rate; the JAG input cube is [0,1]^5 so 1e-6 is effectively exact.
	CacheQuantum float64
	// PassOverhead simulates fixed per-dispatch cost ahead of each
	// forward pass — the GPU kernel-launch / accelerator-RPC overhead a
	// production deployment pays once per batch. Zero for library use;
	// the benchmarks use it the way ensemble.Config.TaskOverhead models
	// Merlin's per-task scheduler cost (Section II-C), to make the
	// batching economics measurable on CPU-only hosts where per-row
	// arithmetic is the only real per-pass cost.
	PassOverhead time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.CacheQuantum <= 0 {
		c.CacheQuantum = 1e-6
	}
	return c
}

// result is what the pipeline hands back for one row.
type result struct {
	y     []float32
	trace Trace
	err   error
}

// unit is one submission: the rows a caller put on a lane together and
// waits for together — every row of a decoded HTTP request (or one
// QueueDepth/2 chunk of a large one), or the single row of a Call. The
// rows share the caller's lifecycle and one completion.
type unit struct {
	ctx   context.Context
	class Priority
	// complete says the caller sends nothing more until these rows are
	// answered, so the batch loop need not hold a batch open for
	// companions once it has the unit's last row. A lone Call leaves it
	// unset: its siblings are other goroutines, and it asks to be
	// coalesced with them.
	complete bool
	left     atomic.Int32  // rows not yet replied to
	done     chan struct{} // buffered(1): receives once, when left reaches zero
	reqs     []request
	one      [1]request // backs reqs for a single row, so a Call costs no second allocation
}

// request is one queued row of a unit, and the slot its reply lands in.
type request struct {
	u        *unit
	i        int // the row's index in the submission's slices
	x        []float32
	key      string // cache key, "" without a cache
	enqueued time.Time
	// last marks the row that ends a complete unit's submission: when the
	// batch loop has pulled it, it has the whole unit.
	last bool
	// res is written once by the pipeline, before done is set; the
	// submitter reads it only after it has seen done (or the unit's
	// completion), so an abandoned unit's late replies race with nothing.
	res  result
	done atomic.Bool
}

// batch is one method-homogeneous set of requests bound for a single
// forward pass.
type batch struct {
	method string
	slot   int // the method's index in Server.methods and Stats.rows
	reqs   []*request
	// flushed is when the batch loop closed the batch and handed it to
	// the workers: the end of every row's queue-wait span and the start
	// of the assembly span.
	flushed time.Time
}

// methodQueue is one method's pair of priority lanes. Batches are keyed
// by method: each queue has its own batch loop, so rows for different
// methods never share a forward pass.
type methodQueue struct {
	slot  int // the method's index in Server.methods and Stats.rows
	lanes [numLanes]chan *request
	// wake holds at most one token, left by a worker that went idle: the
	// method's batch loop re-evaluates its open batch when it takes it.
	// One channel per loop, so one loop taking its token cannot strand
	// another that is also holding a complete unit.
	wake chan struct{}
}

// Server owns the micro-batching queues in front of a Model.
type Server struct {
	cfg     Config
	model   Model
	dims    map[string]Dims
	methods []string // sorted
	cache   *lru
	stats   *Stats

	queues   map[string]*methodQueue
	batches  chan *batch
	inflight atomic.Int64
	idle     atomic.Int32 // workers blocked on batches with nothing to run
	// capacity holds the float64 bits of the probed sustainable row
	// rate (rows/s); 0 until SetCapacityQPS publishes a probe result.
	capacity atomic.Uint64

	loops  sync.WaitGroup // one batchLoop per method
	mu     sync.RWMutex   // guards closed vs in-progress queue sends
	closed bool
	wg     sync.WaitGroup // workers + batches-channel closer
}

// NewServer starts one batch loop per model method and cfg.Workers
// forward-pass workers. Close must be called to release them. The
// model's method set must be non-empty with positive dims; NewServer
// panics otherwise — a Model that cannot describe its own shapes is a
// programming error, not a runtime condition.
func NewServer(model Model, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Workers <= 0 {
		if r, ok := model.(interface{ Replicas() int }); ok {
			cfg.Workers = r.Replicas()
		} else {
			cfg.Workers = 1
		}
	}
	src := model.Dims()
	if len(src) == 0 {
		panic("serve: model exposes no methods")
	}
	dims := make(map[string]Dims, len(src))
	methods := make([]string, 0, len(src))
	for m, d := range src {
		if m == "" || d.In <= 0 || d.Out <= 0 {
			panic(fmt.Sprintf("serve: model method %q has invalid dims %+v", m, d))
		}
		dims[m] = d
		methods = append(methods, m)
	}
	sort.Strings(methods)
	s := &Server{
		cfg:     cfg,
		model:   model,
		dims:    dims,
		methods: methods,
		stats:   newStats(methods),
		queues:  make(map[string]*methodQueue, len(dims)),
		batches: make(chan *batch, cfg.Workers),
	}
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize)
	}
	for slot, m := range methods {
		q := &methodQueue{slot: slot, wake: make(chan struct{}, 1)}
		for l := range q.lanes {
			// Each lane holds QueueDepth so a send never blocks even if
			// every in-flight request lands in one lane.
			q.lanes[l] = make(chan *request, cfg.QueueDepth)
		}
		s.queues[m] = q
		s.loops.Add(1)
		go s.batchLoop(m, q)
	}
	// The batches channel has multiple senders (one loop per method);
	// close it only after every loop has exited.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.loops.Wait()
		close(s.batches)
	}()
	// Workers hold a whole batch through one forward pass, so the
	// worker count is the pipeline's parallel width.
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
	return s
}

// Model returns the model the server dispatches to.
func (s *Server) Model() Model { return s.model }

// Methods returns the model's method names in sorted order.
func (s *Server) Methods() []string { return append([]string(nil), s.methods...) }

// Dims returns a copy of the per-method tensor widths.
func (s *Server) Dims() map[string]Dims {
	out := make(map[string]Dims, len(s.dims))
	for m, d := range s.dims {
		out[m] = d
	}
	return out
}

// Closed reports whether Close has been called.
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Call submits one row to the named method's batching queue and blocks
// until the batched forward pass completes or ctx ends. It fails fast
// with ErrOverloaded under backpressure, with ErrUnknownMethod for a
// method outside the model's set, and serves repeated inputs from the
// LRU cache when one is configured. The returned slice is the caller's
// on a miss; on a cache hit it is the shared cached row and must not be
// mutated.
//
// A Call is one row of a batch the caller expects other goroutines to
// fill: it waits for MaxBatch companions or MaxDelay, whichever comes
// first. A caller that already holds all its rows — the HTTP handler
// does — submits them as one unit instead and waits for neither.
func (s *Server) Call(ctx context.Context, method string, x []float32, class Priority) ([]float32, error) {
	y, _, err := s.CallTrace(ctx, method, x, class)
	return y, err
}

// CallTrace is Call returning the request's span record as well: where
// the latency went, stage by stage (see Trace). The trace is only
// meaningful when err is nil — a rejected or dropped request never
// completed the pipeline.
func (s *Server) CallTrace(ctx context.Context, method string, x []float32, class Priority) ([]float32, Trace, error) {
	var (
		y   [1][]float32
		tr  [1]Trace
		err [1]error
	)
	s.submit(ctx, method, class, false, [][]float32{x}, y[:], tr[:], err[:])
	return y[0], tr[0], err[0]
}

// submit is the one admission path: it runs the rows xs through method's
// queue from the caller's goroutine and blocks until every row has an
// outcome, written to the aligned ys, traces and errs (row i's ys and
// traces entries are meaningful only when errs[i] is nil). Each row is
// validated, looked up in the cache, and admitted against QueueDepth on
// its own, exactly as if it had been a Call, and rows share ctx.
//
// complete says xs is everything the caller has: the batch loop then
// dispatches the rows as soon as a worker is idle instead of holding the
// batch open for MaxDelay. Rows go on the lane in chunks of QueueDepth/2,
// each answered before the next is queued, so one large submission
// cannot trip its own backpressure (ErrOverloaded is for contention
// between callers, not for one caller's row count).
func (s *Server) submit(ctx context.Context, method string, class Priority, complete bool,
	xs, ys [][]float32, traces []Trace, errs []error) {
	var reject error
	q, ok := s.queues[method]
	switch {
	case class < 0 || class >= numLanes:
		reject = fmt.Errorf("serve: unknown priority %d", class)
	case !ok:
		reject = fmt.Errorf("%w %q (model serves: %s)", ErrUnknownMethod, method, strings.Join(s.methods, ", "))
	}
	if reject != nil {
		for i := range errs {
			errs[i] = reject
		}
		return
	}
	chunk := max(s.cfg.QueueDepth/2, 1)
	for lo := 0; lo < len(xs); lo += chunk {
		hi := min(lo+chunk, len(xs))
		s.submitChunk(ctx, method, q, class, complete, xs[lo:hi], ys[lo:hi], traces[lo:hi], errs[lo:hi])
	}
}

// submitChunk admits, queues and awaits one chunk of a submission.
func (s *Server) submitChunk(ctx context.Context, method string, q *methodQueue, class Priority, complete bool,
	xs, ys [][]float32, traces []Trace, errs []error) {
	var u *unit
	n := 0 // rows admitted to the pipeline
	for i, x := range xs {
		if err := s.check(ctx, method, x); err != nil {
			errs[i] = err
			continue
		}
		var key string
		if s.cache != nil {
			// The method is part of the key: predict and invert answers for
			// the same design point must never collide.
			key = method + "\x00" + quantKey(x, s.cfg.CacheQuantum)
			if y, ok := s.cache.get(key); ok {
				s.stats.cacheHits.Add(1)
				ys[i], traces[i] = y, Trace{CacheHit: true}
				continue
			}
		}
		if s.inflight.Add(1) > int64(s.cfg.QueueDepth) {
			s.inflight.Add(-1)
			s.stats.overloads.Add(1)
			errs[i] = ErrOverloaded
			continue
		}
		if u == nil {
			u = &unit{ctx: ctx, class: class, complete: complete, done: make(chan struct{}, 1)}
			if len(xs) == 1 {
				u.reqs = u.one[:]
			} else {
				u.reqs = make([]request, len(xs))
			}
		}
		r := &u.reqs[n]
		r.u, r.i, r.x, r.key = u, i, x, key
		n++
	}
	if n == 0 {
		return
	}
	u.reqs = u.reqs[:n]
	u.reqs[n-1].last = complete
	u.left.Store(int32(n))

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.inflight.Add(int64(-n))
		for k := range u.reqs {
			errs[u.reqs[k].i] = ErrClosed
		}
		return
	}
	now := time.Now()
	for k := range u.reqs {
		u.reqs[k].enqueued = now
		q.lanes[class] <- &u.reqs[k] // cannot block: inflight <= QueueDepth == cap(lane)
	}
	s.mu.RUnlock()

	// Once admitted, the pipeline owns the rows: it replies to each and
	// releases its inflight slot whether or not the caller is still
	// listening.
	var stale error
	select {
	case <-u.done:
	case <-ctx.Done():
		// Rows still queued are now stale; the worker discards them at
		// flush time (and does the expired/cancelled accounting there).
		stale = ErrCancelled
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			stale = ErrExpired
		}
	}
	for k := range u.reqs {
		r := &u.reqs[k]
		// A reply may have raced in just as the context ended: prefer
		// delivering completed work over reporting expiry.
		if stale != nil && !r.done.Load() {
			errs[r.i] = stale
			continue
		}
		ys[r.i], traces[r.i], errs[r.i] = s.finish(r.key, class, r.res)
	}
}

// check is admission's per-row validation: the row's shape and values,
// then whether anybody is still waiting for it.
func (s *Server) check(ctx context.Context, method string, x []float32) error {
	if want := s.dims[method].In; len(x) != want {
		return fmt.Errorf("serve: %s input dim %d, want %d", method, len(x), want)
	}
	for _, v := range x {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("serve: non-finite input %v", v)
		}
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: reject at admission, same accounting as a
		// flush-time drop — the row never reaches the model.
		return s.dropStale(err)
	}
	return nil
}

// reply hands one admitted row its outcome, releases its inflight slot,
// and signals the unit's caller when it was the unit's last.
func (s *Server) reply(r *request, res result) {
	r.res = res
	r.done.Store(true)
	s.inflight.Add(-1)
	if r.u.left.Add(-1) == 0 {
		r.u.done <- struct{}{}
	}
}

// finish unwraps a pipeline reply for its caller, caching successful
// Interactive rows under key. Both lanes look the cache up; only the
// Interactive lane is admitted to it. Bulk is by its own definition a
// scan — a sweep's rows are fresh and will not be asked for again — so
// admitting them would evict the design points a human is exploring and
// pin entries × row-width × 4 bytes of rows that can never be hit.
func (s *Server) finish(key string, class Priority, res result) ([]float32, Trace, error) {
	if res.err != nil {
		return nil, res.trace, res.err
	}
	if s.cache != nil {
		// A miss is a lookup the model had to answer, on either lane:
		// counted only when it did, so neither overload rejections nor
		// rows dropped as stale inflate the miss rate.
		s.stats.cacheMisses.Add(1)
		if class == Interactive {
			// Cache its own copy so neither the caller nor a later
			// cache hit can mutate the other's row.
			s.cache.put(key, append([]float32(nil), res.y...))
		}
	}
	return res.y, res.trace, nil
}

// dropStale counts one context-dead request and maps its context error
// to the serve error vocabulary.
func (s *Server) dropStale(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.expired.Add(1)
		return ErrExpired
	}
	s.stats.cancelled.Add(1)
	return ErrCancelled
}

// recvState is the outcome of one lane receive.
type recvState int

const (
	recvReq     recvState = iota // got a request
	recvTimeout                  // the flush timer fired
	recvWake                     // a worker went idle
	recvClosed                   // both lanes closed and drained
)

// recv returns the next queued request, draining the interactive lane
// strictly before the bulk lane. A lane that turns out closed is nilled
// out in place; once both are nil recv reports recvClosed. timeout and
// wake may be nil: with both nil recv blocks until a request arrives or
// the lanes close.
func recv(qi, qb *chan *request, timeout <-chan time.Time, wake <-chan struct{}) (*request, recvState) {
	for {
		// Strict priority: take an already-waiting interactive request
		// before even looking at the bulk lane.
		if *qi != nil {
			select {
			case r, ok := <-*qi:
				if !ok {
					*qi = nil
					continue
				}
				return r, recvReq
			default:
			}
		}
		if *qi == nil && *qb == nil {
			return nil, recvClosed
		}
		// Receives from a nil channel block forever, so closed-out
		// lanes simply drop out of the select.
		select {
		case r, ok := <-*qi:
			if !ok {
				*qi = nil
				continue
			}
			return r, recvReq
		case r, ok := <-*qb:
			if !ok {
				*qb = nil
				continue
			}
			return r, recvReq
		case <-timeout:
			return nil, recvTimeout
		case <-wake:
			return nil, recvWake
		}
	}
}

// batchLoop coalesces one method's queued requests into batches. A batch
// closes when it is full (MaxBatch rows), when MaxDelay has passed since
// its first row arrived, or when it holds the last row of a complete
// unit and a worker is idle — rows nobody will add to, in front of a
// worker with nothing to do, have nothing to wait for. While every worker
// is busy such a batch stays open and keeps absorbing arrivals, so load
// coalesces by backlog and the worker's next pass takes all of it.
//
// The interactive lane is drained before the bulk lane at every pull, so
// a bulk backlog can delay interactive work by at most one batch.
// Between batches the front of the bulk lane is reaped of context-dead
// rows — otherwise sustained interactive traffic could starve the bulk
// lane and expired bulk rows would pin QueueDepth slots forever,
// converting capacity into spurious ErrOverloaded.
func (s *Server) batchLoop(method string, q *methodQueue) {
	defer s.loops.Done()
	qi, qb := q.lanes[Interactive], q.lanes[Bulk]
	// Go 1.23+ timer semantics: Stop/Reset discard any pending fire, so
	// no manual channel draining is needed between batches.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var carry *request // alive bulk row the last reap could not push back
	for {
		first := carry
		carry = nil
		if first == nil {
			var st recvState
			first, st = recv(&qi, &qb, nil, nil)
			if st == recvClosed {
				return
			}
		}
		pending := make([]*request, 1, s.cfg.MaxBatch)
		pending[0] = first
		complete := first.last
		timer.Reset(s.cfg.MaxDelay)
	collect:
		for len(pending) < s.cfg.MaxBatch {
			var wake <-chan struct{}
			if complete {
				if s.idle.Load() > 0 {
					break
				}
				// A token left before this check is harmless: the loop
				// comes round and finds the worker busy again.
				wake = q.wake
			}
			r, st := recv(&qi, &qb, timer.C, wake)
			switch st {
			case recvReq:
				pending = append(pending, r)
				complete = complete || r.last
			case recvWake: // a worker went idle: look again
			default:
				break collect
			}
		}
		timer.Stop()
		s.batches <- &batch{method: method, slot: q.slot, reqs: pending, flushed: time.Now()}
		carry = s.reapBulk(&qb)
		if carry == nil && qi == nil && qb == nil {
			return
		}
	}
}

// reapBulk drains context-dead rows from the front of the bulk lane so
// they cannot hold inflight slots while strict priority starves the
// lane. The first alive row it meets is pushed back (the lane rotates
// by one, which the best-effort bulk class tolerates) so it cannot jump
// ahead of waiting interactive work. Only when the server is closed —
// the lane can no longer accept sends — is the alive row returned for
// the caller to serve in the next batch. Returns nil otherwise.
func (s *Server) reapBulk(qb *chan *request) *request {
	for *qb != nil {
		select {
		case r, ok := <-*qb:
			if !ok {
				*qb = nil
				return nil
			}
			if err := r.u.ctx.Err(); err != nil {
				s.reply(r, result{err: s.dropStale(err)})
				continue
			}
			s.mu.RLock()
			if !s.closed {
				// The row now trails everything its unit has queued, the
				// unit's last row included, so it carries the mark itself:
				// whatever batch pulls it has all of the unit there is.
				r.last = r.u.complete
				// Cannot block: r still holds an inflight slot, so the
				// lane has at least one free buffer entry.
				*qb <- r
				s.mu.RUnlock()
				return nil
			}
			s.mu.RUnlock()
			return r
		default:
			return nil
		}
	}
	return nil
}

// nextBatch returns the worker's next batch, false once the pipeline has
// shut down. A worker that finds nothing waiting counts itself idle for
// as long as it blocks, and tells every batch loop so: one of them may
// be holding a complete unit it kept open only because no worker was
// free.
func (s *Server) nextBatch() (*batch, bool) {
	select {
	case b, ok := <-s.batches:
		return b, ok
	default:
	}
	s.idle.Add(1)
	for _, q := range s.queues {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already there
		}
	}
	b, ok := <-s.batches
	s.idle.Add(-1)
	return b, ok
}

// gather copies the rows into x, reshaped to len(rows) × in over its own
// backing array (grown when too small). A worker reuses one such matrix
// for every pass: Model.Run may not retain it.
func gather(x *tensor.Matrix, rows []*request, in int) {
	x.Rows, x.Cols = len(rows), in
	if n := len(rows) * in; cap(x.Data) < n {
		x.Data = make([]float32, n)
	} else {
		x.Data = x.Data[:n]
	}
	for i, r := range rows {
		copy(x.Row(i), r.x)
	}
}

// workerLoop discards stale rows, assembles the live remainder into one
// matrix, runs it through the model's named method, and scatters the
// rows back to their units. A batch whose rows all went stale skips the
// forward pass entirely.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	var x tensor.Matrix
	for {
		b, ok := s.nextBatch()
		if !ok {
			return
		}
		live := b.reqs[:0]
		for _, r := range b.reqs {
			if err := r.u.ctx.Err(); err != nil {
				s.reply(r, result{err: s.dropStale(err)})
				continue
			}
			live = append(live, r)
		}
		if len(live) == 0 {
			continue
		}
		gather(&x, live, s.dims[b.method].In)
		// Stage spans: assembly is flush → forward start (worker wait +
		// stale reap + gather); forward is the pass itself, including
		// the modeled PassOverhead, which stands in for dispatch cost.
		// Both are per-batch properties shared by every row's trace.
		fwdStart := time.Now()
		assembly := fwdStart.Sub(b.flushed)
		if s.cfg.PassOverhead > 0 {
			// Spin rather than sleep: modeled dispatch overhead keeps
			// the execution unit busy, like a kernel launch does.
			for start := time.Now(); time.Since(start) < s.cfg.PassOverhead; {
			}
		}
		y, err := s.model.Run(b.method, &x)
		fwdDur := time.Since(fwdStart)
		s.stats.stageH[stageAssembly].Observe(assembly.Seconds())
		s.stats.stageH[stageForward].Observe(fwdDur.Seconds())
		if err != nil {
			// The model rejected a structurally valid batch: fail its
			// rows, not the server. The method set was checked at
			// admission, so this is an internal model failure.
			err = fmt.Errorf("%w: %v", ErrModelFailure, err)
			s.stats.failures.Add(int64(len(live)))
			for _, r := range live {
				s.reply(r, result{err: err})
			}
			continue
		}
		s.stats.batch(len(live))
		now := time.Now()
		for i, r := range live {
			// Copy the row out of the batch matrix: a view would pin
			// all MaxBatch rows for as long as any caller retains its
			// result.
			out := make([]float32, y.Cols)
			copy(out, y.Row(i))
			wait := b.flushed.Sub(r.enqueued)
			s.stats.stageH[stageQueueWait].Observe(wait.Seconds())
			s.stats.request(b.slot, r.u.class, now.Sub(r.enqueued))
			s.reply(r, result{y: out, trace: Trace{
				QueueWait: wait,
				Assembly:  assembly,
				Forward:   fwdDur,
				Batch:     len(live),
			}})
		}
	}
}

// view copies every instrument once, the cache's occupancy included.
func (s *Server) view() statsView {
	v := s.stats.view()
	if s.cache != nil {
		v.cacheEntries, v.cacheBytes = s.cache.size()
	}
	return v
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() StatsSnapshot { return s.view().snapshot() }

// SetCapacityQPS publishes the server's probed sustainable throughput
// in rows per second — typically ProbeResult.QPS from a startup
// CostProbe. It surfaces on the stats route as capacity_qps and on
// /metrics as jag_capacity_qps, where a fleet router (cmd/jagproxy)
// reads it to weight its routing. Zero means "not probed".
func (s *Server) SetCapacityQPS(qps float64) {
	if qps < 0 || math.IsNaN(qps) || math.IsInf(qps, 0) {
		qps = 0
	}
	s.capacity.Store(math.Float64bits(qps))
}

// CapacityQPS returns the probed sustainable row rate, 0 until a probe
// published one via SetCapacityQPS.
func (s *Server) CapacityQPS() float64 { return math.Float64frombits(s.capacity.Load()) }

// Close drains the pipeline and releases the batch loops and workers.
// In-flight requests complete (stale ones are still dropped at flush);
// concurrent and later Call requests return ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		for _, lane := range q.lanes {
			close(lane)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}
