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
// where the throughput lives. Rows wait in one place — their method's
// queue — and the batcher is whichever worker is free: it takes up to
// MaxBatch rows from the first queue that is due, and a queue is due
// when it holds MaxBatch rows, or the last row of a complete unit, or a
// row that has waited MaxDelay. A unit is what one caller submitted
// together and will add nothing to: a decoded HTTP request says "this
// is everything", so nothing is gained by keeping its rows back from a
// worker with nothing to do; a lone Call says "my siblings are other
// goroutines, coalesce us", and waits for them or for the window. While
// every worker is busy the queue absorbs whatever arrives, so under
// load batches still fill — by backlog, not by timer.
//
// The pipeline serves any Model: a small interface exposing named
// methods (a *Pool of cyclegan generators serves "predict" and "invert")
// with per-method tensor widths. Each method has its own queue and a
// batch is filled from one queue, so rows bound for different forward
// passes never mix, while every method shares the server's workers
// (which take the due queues in turn), cache, backpressure budget, and
// stats.
//
// Every request has a lifecycle: it carries a context.Context and a
// Priority class. Each method's queue keeps one lane per class and a
// worker takes Interactive rows strictly before Bulk, so design-space
// exploration preempts background scans by the next pass. A row whose
// context is already cancelled or past its deadline when a worker
// reaches it is answered there and never joins the batch — a caller
// that gave up never costs model time — and shows up in the stats as
// expired/cancelled. The same Section II-C lesson again: per-task
// overhead spent on work nobody is waiting for is pure waste.
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
//     server behind a name and closes the old one, which finishes the
//     submissions already on it (a per-name generation counter records
//     each swap), and a Reloader (reload.go) automates it from disk —
//     polling a spec/checkpoint path by stat signature then SHA-256
//     fingerprint, building the next generation through Open, and
//     promoting new LTFB winners with rollback on corrupt checkpoints.
//     Open is the one way a spec path becomes a served model, at
//     start-up and on every swap: load the pool, canary-test each
//     method, start the Server, probe its capacity;
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
// (wire.go: on a little-endian host a JGT1 payload is the floats' own
// memory, written from the rows and read into the decoded slice with one
// copy and no per-float conversion); client.go is the matching Go
// client. docs/SERVING.md is the operator guide.
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

	"repro/internal/parallel"
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

// Priority is a request's queue lane. A worker takes Interactive rows
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

// Config tunes the serving pipeline around a loaded Model. The worker
// count is not here: it is the model's Replicas() (as *Pool has), else 1.
type Config struct {
	// MaxBatch is the largest number of requests coalesced into one
	// forward pass (default 64).
	MaxBatch int
	// MaxDelay is how long a queued row may wait before its queue is due
	// whatever else it holds (default 2ms). It is the window rows
	// submitted one at a time through Call wait for companions in —
	// latency floor vs batch occupancy is the trade-off it sets for
	// them. Rows submitted as a complete unit (every HTTP request) do
	// not wait for it: they are due at once, and leave with the first
	// worker that is free.
	MaxDelay time.Duration
	// QueueDepth bounds the number of in-flight requests across all
	// methods and priority lanes; further Call requests fail with
	// ErrOverloaded (default 4*MaxBatch).
	QueueDepth int
	// CacheSize is the LRU response-cache capacity in entries, shared
	// across methods; 0 disables caching. Both lanes are served from the
	// cache but only Interactive rows enter it, so a full cache holds at
	// most CacheSize × the widest method's Out × 4 bytes (the stats'
	// cache_bytes says how much it holds now).
	CacheSize int
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
	left  atomic.Int32  // rows not yet replied to
	done  chan struct{} // buffered(1): receives once, when left reaches zero
	reqs  []request
	one   [1]request // backs reqs for a single row, so a Call costs no second allocation
}

// request is one queued row of a unit, and the slot its reply lands in.
type request struct {
	u        *unit
	i        int // the row's index in the submission's slices
	x        []float32
	key      string // cache key, "" without a cache
	enqueued time.Time
	// last marks the row that ends a complete unit — the caller sends
	// nothing more until it is answered — so a queue holding it holds rows
	// nobody will add to. A lone Call's row is unmarked: its siblings are
	// other goroutines, and it asks to be coalesced with them.
	last bool
	// res is written once by the pipeline, before done is set; the
	// submitter reads it only after it has seen done (or the unit's
	// completion), so an abandoned unit's late replies race with nothing.
	res  result
	done atomic.Bool
}

// ring is a fixed-capacity FIFO of queued rows.
type ring struct {
	buf     []*request
	head, n int
}

func (g *ring) push(r *request) {
	g.buf[(g.head+g.n)%len(g.buf)] = r
	g.n++
}

func (g *ring) front() *request { return g.buf[g.head] }

func (g *ring) pop() {
	g.buf[g.head] = nil
	g.head = (g.head + 1) % len(g.buf)
	g.n--
}

// methodQueue is where one method's rows wait: one ring per priority
// lane, all of it guarded by Server.mu. Queues are keyed by method and a
// worker fills a batch from one queue, so rows for different methods
// never share a forward pass.
type methodQueue struct {
	method string
	slot   int // the method's index in Server.methods, Server.order and Stats.rows
	lanes  [numLanes]ring
	// ends counts the queued rows that end a complete unit. While it is
	// non-zero the queue holds rows nobody will add to, and is due.
	ends int
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
	order    []*methodQueue // the same queues in methods order, which workers scan round-robin
	inflight atomic.Int64
	// capacity holds the float64 bits of the probed sustainable row
	// rate (rows/s); 0 until SetCapacityQPS publishes a probe result.
	capacity atomic.Uint64

	mu     sync.Mutex // guards the queues, turn, closed and submitting
	work   *sync.Cond // on mu: a queue may have become due, or a closed server's last submission ended
	turn   int        // where in order the next worker starts looking
	closed bool
	// submitting counts the submissions in progress. A submission counts
	// itself in before Close or is refused whole, and the workers of a
	// closed server stay until the count is zero, so every chunk of a
	// submission that began in time is served.
	submitting int
	wg         sync.WaitGroup // the workers
}

// NewServer starts the forward-pass workers — one per model replica, the
// only goroutines a server runs. Close must be called to release them.
// The model's method set must be non-empty with positive dims; NewServer
// panics otherwise — a Model that cannot describe its own shapes is a
// programming error, not a runtime condition.
func NewServer(model Model, cfg Config) *Server {
	cfg = cfg.withDefaults()
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
	}
	s.work = sync.NewCond(&s.mu)
	if cfg.CacheSize > 0 {
		s.cache = newLRU(cfg.CacheSize)
	}
	for slot, m := range methods {
		q := &methodQueue{method: m, slot: slot}
		for l := range q.lanes {
			// Each lane holds QueueDepth so a push never overflows even if
			// every in-flight request lands in one lane.
			q.lanes[l].buf = make([]*request, cfg.QueueDepth)
		}
		s.queues[m] = q
		s.order = append(s.order, q)
	}
	// A worker holds a whole batch through one forward pass, so the
	// worker count is the pipeline's parallel width.
	workers := 1
	if r, ok := model.(interface{ Replicas() int }); ok {
		workers = max(r.Replicas(), 1)
	}
	for range workers {
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
	s.mu.Lock()
	defer s.mu.Unlock()
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
// complete says xs is everything the caller has: its rows are then due at
// once and leave with the first free worker, instead of waiting MaxDelay
// for companions. Rows go on the lane in chunks of QueueDepth/2,
// each answered before the next is queued, so one large submission
// cannot trip its own backpressure (ErrOverloaded is for contention
// between callers, not for one caller's row count).
//
// A server closed before the submission starts refuses it whole: every
// row gets ErrClosed and submit returns false. Once started, a submission
// holds the server open until its last chunk is answered, so Close
// cannot cut it short.
//
// An Interactive submission first marks the process (parallel.MarkInteractive),
// whatever becomes of its rows — cache hits and rejections included — so the
// long forward passes that start in the next second keep the gaps between
// their waves of tiles, where this caller's next hop and its neighbours' run.
func (s *Server) submit(ctx context.Context, method string, class Priority, complete bool,
	xs, ys [][]float32, traces []Trace, errs []error) bool {
	if class == Interactive {
		parallel.MarkInteractive()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		return false
	}
	s.submitting++
	s.mu.Unlock()
	defer s.leave()

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
		return true
	}
	chunk := max(s.cfg.QueueDepth/2, 1)
	for lo := 0; lo < len(xs); lo += chunk {
		hi := min(lo+chunk, len(xs))
		s.submitChunk(ctx, method, q, class, complete, xs[lo:hi], ys[lo:hi], traces[lo:hi], errs[lo:hi])
	}
	return true
}

// leave ends a submission. The last to end on a closed server lets its
// workers go.
func (s *Server) leave() {
	s.mu.Lock()
	s.submitting--
	last := s.closed && s.submitting == 0
	s.mu.Unlock()
	if last {
		s.work.Broadcast()
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
			key = method + "\x00" + quantKey(x, cacheQuantum)
			if y, ok := s.cache.get(key); ok {
				s.stats.cacheHits.Add(1)
				ys[i], traces[i], errs[i] = y, Trace{CacheHit: true}, nil
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
			u = &unit{ctx: ctx, class: class, done: make(chan struct{}, 1)}
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

	s.mu.Lock()
	now := time.Now()
	for k := range u.reqs {
		u.reqs[k].enqueued = now
		q.lanes[class].push(&u.reqs[k]) // cannot overflow: inflight <= QueueDepth == len(lane.buf)
	}
	if complete {
		q.ends++
	}
	s.mu.Unlock()
	// One enqueue, one worker (which wakes the next if it leaves due rows
	// behind). A busy worker needs no signal: it looks when it finishes.
	s.work.Signal()

	// Once admitted, the pipeline owns the rows: it replies to each and
	// releases its inflight slot whether or not the caller is still
	// listening.
	var stale error
	select {
	case <-u.done:
	case <-ctx.Done():
		// Rows still queued are now stale; the worker that reaches them
		// answers them unserved (and does the expired/cancelled
		// accounting there).
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
		// row dropped from the queue — it never reaches the model.
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

// due reports whether a free worker should take from q now: it holds a
// full batch, or rows nobody will add to, or a row that has waited out
// its MaxDelay window, or the server is draining. For a queue still
// inside its window the second result is when that window ends.
func (s *Server) due(q *methodQueue, now time.Time) (bool, time.Time) {
	n, oldest := 0, now
	for l := range q.lanes {
		if lane := &q.lanes[l]; lane.n > 0 {
			n += lane.n
			if t := lane.front().enqueued; t.Before(oldest) {
				oldest = t
			}
		}
	}
	switch {
	case n == 0:
		return false, time.Time{}
	case n >= s.cfg.MaxBatch || q.ends > 0 || s.closed:
		return true, time.Time{}
	}
	end := oldest.Add(s.cfg.MaxDelay)
	return !now.Before(end), end
}

// pick returns the first due queue, looking round-robin from turn so no
// method starves another, or else the earliest end of a window some queue
// is still waiting out (zero when every queue is empty).
func (s *Server) pick(now time.Time) (*methodQueue, time.Time) {
	var wake time.Time
	for i := range s.order {
		q := s.order[(s.turn+i)%len(s.order)]
		due, end := s.due(q, now)
		if due {
			return q, time.Time{}
		}
		if !end.IsZero() && (wake.IsZero() || end.Before(wake)) {
			wake = end
		}
	}
	return nil, wake
}

// take moves up to MaxBatch rows from q to rows, the interactive lane
// strictly before the bulk lane, so a bulk backlog delays interactive
// work by no more than the pass in progress. A row whose context is
// already dead is answered on the spot and never joins the batch — and
// that goes on after the batch is full, for as long as the row at the
// front of a lane is dead: otherwise sustained interactive traffic would
// leave expired bulk rows pinning QueueDepth slots forever, converting
// capacity into spurious ErrOverloaded.
func (s *Server) take(q *methodQueue, rows []*request) []*request {
	for l := range q.lanes {
		for lane := &q.lanes[l]; lane.n > 0; {
			r := lane.front()
			err := r.u.ctx.Err()
			if err == nil && len(rows) == s.cfg.MaxBatch {
				break
			}
			lane.pop()
			if r.last {
				q.ends--
			}
			if err != nil {
				s.reply(r, result{err: s.dropStale(err)})
				continue
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// next is the batcher: it blocks until some queue is due and returns that
// queue, up to MaxBatch of its live rows (appended to rows), and when it
// took them. The queue is nil once the server is closed, no submission is
// still in progress, and the queues are drained. Nothing is due while
// rows are still waiting for companions; the worker then sleeps with
// timer set to the end of the earliest window.
func (s *Server) next(rows []*request, timer *time.Timer) (*methodQueue, []*request, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		now := time.Now()
		q, wake := s.pick(now)
		switch {
		case q != nil:
			s.turn = (q.slot + 1) % len(s.order)
			rows = s.take(q, rows)
			if more, _ := s.pick(now); more != nil {
				s.work.Signal()
			}
			if len(rows) > 0 {
				return q, rows, now
			}
			// Every row taken had been abandoned: look again.
		case s.closed && s.submitting == 0:
			return nil, nil, now // closing makes every row due, so the queues are empty
		default:
			if !wake.IsZero() {
				timer.Reset(wake.Sub(now))
			}
			s.work.Wait()
		}
	}
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

// run is one forward pass. A panicking model, or one that answers with
// anything but one row of the method's output width per input row, fails
// its own pass, like one that returned an error, instead of the process
// and with it every other model in the registry.
func (s *Server) run(method string, x *tensor.Matrix) (y *tensor.Matrix, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	y, err = s.model.Run(method, x)
	if err != nil {
		return nil, err
	}
	var rows, cols, vals int
	if y != nil {
		rows, cols, vals = y.Rows, y.Cols, len(y.Data)
	}
	if out := s.dims[method].Out; rows != x.Rows || cols != out || vals < rows*cols {
		return nil, fmt.Errorf("%s returned %dx%d over %d values, want %dx%d", method, rows, cols, vals, x.Rows, out)
	}
	return y, nil
}

// workerLoop takes what is due, assembles it into one matrix, runs it
// through the model's named method, and scatters the rows back to their
// units, until the server is closed and drained.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	// The timer ends this worker's sleep (and, harmlessly, every other
	// sleeper's) when a window it went to sleep on is over. It stays set
	// if other work wakes the worker first: the row still needs it.
	timer := time.AfterFunc(time.Hour, func() {
		s.mu.Lock() // not before the worker that set it is in Wait
		s.work.Broadcast()
		s.mu.Unlock()
	})
	timer.Stop()
	defer timer.Stop()
	var x tensor.Matrix // the gather matrix, reused for every pass
	rows := make([]*request, 0, s.cfg.MaxBatch)
	for {
		q, live, took := s.next(rows, timer)
		if q == nil {
			return
		}
		s.serve(q, live, took, &x)
		clear(live) // answered rows hold their callers' outputs
	}
}

// serve runs one batch, taken from q at took, and replies to every row.
func (s *Server) serve(q *methodQueue, rows []*request, took time.Time, x *tensor.Matrix) {
	gather(x, rows, s.dims[q.method].In)
	// Stage spans: a row's queue wait ended at took; assembly is the
	// gather; forward is the pass itself. The last two are per-batch
	// properties shared by every row's trace.
	fwdStart := time.Now()
	assembly := fwdStart.Sub(took)
	y, err := s.run(q.method, x)
	fwdDur := time.Since(fwdStart)
	s.stats.stageH[stageAssembly].Observe(assembly.Seconds())
	s.stats.stageH[stageForward].Observe(fwdDur.Seconds())
	if err != nil {
		// The model rejected a structurally valid batch: fail its
		// rows, not the server. The method set was checked at
		// admission, so this is an internal model failure.
		err = fmt.Errorf("%w: %v", ErrModelFailure, err)
		s.stats.failures.Add(int64(len(rows)))
		for _, r := range rows {
			s.reply(r, result{err: err})
		}
		return
	}
	s.stats.batch(len(rows))
	now := time.Now()
	for i, r := range rows {
		// Copy the row out of the batch matrix: a view would pin
		// all MaxBatch rows for as long as any caller retains its
		// result.
		out := make([]float32, y.Cols)
		copy(out, y.Row(i))
		wait := took.Sub(r.enqueued)
		s.stats.stageH[stageQueueWait].Observe(wait.Seconds())
		s.stats.request(q.slot, r.u.class, now.Sub(r.enqueued))
		s.reply(r, result{y: out, trace: Trace{
			QueueWait: wait,
			Assembly:  assembly,
			Forward:   fwdDur,
			Batch:     len(rows),
		}})
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
// in rows per second — ProbeResult.QPS from the CostProbe Open runs
// when it loads a model. It surfaces as capacity_qps on the stats route
// and on /healthz, where a fleet router (cmd/jagproxy) reads it to
// weight its routing, and on /metrics as jag_capacity_qps. Zero means
// "not probed".
func (s *Server) SetCapacityQPS(qps float64) {
	if qps < 0 || math.IsNaN(qps) || math.IsInf(qps, 0) {
		qps = 0
	}
	s.capacity.Store(math.Float64bits(qps))
}

// CapacityQPS returns the probed sustainable row rate, 0 until a probe
// published one via SetCapacityQPS.
func (s *Server) CapacityQPS() float64 { return math.Float64frombits(s.capacity.Load()) }

// Close drains the pipeline and releases the workers. Submissions that
// began before Close finish on this server, every chunk of them (stale
// rows are still dropped unserved); later ones return ErrClosed. Close
// waits for the passes over those rows, never for what a caller does
// with the answers. Calling it again is harmless.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.work.Broadcast()
	s.wg.Wait()
}
