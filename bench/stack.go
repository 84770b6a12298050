package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// modelDef is one served surrogate: random-initialised from a fixed
// seed, saved, and re-loaded through the checkpoint path. Serving cost
// depends on the geometry, not on the weight values.
type modelDef struct {
	name string
	geom jag.Config
}

var (
	tiny8   = modelDef{"tiny8", jag.Tiny8}       // 399 outputs
	small16 = modelDef{"small16", jag.Small16}   // 3 087 outputs
	paper64 = modelDef{"paper64", jag.Default64} // the paper's geometry: 49 167 outputs
)

// modelSeed initialises every served model's weights.
const modelSeed = 20190923

// The flag defaults cmd/jagserve ships with; the numbers measured here
// are the ones an operator who changes nothing would see.
const serveMaxBatch = 64

var serveDefaults = serve.Config{MaxBatch: serveMaxBatch, MaxDelay: 2 * time.Millisecond, CacheSize: 1024}

// flushWindowMs is the part of a call's latency the server's flush
// timer sets, whatever the host's speed.
var flushWindowMs = ms(serveDefaults.MaxDelay)

// probeClockS is the part of one serve.CostProbe its own clock sets: it
// samples each of its two batch sizes for at least 150 ms, however many
// passes fit.
const probeClockS = 0.3

// tracedModel is the serve.Model the traced run puts between the
// batching queue and the pool: one serve_pool.run span per forward
// pass, carrying its row count. Embedding *serve.Pool forwards
// Replicas() and Ensemble(), which NewServer and /v1/models look for.
type tracedModel struct {
	*serve.Pool
	tr   *tracer
	name string
}

func (m tracedModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	id, start := m.tr.begin()
	y, err := m.Pool.Run(method, x)
	if id != 0 {
		m.tr.end(span{ID: id, Name: spanPoolRun, StartNs: start, Rows: x.Rows, Model: m.name, Method: method})
	}
	return y, err
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
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
	return w.ResponseWriter.Write(p)
}

// traceHandler records one span per call request that carries the
// generator's X-Request-Id. Around jagserve's handler it also copies
// the request's Server-Timing stage decomposition onto the span.
func traceHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get(serve.RequestIDHeader)
		if traceID == "" || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		id, start := tr.begin()
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s := span{ID: id, Name: name, StartNs: start, TraceID: traceID, Status: sw.status}
		if name == spanServeHTTP {
			parseServerTiming(w.Header().Get("Server-Timing"), &s)
		}
		tr.end(s)
	})
}

// parseServerTiming reads jagserve's stage spans
// ("queue_wait;dur=1.234, batch_assembly;dur=…, forward;dur=…" in
// milliseconds, or cache;desc="hit") into s.
func parseServerTiming(h string, s *span) {
	for _, part := range strings.Split(h, ", ") {
		name, rest, _ := strings.Cut(part, ";")
		if name == "cache" {
			s.CacheHit = true
			continue
		}
		v, ok := strings.CutPrefix(rest, "dur=")
		if !ok {
			continue
		}
		msec, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		ns := int64(msec * 1e6)
		switch name {
		case serve.StageQueueWait:
			s.QueueWaitNs = ns
		case serve.StageAssembly:
			s.AssemblyNs = ns
		case serve.StageForward:
			s.ForwardNs = ns
		}
	}
}

// listener is one HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		// Serve returns ErrServerClosed after Shutdown; any other error
		// surfaces as failed calls in the run.
		_ = l.hs.Serve(ln)
	}()
	return l, nil
}

func (l *listener) shutdown(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		// Stragglers past the drain deadline: cut them off.
		l.hs.Close()
	}
	<-l.done
}

// backend is one in-process jagserve: a registry of servers behind the
// v1 handler on a real loopback listener.
type backend struct {
	reg     *serve.Registry
	servers []*serve.Server
	*listener
}

// stack is everything a serving workload runs against.
type stack struct {
	dir       string
	backends  []*backend
	proxy     *proxy.Proxy
	front     *listener // jagproxy's listener; nil when the workload calls jagserve directly
	stopProxy context.CancelFunc
	url       string // what the generators call
	workers   int    // forward-pass workers across all backends
	// cacheModel indexes the first connection's model in each backend's
	// server list; see serveCounters.
	cacheModel int
	// refs are bench-held clones of the served checkpoints; the output
	// checks compare served rows against them bit for bit.
	refs map[string]*cyclegan.Surrogate
	cfgs map[string]cyclegan.Config

	ckptSaveMs, ckptLoadMs, ckptBytes, probeMs float64
	// clockS is how much of bringing the tier up was set by a clock and
	// not by the host's speed: the cost probes' sampling budgets.
	clockS float64
}

// buildStack brings a workload's serving tier up the way the CLIs do:
// checkpoint.Save + serve.SaveSpec, then per backend ResolveSpec →
// NewPoolFromCheckpoints → CostProbe/SetCapacityQPS → NewServer →
// NewRegistryHandler on a loopback listener, then proxy.New/Start in
// front when the workload goes through jagproxy. With a tracer the
// bench's wrappers sit at the handler and model interfaces.
func buildStack(ctx context.Context, dir string, w servingWorkload, tr *tracer) (st *stack, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st = &stack{dir: dir, refs: map[string]*cyclegan.Surrogate{}, cfgs: map[string]cyclegan.Config{}}
	defer func() {
		if err != nil {
			st.close(ctx)
		}
	}()
	paths := make([]string, len(w.models))
	for i, md := range w.models {
		if md.name == w.conns[0].model {
			st.cacheModel = i
		}
		cfg := cyclegan.DefaultConfig(md.geom)
		paths[i] = filepath.Join(dir, md.name+".ckpt")
		t0 := time.Now()
		if err := checkpoint.Save(paths[i], 0, cyclegan.New(cfg, modelSeed+int64(i)).Nets()); err != nil {
			return st, err
		}
		st.ckptSaveMs += ms(time.Since(t0))
		if err := serve.SaveSpec(serve.SpecPath(paths[i]), serve.ModelSpec{Model: cfg, Checkpoints: []string{md.name + ".ckpt"}}); err != nil {
			return st, err
		}
		ref := cyclegan.New(cfg, 0)
		t0 = time.Now()
		if _, err := checkpoint.Load(paths[i], ref.Nets()); err != nil {
			return st, err
		}
		st.ckptLoadMs += ms(time.Since(t0))
		info, err := os.Stat(paths[i])
		if err != nil {
			return st, err
		}
		st.ckptBytes += float64(info.Size())
		st.refs[md.name], st.cfgs[md.name] = ref, cfg
	}

	var urls []string
	for b := 0; b < w.backends; b++ {
		be := &backend{reg: serve.NewRegistry()}
		st.backends = append(st.backends, be)
		for i, md := range w.models {
			spec, err := serve.ResolveSpec(paths[i])
			if err != nil {
				return st, err
			}
			pool, err := serve.NewPoolFromCheckpoints(spec.Model, spec.Checkpoints, 1, false)
			if err != nil {
				return st, err
			}
			var model serve.Model = pool
			if tr != nil {
				model = tracedModel{Pool: pool, tr: tr, name: md.name}
			}
			srv := serve.NewServer(model, serveDefaults)
			be.servers = append(be.servers, srv)
			st.workers += pool.Replicas()
			if err := be.reg.Register(md.name, srv); err != nil {
				return st, err
			}
			t0 := time.Now()
			probe, err := serve.CostProbe(pool, serve.MethodPredict, serveMaxBatch)
			if err != nil {
				return st, err
			}
			st.probeMs += ms(time.Since(t0))
			st.clockS += min(time.Since(t0).Seconds(), probeClockS)
			srv.SetCapacityQPS(probe.QPS(serveMaxBatch, pool.Replicas()))
		}
		h := serve.NewRegistryHandler(be.reg, serve.HandlerConfig{})
		if tr != nil {
			h = traceHandler(tr, spanServeHTTP, h)
		}
		if be.listener, err = listen(h); err != nil {
			return st, err
		}
		urls = append(urls, be.url)
	}
	st.url = urls[0]
	if !w.proxy {
		return st, nil
	}

	if st.proxy, err = proxy.New(urls, proxy.Config{}); err != nil {
		return st, err
	}
	pctx, cancel := context.WithCancel(ctx)
	st.stopProxy = cancel
	st.proxy.Start(pctx) // one synchronous health + capacity sweep, then the maintenance loop
	for _, b := range st.proxy.Backends() {
		if !b.Healthy() || b.CapacityQPS() <= 0 {
			return st, fmt.Errorf("proxy sees backend %s healthy=%t capacity=%g after its first sweep", b.Name(), b.Healthy(), b.CapacityQPS())
		}
	}
	var h http.Handler = st.proxy
	if tr != nil {
		h = traceHandler(tr, spanProxy, h)
	}
	if st.front, err = listen(h); err != nil {
		return st, err
	}
	st.url = st.front.url
	return st, nil
}

// close stops the tier front to back and removes its checkpoints.
func (st *stack) close(ctx context.Context) {
	if st.front != nil {
		st.front.shutdown(ctx)
	}
	if st.stopProxy != nil {
		st.stopProxy()
	}
	for _, be := range st.backends {
		if be.listener != nil {
			be.shutdown(ctx)
		}
		be.reg.Close()
	}
	if err := os.RemoveAll(st.dir); err != nil && !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, "bench: removing", st.dir, err)
	}
}

// serveCounters are the StatsSnapshot counters the per-layer metrics
// difference over a window, summed across every server of the tier —
// except the cache counters, which are those of the first connection's
// model only: the LRU is the layer that connection's repeated design
// points exercise, and a bulk sweep of fresh rows beside it would
// drown its hit ratio in misses.
type serveCounters struct {
	batches, batchRows            float64
	overloads, expired, cancelled float64
	cacheHits, cacheMisses        float64
}

func (st *stack) counters() serveCounters {
	var c serveCounters
	for _, be := range st.backends {
		for i, srv := range be.servers {
			s := srv.Stats()
			c.batches += float64(s.Batches)
			c.batchRows += float64(s.Batches) * s.MeanBatch
			c.overloads += float64(s.Overloads)
			c.expired += float64(s.Expired)
			c.cancelled += float64(s.Cancelled)
			if i == st.cacheModel {
				c.cacheHits += float64(s.CacheHits)
				c.cacheMisses += float64(s.CacheMisses)
			}
		}
	}
	return c
}

// proxyCounters reads the jag_proxy_* counters off the proxy's own
// exposition: attempts per backend, retries and hedges.
type proxyCounters struct {
	perBackend      map[string]float64
	retries, hedges float64
}

func (st *stack) proxyCounters() proxyCounters {
	pc := proxyCounters{perBackend: map[string]float64{}}
	if st.proxy == nil {
		return pc
	}
	var sb strings.Builder
	if err := st.proxy.Metrics().WritePrometheus(&sb); err != nil {
		return pc
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case series == "jag_proxy_retries_total":
			pc.retries = v
		case series == "jag_proxy_hedges_total":
			pc.hedges = v
		case strings.HasPrefix(series, "jag_proxy_requests_total{"):
			_, rest, _ := strings.Cut(series, `backend="`)
			name, _, _ := strings.Cut(rest, `"`)
			pc.perBackend[name] += v
		}
	}
	return pc
}
