package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The serving chain nests client.call ⊃ proxy.handle ⊃
// serve_http.handle under one trace_id (the X-Request-Id); serve_pool.run
// is per batch and therefore a root. The training chain nests
// train.round ⊃ trainer.advance ⊃ cyclegan.train_step ⊃ comm.allreduce,
// with ltfb.tournament and trainer.evaluate as children of the round.
const (
	spanClientCall = "client.call"
	spanProxy      = "proxy.handle"
	spanServeHTTP  = "serve_http.handle"
	spanPoolRun    = "serve_pool.run"
	spanRound      = "train.round"
	spanAdvance    = "trainer.advance"
	spanTrainStep  = "cyclegan.train_step"
	spanAllreduce  = "comm.allreduce"
	spanTournament = "ltfb.tournament"
	spanEvaluate   = "trainer.evaluate"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"` // 0 for a root
	TraceID string `json:"trace_id,omitempty"`
	Rows    int    `json:"rows,omitempty"`
	Rank    int    `json:"rank,omitempty"`  // training: world rank; client.call: generator connection
	Model   string `json:"model,omitempty"` // client.call, serve_pool.run
	Method  string `json:"method,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"` // comm.allreduce: gradient payload
	Status  int    `json:"status,omitempty"`
	// The stage decomposition jagserve reports for the request in its
	// Server-Timing header, copied onto the serve_http.handle span.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	AssemblyNs  int64 `json:"assembly_ns,omitempty"`
	ForwardNs   int64 `json:"forward_ns,omitempty"`
	CacheHit    bool  `json:"cache_hit,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the workload ends. A wrapper asks
// begin() when its interval starts; a zero reply means tracing is off
// and the wrapper records nothing, so a span is kept only if it started
// while tracing was on.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin allocates a span ID, or returns 0 when tracing is off.
func (t *tracer) begin() (id, startNs int64) {
	if t == nil || !t.on.Load() {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

// end records a span begun with begin.
func (t *tracer) end(s span) {
	s.EndNs = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// httpParent is the layer outside each serving span, innermost first.
var httpParent = map[string][]string{
	spanProxy:     {spanClientCall},
	spanServeHTTP: {spanProxy, spanClientCall},
}

// finish links the serving chain — whose layers only share a trace_id
// across the HTTP hops — by parent ID, and drops chain spans whose
// client.call started before tracing was switched on.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byTrace := map[string]map[string]int64{}
	for _, s := range t.spans {
		if s.Name != spanClientCall && s.Name != spanProxy {
			continue
		}
		if byTrace[s.TraceID] == nil {
			byTrace[s.TraceID] = map[string]int64{}
		}
		byTrace[s.TraceID][s.Name] = s.ID
	}
	kept := t.spans[:0]
	for _, s := range t.spans {
		if outer, ok := httpParent[s.Name]; ok {
			for _, name := range outer {
				if id := byTrace[s.TraceID][name]; id != 0 {
					s.Parent = id
					break
				}
			}
			if s.Parent == 0 || byTrace[s.TraceID][spanClientCall] == 0 {
				continue
			}
		}
		kept = append(kept, s)
	}
	t.spans = kept
	return kept
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func durations(spans []span, scale float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() / scale
	}
	return out
}
