package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry maps model names to independently configured Servers — one
// process serving several surrogates (per-geometry, per-campaign, or
// top-k ensembles side by side), each with its own pool, batching
// queues, cache, and stats.
//
// Beyond lookup, the registry is the hot-reload point: Replace
// atomically swaps the server behind a name, so a long-running process
// picks up new LTFB tournament winners without dropping traffic. The
// displaced server closes, finishing the submissions already on it, and
// a request that looked the name up before the swap but reaches the old
// server after it closed is resubmitted whole to the successor (submit).
// No swap waits on a client, and no client sees an error across one.
// Every name carries a generation counter (1 at Register, +1 per
// Replace) that the HTTP surface reports in stats and health.
type Registry struct {
	mu      sync.RWMutex
	servers map[string]regEntry
	closed  bool
	// httpPanics counts the handler panics the v1 surface answered with a
	// 500. They belong to no model (the listing and health routes can
	// panic too), so the count lives here rather than in a server's Stats.
	httpPanics atomic.Int64
}

// regEntry is one registered server, the name's swap generation, and
// the Reloader watching the name (nil when nothing does).
type regEntry struct {
	srv *Server
	gen int64
	rl  *Reloader
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{servers: make(map[string]regEntry)}
}

// validModelName reports whether name is usable as the {name} path
// segment of the v1 API: non-empty, URL-safe without escaping, and
// unambiguous in logs (letters, digits, '.', '_', '-'; must start with
// a letter or digit).
func validModelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// Register adds a named server at generation 1. The name must be
// URL-safe ([A-Za-z0-9][A-Za-z0-9._-]*) and not already taken.
func (r *Registry) Register(name string, s *Server) error { return r.register(name, s, nil) }

// register adds a named server with its watcher, if any (NewReloader).
func (r *Registry) register(name string, s *Server, rl *Reloader) error {
	if !validModelName(name) {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	if s == nil {
		return fmt.Errorf("serve: nil server for model %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("serve: cannot register %q: registry closed", name)
	}
	if _, ok := r.servers[name]; ok {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	r.servers[name] = regEntry{srv: s, gen: 1, rl: rl}
	return nil
}

// Replace atomically swaps the server behind an already-registered
// name: lookups after the swap return s, the name's generation
// increments, and the displaced server is closed. Replace returns once
// it is drained: the submissions that began on it have every row
// answered, by the old model. It waits for those passes only, never for
// a client to read its reply. The new server must be open and distinct
// from the current one; on any error the registration is untouched.
func (r *Registry) Replace(name string, s *Server) error {
	if s == nil {
		return fmt.Errorf("serve: nil replacement server for model %q", name)
	}
	if s.Closed() {
		return fmt.Errorf("serve: replacement server for model %q is already closed", name)
	}
	r.mu.Lock()
	if r.closed {
		// A swap racing shutdown (e.g. a Reloader check already past
		// its cancellation point) must not slip a live server into a
		// closed registry; the caller still owns s and closes it.
		r.mu.Unlock()
		return fmt.Errorf("serve: cannot replace model %q: registry closed", name)
	}
	old, ok := r.servers[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("serve: cannot replace unregistered model %q", name)
	}
	if old.srv == s {
		r.mu.Unlock()
		return fmt.Errorf("serve: model %q replaced with itself", name)
	}
	r.servers[name] = regEntry{srv: s, gen: old.gen + 1, rl: old.rl}
	r.mu.Unlock()
	old.srv.Close()
	return nil
}

// Get returns the named server. A concurrent Replace may close it at any
// moment; a caller that submits rows to it does so through submit, which
// follows the name to the successor.
func (r *Registry) Get(name string) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.servers[name]
	if !ok {
		return nil, false
	}
	return e.srv, true
}

// submit runs a request's rows on s, the server name resolved to when the
// caller looked it up, and returns the server that answered them. A swap
// that closed s in between makes s refuse the request whole; it is then
// resubmitted whole to whatever name resolves to now, until a server
// takes it or name resolves to that same server or to nothing (a closed
// registry: the rows keep ErrClosed).
func (r *Registry) submit(ctx context.Context, name string, s *Server, method string, class Priority, complete bool,
	xs, ys [][]float32, traces []Trace, errs []error) *Server {
	for !s.submit(ctx, method, class, complete, xs, ys, traces, errs) {
		next, ok := r.Get(name)
		if !ok || next == s {
			break
		}
		s = next
	}
	return s
}

// Generation returns the name's swap generation: 1 from Register,
// incremented by every successful Replace. Unregistered names report 0.
func (r *Registry) Generation(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.servers[name]; ok {
		return e.gen
	}
	return 0
}

// Names returns the registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.servers))
	for n := range r.servers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.servers)
}

// ReloadState reports the watching reloader's state for a name; ok is
// false when the name has no reloader.
func (r *Registry) ReloadState(name string) (ReloadState, bool) {
	r.mu.RLock()
	e := r.servers[name]
	r.mu.RUnlock()
	if e.rl == nil {
		return ReloadState{}, false
	}
	return e.rl.State(), true
}

// Close shuts down every registered server, draining their pipelines.
// Close is terminal: later Register and Replace calls fail, so a
// Replace racing shutdown (e.g. a Reloader check already in flight
// when its Run context was cancelled) cannot slip a live server into
// the closed registry — the rejected caller closes its own server.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	servers := make([]*Server, 0, len(r.servers))
	for _, e := range r.servers {
		servers = append(servers, e.srv)
	}
	r.mu.Unlock()
	for _, s := range servers {
		s.Close()
	}
}
