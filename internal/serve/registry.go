package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry maps model names to independently configured Servers — one
// process serving several surrogates (per-geometry, per-campaign, or
// top-k ensembles side by side), each with its own pool, batching
// queues, cache, and stats.
//
// Beyond lookup, the registry is the hot-reload point: Replace
// atomically swaps the server behind a name, so a long-running process
// picks up new LTFB tournament winners without dropping traffic. The
// swap protocol is reference-counted — callers that hold a server
// across a multi-row call use Acquire, and Replace drains those
// references before closing the displaced server — so an in-flight
// request never observes ErrClosed because of a reload. Every name
// carries a generation counter (1 at Register, +1 per Replace) that
// the HTTP surface reports in stats and health.
type Registry struct {
	mu       sync.RWMutex
	servers  map[string]*regEntry
	watchers map[string]*Reloader
	closed   bool
	// drainDeadline bounds how long Replace waits for Acquire holders
	// before force-closing the displaced server; 0 waits forever.
	drainDeadline time.Duration
	// forcedCloses counts, per name, the Replace drains that hit the
	// deadline and closed the old server out from under its holders.
	forcedCloses map[string]int64
	// httpPanics counts the handler panics the v1 surface answered with a
	// 500. They belong to no model (the listing and health routes can
	// panic too), so the count lives here rather than in a server's Stats.
	httpPanics atomic.Int64
}

// regEntry is one registered server plus the bookkeeping Replace needs:
// the reference count of in-flight Acquire holders and the name's swap
// generation.
type regEntry struct {
	srv *Server
	gen int64
	// refs counts Acquire holders. Adds happen under the registry read
	// lock while the entry is still reachable, so by the time Replace
	// (which swaps the entry out under the write lock) calls Wait, no
	// new holder can appear.
	refs sync.WaitGroup
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		servers:      make(map[string]*regEntry),
		watchers:     make(map[string]*Reloader),
		forcedCloses: make(map[string]int64),
	}
}

// SetDrainDeadline bounds the drain phase of every later Replace: if
// Acquire holders of the displaced server have not all released it
// within d, the server is closed anyway — stragglers' in-flight Calls
// fail with ErrClosed and the forced close is counted (ForcedCloses,
// surfaced as forced_closes in the per-model stats). The zero value
// restores the default of waiting indefinitely.
//
// This is the availability-vs-correctness trade of a rolling deploy: an
// unbounded drain can never fail a request, but one stuck caller (a
// client that never reads its response, a bulk sweep with no deadline)
// then pins the old generation — and its memory — forever. A bounded
// drain guarantees the swap finishes; the cost is that requests still
// riding the old server past the deadline are cut off.
func (r *Registry) SetDrainDeadline(d time.Duration) {
	r.mu.Lock()
	r.drainDeadline = d
	r.mu.Unlock()
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
func (r *Registry) Register(name string, s *Server) error {
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
	r.servers[name] = &regEntry{srv: s, gen: 1}
	return nil
}

// Replace atomically swaps the server behind an already-registered
// name: requests admitted after Replace route to s, the name's
// generation increments, and the displaced server is drained — Replace
// blocks until every Acquire holder has released it and its in-flight
// batches have completed — then closed. When a drain deadline is set
// (SetDrainDeadline), the wait is bounded: holders that outlive it are
// force-closed and counted. The new server must be open and distinct
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
	r.servers[name] = &regEntry{srv: s, gen: old.gen + 1}
	deadline := r.drainDeadline
	r.mu.Unlock()

	// The old entry is unreachable now, so its refcount can only fall.
	// Wait for the last holder, then drain the pipeline: requests the
	// holders already admitted complete against the old model. With a
	// drain deadline set, a holder that outlives it is not waited for:
	// the old server closes anyway (its remaining Calls fail with
	// ErrClosed) so a stuck caller cannot pin the displaced generation
	// forever. The waiting goroutine lives until the last straggler
	// releases — bounded by the holders' own lifetimes.
	if deadline <= 0 {
		old.refs.Wait()
	} else {
		released := make(chan struct{})
		go func() {
			old.refs.Wait()
			close(released)
		}()
		timer := time.NewTimer(deadline)
		select {
		case <-released:
			timer.Stop()
		case <-timer.C:
			r.mu.Lock()
			r.forcedCloses[name]++
			r.mu.Unlock()
		}
	}
	old.srv.Close()
	return nil
}

// ForcedCloses returns how many Replace drains for name hit the drain
// deadline and force-closed the displaced server (see SetDrainDeadline).
func (r *Registry) ForcedCloses(name string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.forcedCloses[name]
}

// Get returns the named server. The snapshot is not protected against
// a concurrent Replace — a caller that submits requests to the server
// should use Acquire instead, so a swap drains it first. Get is for
// read-only peeks (listings, stats) where racing a swap is harmless.
func (r *Registry) Get(name string) (*Server, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.servers[name]
	if !ok {
		return nil, false
	}
	return e.srv, true
}

// Acquire returns the named server pinned against hot swaps: a
// concurrent Replace routes new work elsewhere immediately but will
// not close this server until release is called. Callers must call
// release exactly once, after their last use of the server; release is
// idempotent so a defer is always safe.
func (r *Registry) Acquire(name string) (s *Server, release func(), ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.servers[name]
	if !ok {
		return nil, nil, false
	}
	return e.srv, e.releaseFunc(), true
}

// releaseFunc takes one reference on the entry and returns the
// idempotent closure that drops it. Callers hold the registry lock.
func (e *regEntry) releaseFunc() func() {
	e.refs.Add(1)
	var once sync.Once
	return func() { once.Do(e.refs.Done) }
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

// attachWatcher records the reloader watching a name, so the health
// surface can report reload state next to readiness. One watcher per
// name; NewReloader calls this.
func (r *Registry) attachWatcher(name string, rl *Reloader) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.servers[name]; !ok {
		return fmt.Errorf("serve: cannot watch unregistered model %q", name)
	}
	if _, ok := r.watchers[name]; ok {
		return fmt.Errorf("serve: model %q already has a reloader", name)
	}
	r.watchers[name] = rl
	return nil
}

// ReloadState reports the watching reloader's state for a name; ok is
// false when the name has no reloader attached.
func (r *Registry) ReloadState(name string) (ReloadState, bool) {
	r.mu.RLock()
	rl, ok := r.watchers[name]
	r.mu.RUnlock()
	if !ok {
		return ReloadState{}, false
	}
	return rl.State(), true
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
