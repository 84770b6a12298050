// Package des is a deterministic discrete-event simulation kernel. The
// reproduction uses it to model the systems side of the paper's evaluation —
// parallel file-system contention, data-store population, and epoch
// timelines — in virtual time, since the physical Lassen machine is not
// available (see README.md's package map for the substitution rationale).
//
// Events fire in non-decreasing time order; ties break by scheduling order,
// so a simulation is a pure function of its inputs. Callbacks run on the
// caller's goroutine inside Run; they may schedule further events.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is one simulation instance. The zero value is not usable; call New.
type Sim struct {
	now   float64
	seq   int64
	queue eventHeap
}

// New returns an empty simulation at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At runs fn at absolute time t, which must not precede Now().
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: cannot schedule at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, &event{time: t, seq: s.seq, fn: fn})
}

// Run processes events until the queue is empty and returns the final time.
func (s *Sim) Run() float64 {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.time
		ev.fn()
	}
	return s.now
}

type event struct {
	time float64
	seq  int64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Server is a FIFO resource with a fixed number of identical service
// channels (e.g. one OST with k parallel I/O threads). Submit enqueues a
// job with a service duration; the job starts when a channel frees up and
// done fires at completion. Jobs start in submission order.
type Server struct {
	sim    *Sim
	freeAt []float64
	// InFlight counts jobs submitted but not yet completed; resource models
	// use it as the instantaneous load for contention effects.
	InFlight int
}

// NewServer creates a server with the given parallel capacity attached to
// sim. Capacity must be ≥ 1.
func NewServer(sim *Sim, capacity int) *Server {
	if capacity < 1 {
		panic(fmt.Sprintf("des: server capacity %d < 1", capacity))
	}
	return &Server{sim: sim, freeAt: make([]float64, capacity)}
}

// Submit enqueues a job taking dur seconds of service time. done (optional)
// fires at the completion instant with the start and end times.
func (sv *Server) Submit(dur float64, done func(start, end float64)) {
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("des: invalid service duration %v", dur))
	}
	// Pick the channel that frees earliest.
	best := 0
	for i, t := range sv.freeAt {
		if t < sv.freeAt[best] {
			best = i
		}
	}
	start := sv.freeAt[best]
	if start < sv.sim.now {
		start = sv.sim.now
	}
	end := start + dur
	sv.freeAt[best] = end
	sv.InFlight++
	sv.sim.At(end, func() {
		sv.InFlight--
		if done != nil {
			done(start, end)
		}
	})
}
