// Package comm is an in-process message-passing library modelled on the
// MPI/Aluminum layer of the paper's software stack (Figure 3). Ranks are
// goroutines; each rank holds a Comm handle through which it sends and
// receives tagged messages and participates in collectives (ring allreduce,
// broadcast, barrier) and communicator splits. Every receive blocks; there
// is no non-blocking primitive until something overlaps with it (ROADMAP
// direction 2(b)).
//
// The semantics follow MPI where it matters to the reproduction:
//
//   - Point-to-point messages are matched by (source, tag) with the MPI
//     non-overtaking guarantee: two messages from the same source with the
//     same tag arrive in send order. Every receive names its source and its
//     tag; there is no MPI_ANY_SOURCE or MPI_ANY_TAG, because no exchange
//     of the reproduction waits for whichever peer speaks first.
//   - Sends are eager and buffered: Send never blocks, so Sendrecv-style
//     exchanges (the LTFB generator swap) cannot deadlock.
//   - Collectives must be called by every rank of a communicator in the same
//     order, exactly like MPI.
//   - A failing rank ends its world, as under MPI's default error handler:
//     a rank that cannot go on calls Abort (or panics), and every rank
//     waiting on it, or blocking later, is released by a panic that
//     World.Run turns back into the first failure. No protocol needs an
//     escape of its own for a peer that will never speak.
//
// Allreduce uses the ring algorithm (reduce-scatter + allgather), the same
// family NCCL/Aluminum use on NVLink/InfiniBand; a naive gather+broadcast
// variant is retained for the ablation benchmarks.
package comm

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// message is one in-flight point-to-point payload. Exactly one of floats and
// bytes is non-nil.
type message struct {
	src    int // global source rank
	tag    int
	floats []float32
	bytes  []byte
}

// mailbox buffers unmatched messages for one global rank.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	dead bool // the world aborted: a get will never be matched
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// get blocks until a message from global rank src with tag is available and
// removes it; ok is false once the world has been aborted. Scanning
// front-to-back preserves the non-overtaking order.
func (m *mailbox) get(src, tag int) (msg message, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.dead {
		for i, msg := range m.msgs {
			if msg.src == src && msg.tag == tag {
				m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
				return msg, true
			}
		}
		m.cond.Wait()
	}
	return message{}, false
}

func (m *mailbox) abort() {
	m.mu.Lock()
	m.dead = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// aborted is what a rank blocked in a receive or a rendezvous panics with
// after another rank of its World has panicked or aborted: that rank will
// never send, and World.Run reports its failure, not this one.
type aborted struct{}

// World is the set of all ranks in a run — the analogue of MPI_COMM_WORLD's
// underlying process set. Create one per training job with NewWorld.
type World struct {
	size      int
	mailboxes []*mailbox

	mu     sync.Mutex
	coords map[string]*coord // one per communicator, shared by its rank handles
	failed bool              // a rank panicked or aborted: every blocking call now panics
	rank   int               // the first rank that did,
	cause  any               // what it panicked with,
	err    error             // or the error it aborted with
}

// NewWorld creates a world with n ranks. It panics if n < 1.
func NewWorld(n int) *World {
	if n < 1 {
		panic(fmt.Sprintf("comm: world size %d < 1", n))
	}
	w := &World{size: n, mailboxes: make([]*mailbox, n), coords: map[string]*coord{}}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox()
	}
	return w
}

// coordFor returns the coordination structure of the communicator named key,
// creating it on the first rank's request.
func (w *World) coordFor(key string, size int) *coord {
	w.mu.Lock()
	defer w.mu.Unlock()
	c, ok := w.coords[key]
	if !ok {
		c = newCoord(size)
		c.dead = w.failed
		w.coords[key] = c
	}
	return c
}

// abort records the first failure of a rank, a panic's cause or an
// Abort's err, and wakes every rank blocked on a message or a rendezvous,
// which then panics with aborted in its turn.
func (w *World) abort(rank int, cause any, err error) {
	if _, secondary := cause.(aborted); secondary {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return
	}
	w.failed, w.rank, w.cause, w.err = true, rank, cause, err
	for _, m := range w.mailboxes {
		m.abort()
	}
	for _, c := range w.coords {
		c.abort()
	}
}

// Comm returns the world communicator handle for global rank r. Each rank
// goroutine must use only its own handle.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("comm: rank %d outside world of size %d", r, w.size))
	}
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{world: w, rank: r, group: group, coord: w.coordFor("world", w.size)}
}

// Run spawns fn on one goroutine per rank, passing each its world
// communicator, and blocks until all return. For that long the ranks count
// as sharing the process's cores (parallel.AddRanks). A rank that calls
// Abort, or panics, ends the world: ranks blocked waiting for it, and ranks
// that block later, panic with aborted instead of waiting for ever. Run
// then returns the error of the first rank that aborted, or re-raises the
// first panic in the caller with the rank attached.
func (w *World) Run(fn func(c *Comm)) error {
	parallel.AddRanks(w.size)
	defer parallel.AddRanks(-w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.abort(rank, p, nil)
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	if w.failed && w.err == nil {
		panic(fmt.Sprintf("comm: rank %d panicked: %v", w.rank, w.cause))
	}
	return w.err
}

// Comm is one rank's handle on a communicator: a subset of world ranks with
// its own rank numbering, like an MPI communicator. Handles are cheap; each
// rank owns one per communicator and must not share it across goroutines.
type Comm struct {
	world *World
	rank  int   // local rank within group
	group []int // local rank -> global rank
	coord *coord
	seq   int // collective sequence number, advances identically on all ranks
	// spare is the ring-segment buffer this rank was left holding by its
	// last allreduce; the next one sends in it (see AllreduceSum).
	spare []float32
}

// Abort ends the world the calling rank belongs to, as MPI_Abort does:
// every rank blocked in a receive or a rendezvous, and every rank that
// blocks later, panics with aborted, and World.Run returns err, the first
// aborting rank's if several abort. err must not be nil. The caller
// returns from its rank after Abort; a world cannot be resumed.
func (c *Comm) Abort(err error) { c.world.abort(c.group[c.rank], nil, err) }

// Rank returns the caller's rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.group) }

// Send delivers a copy of data to local rank dst with the given tag. It
// never blocks. Tags must be non-negative; negative tags are reserved for
// collectives.
func (c *Comm) Send(dst, tag int, data []float32) {
	c.checkUserTag(tag)
	c.sendRaw(dst, tag, append([]float32(nil), data...), nil)
}

// SendBytes delivers a copy of data to local rank dst with the given tag.
func (c *Comm) SendBytes(dst, tag int, data []byte) {
	c.checkUserTag(tag)
	c.sendRaw(dst, tag, nil, append([]byte(nil), data...))
}

func (c *Comm) sendRaw(dst, tag int, floats []float32, bytes []byte) {
	g := c.group[dst]
	c.world.mailboxes[g].put(message{src: c.group[c.rank], tag: tag, floats: floats, bytes: bytes})
}

// Recv blocks until a float payload from local rank src with the given tag
// arrives and returns it. Receiving a byte payload with Recv is a
// programming error and panics.
func (c *Comm) Recv(src, tag int) []float32 {
	msg := c.recvRaw(src, tag)
	if msg.bytes != nil {
		panic(fmt.Sprintf("comm: Recv matched a byte message (src=%d tag=%d); use RecvBytes", msg.src, msg.tag))
	}
	return msg.floats
}

// RecvBytes blocks until a byte payload from local rank src with the given
// tag arrives.
func (c *Comm) RecvBytes(src, tag int) []byte {
	msg := c.recvRaw(src, tag)
	if msg.floats != nil {
		panic(fmt.Sprintf("comm: RecvBytes matched a float message (src=%d tag=%d); use Recv", msg.src, msg.tag))
	}
	return msg.bytes
}

func (c *Comm) recvRaw(src, tag int) message {
	msg, ok := c.world.mailboxes[c.group[c.rank]].get(c.group[src], tag)
	if !ok {
		panic(aborted{})
	}
	return msg
}

// SendrecvBytes sends sendData to dst and receives from src with the same
// tag — the primitive behind the LTFB pairwise generator exchange. Eager
// sends make it deadlock-free even when both sides target each other.
func (c *Comm) SendrecvBytes(dst int, sendData []byte, src, tag int) []byte {
	c.SendBytes(dst, tag, sendData)
	return c.RecvBytes(src, tag)
}

func (c *Comm) checkUserTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("comm: user tag %d must be non-negative", tag))
	}
}

// nextCollTag reserves a block of negative tags for the next collective.
// Every rank calls collectives in the same order, so sequence numbers agree.
func (c *Comm) nextCollTag() int {
	c.seq++
	return -c.seq * collTagStride
}

// collTagStride bounds the number of distinct tags a single collective may
// use (steps of a ring, fan-in rounds, etc.).
const collTagStride = 1 << 16
