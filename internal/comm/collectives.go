package comm

import (
	"fmt"
	"sort"
	"sync"
)

// coord is the shared coordination structure behind barriers and splits —
// the role MPI's shared-memory collectives play inside a node. One coord is
// shared by every rank handle of a communicator.
type coord struct {
	mu           sync.Mutex
	cond         *sync.Cond
	size         int
	depositCount int
	readCount    int
	slots        []any
	dead         bool // the world aborted: the round will never complete
}

func newCoord(size int) *coord {
	c := &coord{size: size, slots: make([]any, size)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// exchange deposits val at the caller's slot, waits for every rank to
// deposit, and returns a snapshot of all slots. It is a reusable all-to-all
// rendezvous: the round resets after every rank has read its snapshot.
func (c *coord) exchange(rank int, val any) []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.depositCount == c.size {
		c.wait()
	}
	c.slots[rank] = val
	c.depositCount++
	if c.depositCount == c.size {
		c.cond.Broadcast()
	}
	for c.depositCount != c.size {
		c.wait()
	}
	snap := make([]any, c.size)
	copy(snap, c.slots)
	c.readCount++
	if c.readCount == c.size {
		c.depositCount = 0
		c.readCount = 0
		c.cond.Broadcast()
	}
	return snap
}

// wait is cond.Wait for a round that can still complete; in an aborted world
// it panics instead (the deferred unlock of exchange runs).
func (c *coord) wait() {
	if !c.dead {
		c.cond.Wait()
	}
	if c.dead {
		panic(aborted{})
	}
}

func (c *coord) abort() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	c.seq++
	c.coord.exchange(c.rank, nil)
}

// splitEntry is one rank's contribution to a Split.
type splitEntry struct {
	color, key, localRank int
}

// Split partitions the communicator into disjoint sub-communicators, one per
// distinct color, ordering ranks within each by (key, old rank) — the
// semantics of MPI_Comm_split. Every rank must call Split collectively; each
// receives the handle for its color's communicator. This is how LBANN carves
// the world into trainers (Figure 4).
func (c *Comm) Split(color, key int) *Comm {
	c.seq++
	entries := c.coord.exchange(c.rank, splitEntry{color: color, key: key, localRank: c.rank})
	var mine []splitEntry
	for _, e := range entries {
		se := e.(splitEntry)
		if se.color == color {
			mine = append(mine, se)
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].localRank < mine[j].localRank
	})
	group := make([]int, len(mine))
	newRank := -1
	for i, se := range mine {
		group[i] = c.group[se.localRank]
		if se.localRank == c.rank {
			newRank = i
		}
	}
	key2 := fmt.Sprintf("split#%d:c%d:%v", c.seq, color, group)
	return &Comm{
		world: c.world,
		rank:  newRank,
		group: group,
		coord: c.world.coordFor(key2, len(group)),
	}
}

// segBounds returns the i-th of n contiguous ring segments of a length-m
// buffer; leading segments absorb the remainder.
func segBounds(m, n, i int) (lo, hi int) {
	base := m / n
	rem := m % n
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

// AllreduceSum replaces buf on every rank with the elementwise sum across
// ranks — the only reduction the trainers need — using the bandwidth-optimal
// ring algorithm (reduce-scatter followed by allgather). The result is
// bitwise identical on every rank, which the data-parallel trainer relies on
// to keep model replicas in lockstep.
func (c *Comm) AllreduceSum(buf []float32) {
	n := c.Size()
	if n == 1 {
		return
	}
	base := c.nextCollTag()
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	m := len(buf)

	// A segment travels in a buffer that goes to the receiver with it, and
	// the receiver sends its next segment in the one it has just read: the
	// buffers go round the ring with the data, each rank starting with the
	// one its last allreduce left it (c.spare) and ending with one again, so
	// a communicator's allreduces stop allocating once every rank holds a
	// buffer as long as the longest segment.
	hand := c.spare
	send := func(tag, seg int) {
		lo, hi := segBounds(m, n, seg)
		if cap(hand) < hi-lo {
			hand = make([]float32, (m+n-1)/n)
		}
		out := hand[:hi-lo]
		copy(out, buf[lo:hi])
		c.sendRaw(right, tag, out, nil)
	}

	// Reduce-scatter: after step s, segment (r-s-1 mod n) on rank r holds
	// partial sums of s+2 contributions; after n-1 steps rank r owns the
	// fully reduced segment (r+1 mod n).
	for s := 0; s < n-1; s++ {
		sendSeg := ((c.rank-s)%n + n) % n
		recvSeg := ((c.rank-s-1)%n + n) % n
		send(base-s, sendSeg)
		hand = c.recvRaw(left, base-s).floats
		lo, hi := segBounds(m, n, recvSeg)
		dst, in := buf[lo:hi], hand[:hi-lo]
		for i := range dst {
			dst[i] += in[i]
		}
	}
	// Allgather: circulate the reduced segments.
	for s := 0; s < n-1; s++ {
		sendSeg := ((c.rank+1-s)%n + n) % n
		recvSeg := ((c.rank-s)%n + n) % n
		send(base-(n-1)-s, sendSeg)
		hand = c.recvRaw(left, base-(n-1)-s).floats
		lo, hi := segBounds(m, n, recvSeg)
		copy(buf[lo:hi], hand)
	}
	c.spare = hand
}

// AllreduceSumNaive is the gather-at-root + broadcast reference the ring
// AllreduceSum is tested against (TestAllreduceNaiveMatchesRing) and timed
// beside (BenchmarkAllreduceNaive8); nothing else calls it.
func (c *Comm) AllreduceSumNaive(buf []float32) {
	n := c.Size()
	if n == 1 {
		return
	}
	base := c.nextCollTag()
	if c.rank == 0 {
		for src := 1; src < n; src++ {
			in := c.recvRaw(src, base).floats
			for i := range buf {
				buf[i] += in[i]
			}
		}
		c.bcast(0, base-1, message{floats: append([]float32(nil), buf...)})
		return
	}
	c.sendRaw(0, base, append([]float32(nil), buf...), nil)
	copy(buf, c.bcast(0, base-1, message{}).floats)
}

// BcastBytes overwrites buf on every rank with root's bytes using a
// binomial tree, so latency grows as log₂(n); it distributes a tournament
// verdict inside a trainer.
func (c *Comm) BcastBytes(root int, buf []byte) {
	tag := c.nextCollTag()
	if c.rank == root {
		c.bcast(root, tag, message{bytes: append([]byte(nil), buf...)})
		return
	}
	copy(buf, c.bcast(root, tag, message{}).bytes)
}

// bcast walks the binomial tree rooted at root: every other rank receives
// msg from its parent, and each rank forwards it to its children. Nobody
// writes a payload once it is sent, so the root's one copy serves the tree.
func (c *Comm) bcast(root, tag int, msg message) message {
	n := c.Size()
	rel := (c.rank - root + n) % n
	mask := 1
	for ; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			msg = c.recvRaw((rel-mask+root)%n, tag)
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			c.sendRaw((rel+mask+root)%n, tag, msg.floats, msg.bytes)
		}
	}
	return msg
}

// AllgatherFloat64 exchanges one float64 per rank and returns the full
// vector on every rank; used for tournament metric comparison.
func (c *Comm) AllgatherFloat64(v float64) []float64 {
	c.seq++
	vals := c.coord.exchange(c.rank, v)
	out := make([]float64, len(vals))
	for i, x := range vals {
		out[i] = x.(float64)
	}
	return out
}
