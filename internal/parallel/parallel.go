// Package parallel provides a small shared-memory parallel-for used by the
// numeric kernels in this repository. It plays the role that CUDA kernels and
// OpenMP loops play inside LBANN/Hydrogen: splitting dense-math inner loops
// across the hardware's execution units.
//
// The package deliberately has no configuration beyond GOMAXPROCS. Its
// callers — the tensor kernels, and the ensemble workflow that simulates
// whole bundle files or runs of samples at a time — call For with a grain
// size, and the package decides whether running serially is cheaper than
// scheduling goroutines. The one other thing it is told is how
// many SPMD ranks share the process (AddRanks): each rank's loops get an equal
// share of the Ps — OpenMP threads per MPI rank, as the paper ran — and when
// the ranks already fill them, a rank's loop runs on the rank's own goroutine
// instead of forking onto cores the other ranks are waiting for.
//
// A For is a region: its goroutines start together and For returns when the
// last has ended. Callers keep regions short — internal/tensor runs a pass
// whose row chunks cost at most about a millisecond as one For of those
// chunks, and cuts a longer one into a sequence of Fors of tiles of a few
// hundred microseconds each instead of one that occupies every P for the whole
// pass — because of how the Go scheduler finds the rest of the process's work.
// A P looks at its timers, the run queues and then the network poller only
// when the goroutine it runs ends or blocks (runtime.findRunnable); while
// every P is inside a long computation, a reply that has arrived on a socket,
// a timer that has fired and a goroutine made runnable by either all wait for
// the computation, or for the 10 ms after which sysmon preempts it. A server
// that runs a bulk forward pass beside interactive requests therefore pays, at
// every hop of every request that lands during the pass, the rest of the
// region it lands in; each extra region the pass is cut into costs one
// fork/join, a parked thread woken (tensor's BenchmarkWaves). That is the
// trade tile.go's two bounds strike. The goroutines of a region have to end
// for this to work: a long-lived worker that pulls pieces off a counter never
// returns its P, and runtime.Gosched puts the caller on the global run queue,
// which is ahead of the poller in that search.
//
// Ending a goroutine is enough only while a region has a P to spare. The
// search reaches the poller when the P's own run queue is empty, and in a
// region of two goroutines it is the P that finishes first whose queue is: the
// last one to finish readies the caller, which starts the next region at once.
// When every other P is held by something else — a long computation, a thread
// the OS has not run yet — one P runs all of a pass's regions one goroutine
// after another, its queue never empties, and the network waits for the whole
// pass. Yield is the stop such a pass makes instead.
//
// So a long pass's regions end between its pieces only while interactive
// traffic is about: the gaps cost a fork/join each and pay only while someone
// waits on an answer. The serving tier calls MarkInteractive as it admits
// each interactive request (and as it times a pass for its cost probe),
// and Quiet reports whether none has come in lately. In a quiet process a long pass runs as one region of workers that
// pull its pieces off a counter and stop in Yield once per stretch of pieces
// worth a millisecond or two: one fork/join a pass instead of one a region,
// no join at which the faster core waits for the slower, and the network
// still looked at between stretches — what arrives waits out about one
// stretch, not the rest of the pass.
package parallel

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ranks counts the rank goroutines of every comm.World.Run in progress.
var ranks atomic.Int64

// quietAfter is how long after the last interactive admission the process
// counts as quiet again: long enough to cover a human's next click or an
// open-loop caller's next call, short enough that a bulk job started after
// the traffic has gone gets the pulled passes within its first second.
const quietAfter = time.Second

var (
	// epoch is the origin of lastInteractive, so that it reads the
	// monotonic clock.
	epoch = time.Now()
	// lastInteractive is when MarkInteractive was last called, in
	// nanoseconds since epoch; 0 for never.
	lastInteractive atomic.Int64
)

// MarkInteractive records that a request someone is waiting on has just
// been admitted. The serving tier calls it for each interactive-lane
// admission, and its cost probe before each pass it times, so that every
// probe times the passes interactive traffic gets; nothing else should
// need to.
func MarkInteractive() { lastInteractive.Store(max(1, int64(time.Since(epoch)))) }

// Quiet reports whether no interactive request has been admitted within
// quietAfter: whether nobody is waiting for the gaps between the regions a
// long computation is cut into (the package comment).
func Quiet() bool {
	last := lastInteractive.Load()
	return last == 0 || time.Since(epoch)-time.Duration(last) > quietAfter
}

// AddRanks records that n more goroutines, each calling For on its own
// account, run in this process (n < 0: that they have ended). comm.World.Run
// brackets its ranks with it; nothing else should need to.
func AddRanks(n int) { ranks.Add(int64(n)) }

// Workers reports the number of workers For will use for a sufficiently large
// loop: GOMAXPROCS at call time, divided among the ranks of the Worlds that
// are running, and never less than one.
func Workers() int {
	return max(1, runtime.GOMAXPROCS(0)/max(1, int(ranks.Load())))
}

// For executes fn over the half-open index range [lo, hi), splitting it into
// contiguous chunks of at least grain iterations and running chunks on up to
// Workers goroutines. fn receives sub-ranges [start, end) and must be safe
// to call concurrently on disjoint ranges. For blocks until every chunk has
// completed.
//
// If the range is empty For returns immediately. If the range is smaller than
// grain, or only one worker is available, fn runs once on the caller's
// goroutine — so For never costs a goroutine for small loops.
func For(lo, hi, grain int, fn func(start, end int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := Workers()
	maxChunks := (n + grain - 1) / grain
	if workers > maxChunks {
		workers = maxChunks
	}
	if workers <= 1 {
		fn(lo, hi)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := lo; start < hi; start += chunk {
		end := start + chunk
		if end > hi {
			end = hi
		}
		wg.Add(1)
		go chunkOf(&wg, fn, start, end)
	}
	wg.Wait()
}

// chunkOf is one goroutine of a For. It is a function, not a closure, so a
// For allocates its WaitGroup and nothing per goroutine: a GEMM is many
// short Fors in a row.
func chunkOf(wg *sync.WaitGroup, fn func(start, end int), start, end int) {
	defer wg.Done()
	fn(start, end)
}

// yieldPipe is one of the pipes Yield waits on. os.Pipe registers its read
// end with the network poller wherever the runtime has one. A pipe serves one
// Yield at a time, so the byte a caller reads is the one its own writer wrote,
// which only the poller hands it: over a shared pipe a caller could read
// another's byte at once, and return with its run queue never emptied. A
// pipe is closed only when no Yield holds it, so neither its write nor its
// read can fail.
type yieldPipe struct {
	r, w  *os.File
	write func() // one byte into w; a func value, so that go write() allocates nothing
}

// yieldPipes holds the pipes of the Yields that have returned, for the next
// to take; a Yield that finds none makes one. Its size bounds the pipes kept
// idle: 64 is more Yields than a process on a few cores has in flight at
// once, and a pipe that finds it full is closed.
var yieldPipes = make(chan *yieldPipe, 64)

var yieldByte = []byte{0}

// Yield returns once the caller's P has searched for work with its own run
// queue empty, network poller included, so that whatever the rest of the
// process has waiting — a reply on a socket, a timer, a goroutine on the
// global queue — runs before the caller goes on. The caller waits on a pipe
// that a goroutine it starts writes to: that goroutine runs and ends, and the
// poller, not the writer, makes the caller runnable. It costs three syscalls
// and a goroutine, a few microseconds when nothing else is waiting; where no
// pipe can be made it is runtime.Gosched.
func Yield() {
	var p *yieldPipe
	select {
	case p = <-yieldPipes:
	default:
		r, w, err := os.Pipe()
		if err != nil {
			runtime.Gosched()
			return
		}
		p = &yieldPipe{r: r, w: w}
		p.write = func() { p.w.Write(yieldByte) }
	}
	go p.write()
	var b [1]byte
	p.r.Read(b[:])
	select {
	case yieldPipes <- p:
	default:
		p.r.Close()
		p.w.Close()
	}
}
