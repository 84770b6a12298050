// Package parallel provides a small shared-memory parallel-for used by the
// numeric kernels in this repository. It plays the role that CUDA kernels and
// OpenMP loops play inside LBANN/Hydrogen: splitting dense-math inner loops
// across the hardware's execution units.
//
// The package deliberately has no configuration beyond GOMAXPROCS; kernels
// call For with a grain size and the package decides whether running serially
// is cheaper than scheduling goroutines. The one other thing it is told is how
// many SPMD ranks share the process (AddRanks): each rank's loops get an equal
// share of the Ps — OpenMP threads per MPI rank, as the paper ran — and when
// the ranks already fill them, a rank's loop runs on the rank's own goroutine
// instead of forking onto cores the other ranks are waiting for.
//
// A For is a region: its goroutines start together and For returns when the
// last has ended. Callers keep regions short — internal/tensor cuts a big
// GEMM into a sequence of Fors of about a millisecond each instead of one
// that occupies every P for the whole pass — because of how the Go scheduler
// finds the rest of the process's work. A P looks at its timers, the run
// queues and then the network poller only when the goroutine it runs ends or
// blocks (runtime.findRunnable); while every P is inside a long computation,
// a reply that has arrived on a socket, a timer that has fired and a
// goroutine made runnable by either all wait for the computation, or for the
// 10 ms after which sysmon preempts it. A server that runs a bulk forward
// pass beside interactive requests therefore pays the length of the pass's
// regions at every hop of every request. The goroutines of a region have to
// end for this to work: a long-lived worker that pulls pieces off a counter
// never returns its P, and runtime.Gosched puts the caller on the global run
// queue, which is ahead of the poller in that search.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ranks counts the rank goroutines of every comm.World.Run in progress.
var ranks atomic.Int64

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
