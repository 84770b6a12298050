package tensor

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Every GEMM that is big enough to matter is cut into tiles: a tile is a
// block of output rows by a panel of output columns. A tile's panel of B is
// small enough to stay in L2 while the tile's rows go over it, where a whole
// row of a wide layer streams the whole of B past the cache once per row. A
// dense pass (Dense) makes no pass of its own after the product: a tile adds
// the bias and applies the activation to the block it has just written, and
// planTiles charges a cell that epilogue (actWork).
//
// The tiles of a pass run under one of two schedulers, and pass.run picks by
// the process's traffic. While interactive requests are about, the tiles go
// in waves: a wave is at most one tile per worker, and it is joined before
// the next one starts, so no goroutine computes for longer than one tile and
// the scheduler gets a P back at the end of every wave (internal/parallel
// says why that matters to everything else in the process). While none has
// come in lately (parallel.Quiet), nobody waits on those gaps, and the tiles
// are pulled: one goroutine per worker takes tile after tile off one counter,
// each stopping in parallel.Yield once per stretch of tiles worth chunkWork,
// so a pass pays one fork/join instead of one a wave and the faster core
// never waits at a join for the slower. What arrives during a pulled pass —
// the first interactive call, a health probe, the next bulk request — waits
// about a stretch instead of a tile.
//
// The length of a wave is a trade with one cost model. A request that
// crosses the process while a pass runs in waves waits, at each crossing, for
// the rest of the wave it lands in: half a tile on average. Each extra wave
// costs one fork/join, a parked thread woken (BenchmarkWaves: 20–140 µs at
// tiles of 50–250 µs on a 2-vCPU host). A short pass buys nothing from being
// cut finer, so it keeps its one wave of whole row chunks while a chunk costs
// at most chunkWork; a longer pass — the bulk passes of the small16 and
// paper64 models — is cut into tiles of at most tileWork. Both bounds are
// counted in multiply-adds of the scalar forward kernel, so a faster gemmNN
// shortens a tile in time and both must be re-sized with it.
const (
	// gemmGrain is the minimum number of output rows per parallel chunk; small
	// batches run serially.
	gemmGrain = 8
	// chunkWork bounds a row chunk that runs whole, in multiply-adds: 1–3 ms
	// of the scalar kernel as timed on a 2-vCPU host. A pass whose chunks fit
	// is one wave (or one tile on the caller's goroutine), as it was before
	// there were tiles; everything Tiny8 runs is such a pass. It is also the
	// stretch of tiles a pulled pass's goroutines stop once in (stopEvery).
	chunkWork = 1 << 21
	// tileWork bounds one tile of a pass whose chunks do not fit chunkWork:
	// an eighth of it, 150–400 µs, so a request beside a bulk pass waits out
	// a fraction of that at each crossing instead of a millisecond or more.
	// Neither bound is overridden anywhere.
	tileWork = 1 << 18
	// panelFloats is the most of B a tile goes over, 512 KB, so that it stays
	// in L2 from the tile's first row to its last.
	panelFloats = 128 << 10
	// minPanel is the narrowest panel worth cutting: every row of B
	// contributes one run of consecutive floats to a panel, and the hardware
	// streams runs shorter than a couple of KB badly.
	minPanel = 512
	// panelAlign: panels start and, but for the last, end on a multiple of 16
	// columns — a cache line of floats, two AVX2 vectors — so a column lands
	// in the unrolled body or the tail of a kernel exactly as it does in a
	// full-width call.
	panelAlign = 16
)

// tiling is a cut of an m×n output. The rows are dealt to the workers in
// chunks of chunk consecutive rows, as they always were; a chunk is cut into
// blocks of rows rows and the columns into panels of cols columns, the last
// of each possibly smaller; a tile is one block by one panel. width tiles run
// at a time.
type tiling struct {
	m, n        int
	chunk, rows int
	cols        int
	width       int
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func (t tiling) tiles() int {
	return ceilDiv(t.m, t.chunk) * ceilDiv(t.chunk, t.rows) * ceilDiv(t.n, t.cols)
}

// tile returns the idx-th tile in issue order, rows [i0, i1) by columns
// [j0, j1). The order is panel-major, so a panel of B is used up before the
// next is touched, and within a panel it takes the next block of every chunk
// before any chunk's block after that: the tiles of a wave are the chunks'
// rows apart, as the chunks themselves were when each was one goroutine. (Two
// cores updating adjacent short rows of C at once run at half speed: each
// one's prefetcher keeps pulling the other's lines.) Where all rows are one
// chunk, a wave is adjacent blocks or, with one block, adjacent panels. A
// short last chunk leaves its last tiles empty.
func (t tiling) tile(idx int) (i0, i1, j0, j1 int) {
	chunks, blocks := ceilDiv(t.m, t.chunk), ceilDiv(t.chunk, t.rows)
	chunk, block, panel := idx%chunks, idx/chunks%blocks, idx/(chunks*blocks)
	i0 = min(chunk*t.chunk+block*t.rows, t.m)
	j0 = panel * t.cols
	return i0, min(i0+t.rows, (chunk+1)*t.chunk, t.m), j0, min(j0+t.cols, t.n)
}

// planTiles cuts an m×n output whose every cell costs cell multiply-adds —
// the k of its product, plus its epilogue in a dense pass — for the given
// number of workers. k is never cut: a tile sees the whole of its cells'
// updates, in order, and then their epilogue, which is what keeps the result
// independent of the cut (kernel.go).
//
// Rows are first chunked as a GEMM's rows always were — one chunk per worker,
// none under gemmGrain rows while there are rows to fill it — and if a chunk
// costs no more than chunkWork, that is the plan: one wave, or one tile on the
// caller's goroutine. Otherwise no tile may cost more than tileWork: the
// panel is the widest whose row of cells costs at most panelFloats — so its
// share of B, k floats a column, is at most that too — and the row block is
// what tileWork then allows. When a cell costs so much that such a panel would be under minPanel
// columns, B is not blocked for the cache at all: the panel is as wide as one
// row within tileWork can be, minPanel at the least — so a tile exceeds
// tileWork only where it is one row by minPanel columns (or the whole of a
// narrower C) and a cell costs more than tileWork/minPanel. Blocks and panels
// are then evened out so the last of each is not a sliver.
func planTiles(m, n, cell, workers int) tiling {
	chunks := min(workers, ceilDiv(m, gemmGrain))
	t := tiling{m: m, n: n, chunk: ceilDiv(m, chunks), cols: n, width: workers}
	if chunks > 1 {
		t.width = chunks
	}
	t.rows = t.chunk
	if t.rows*n*cell > chunkWork {
		cols := panelFloats / cell &^ (panelAlign - 1)
		if cols < minPanel {
			cols = max(minPanel, tileWork/cell&^(panelAlign-1))
		}
		cols = min(n, cols)
		rows := min(t.chunk, max(1, tileWork/(cell*cols)))
		t.rows = ceilDiv(t.chunk, ceilDiv(t.chunk, rows))
		t.cols = min(n, (ceilDiv(n, ceilDiv(n, cols))+panelAlign-1)&^(panelAlign-1))
	}
	return t
}

// waves runs the tiles of t in issue order, t.width of them at a time: run
// is called with ranges of tile indices, each wave's ranges concurrently, and
// a wave is over before the next begins. A lone tile runs on the caller's
// goroutine.
//
// A pass of more than one wave also notices when it runs alone. A tile that
// starts after another of its wave has ended, and a wave whose tiles never
// overlapped, mean one P is running the pass while every other P is held; that
// P's run queue never empties between tiles, so it never reaches the network
// poller (internal/parallel's package comment). The tile, or the next wave,
// then waits in parallel.Yield first, and a request that crosses the process
// during the stretch waits out a tile instead of the stretch. A pass that has
// its Ps pays three atomic adds a tile. A pass planned for one worker — a
// rank's, where the ranks fill the Ps — runs inline as it always did.
func (t tiling) waves(run func(lo, hi int)) {
	n := t.tiles()
	if n <= t.width || t.width < 2 {
		for lo := 0; lo < n; lo += t.width {
			parallel.For(lo, min(lo+t.width, n), 1, run)
		}
		return
	}
	var running, ended, overlapped atomic.Int32
	watched := func(lo, hi int) {
		if ended.Load() > 0 {
			parallel.Yield()
		}
		if running.Add(1) > 1 {
			overlapped.Store(1)
		}
		run(lo, hi)
		running.Add(-1)
		ended.Add(1)
	}
	for lo := 0; lo < n; lo += t.width {
		if lo > 0 && overlapped.Swap(0) == 0 {
			parallel.Yield()
		}
		ended.Store(0)
		parallel.For(lo, min(lo+t.width, n), 1, watched)
	}
}

// stopEvery is how many of t's tiles a pulled pass runs between stops:
// chunkWork of them at cell multiply-adds a cell (a cell of a product with
// k = 0 counted as one), at least one.
func stopEvery(t tiling, cell int) int { return max(1, chunkWork/(t.rows*t.cols*max(cell, 1))) }

// pulled runs the tiles of t on t.width goroutines, the caller's among them,
// that take tile indices one at a time off one counter, in issue order, until
// none is left; run is called with one-tile ranges. The tiles fall into
// stretches of stop consecutive indices, and a goroutine that takes a tile
// from a stretch after the one its last tile was in first stops in
// parallel.Yield. So every goroutine stops once per stretch it works in, and
// a P the pass has to itself looks at the network once a stretch, however
// many of the pass's goroutines it runs: what arrives while the other Ps are
// held elsewhere waits about one stretch (chunkWork, stopEvery), not the rest
// of the pass. No goroutine waits for another but at the end of the pass.
func (t tiling) pulled(stop int, run func(lo, hi int)) {
	n := t.tiles()
	var next atomic.Int64
	pull := func() {
		for stretch := 0; ; {
			idx := int(next.Add(1)) - 1
			if idx >= n {
				return
			}
			if idx/stop != stretch {
				stretch = idx / stop
				parallel.Yield()
			}
			run(idx, idx+1)
		}
	}
	var wg sync.WaitGroup
	for range min(t.width, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pull()
		}()
	}
	pull()
	wg.Wait()
}
