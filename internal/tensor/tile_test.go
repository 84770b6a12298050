package tensor

import (
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

// tileCost is what a tile costs at k multiply-adds a cell.
func tileCost(i0, i1, j0, j1, k int) int { return (i1 - i0) * (j1 - j0) * k }

// checkCut fails unless the tiles of t cover every cell of the m×n output
// exactly once, keep to the cut's own block and panel sizes, start panels on
// panelAlign columns, and — for a cut planTiles made — cost no more than
// chunkWork where the plan is whole row chunks and tileWork where it cut
// them, except where planTiles says they may. k is what a cell costs: its
// multiply-adds, and its epilogue in a dense pass.
func checkCut(t *testing.T, tl tiling, k int, planned bool) {
	t.Helper()
	bound := tileWork
	if tl.rows == tl.chunk && tl.cols == tl.n {
		bound = chunkWork
	}
	seen := make([]uint8, tl.m*tl.n)
	for idx := 0; idx < tl.tiles(); idx++ {
		i0, i1, j0, j1 := tl.tile(idx)
		crossesChunks := i0 < i1 && i0/tl.chunk != (i1-1)/tl.chunk
		if i0 > i1 || j0 >= j1 || i1 > tl.m || j1 > tl.n || i1-i0 > tl.rows || j1-j0 > tl.cols || crossesChunks {
			t.Fatalf("%+v k=%d: tile %d is rows [%d,%d) by columns [%d,%d)", tl, k, idx, i0, i1, j0, j1)
		}
		if planned {
			if j0%panelAlign != 0 {
				t.Fatalf("%+v k=%d: tile %d starts at column %d", tl, k, idx, j0)
			}
			if cost := tileCost(i0, i1, j0, j1, k); cost > bound && (i1-i0 > 1 || j1-j0 > minPanel || k <= tileWork/minPanel) {
				t.Fatalf("%+v k=%d: tile %d, rows [%d,%d) by columns [%d,%d), costs %d", tl, k, idx, i0, i1, j0, j1, cost)
			}
		}
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				seen[i*tl.n+j]++
			}
		}
	}
	for c, times := range seen {
		if times != 1 {
			t.Fatalf("%+v k=%d: cell (%d,%d) is in %d tiles", tl, k, c/tl.n, c%tl.n, times)
		}
	}
}

// TestPlanTilesPartitions is the property the dispatcher rests on: whatever
// the shape and the worker count, every cell of C is in exactly one tile, no
// tile is over the bound but the one planTiles documents, and a tile has no
// extent in k at all — the kernels take (i0, i1, j0, j1) and run every cell's
// whole sum, so there is nothing a cut could do to the order of its terms.
func TestPlanTilesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Log-uniform sizes: as many shapes around 8 as around 8 000.
	size := func(most float64) int { return int(math.Exp(rng.Float64() * math.Log(most))) }
	for i := 0; i < 3000; i++ {
		m, n, k, workers := size(300), size(60000), size(60000), 1+rng.Intn(8)
		if m*n > 1<<21 {
			continue // the seen grid, not the plan, is what costs
		}
		checkCut(t, planTiles(m, n, k, workers), k, true)
	}
	// The shapes the models run, forward and backward, and a batch of one.
	for _, workers := range []int{1, 2, 4} {
		for _, batch := range []int{1, 16, 64} {
			for _, l := range [][2]int{{49167, 128}, {128, 49167}, {3087, 128}, {128, 3087}, {399, 128}, {128, 399}} {
				for _, act := range denseActs {
					cell := l[0] + actWork[act]
					checkCut(t, planTiles(batch, l[1], cell, workers), cell, true) // y = act(x·W + b)
				}
				checkCut(t, planTiles(l[0], l[1], batch, workers), batch, true) // dW = xᵀ·dy
				checkCut(t, planTiles(batch, l[0], l[1], workers), l[1], true)  // dx = dy·Wᵀ
			}
		}
	}
	// checkCut itself must hold for the hand-made cuts the bitwise tests use.
	for i := 0; i < 500; i++ {
		m, n := 1+rng.Intn(67), 1+rng.Intn(67)
		checkCut(t, cutOf(m, n, rng.Int(), rng.Int(), rng.Int(), rng.Int()), 1, false)
	}
}

// goroutineID is the "goroutine N" of the caller's stack header: enough to
// tell two goroutines apart.
func goroutineID() string {
	buf := make([]byte, 32)
	return string(buf[:runtime.Stack(buf, false)])
}

// TestServingShapesTileAsIntended pins the shape of the work, not its speed,
// for two workers (the reference host): the bulk passes of fleet_mixed and
// sweep_paper and the paper64 cost probe — decoder heads, with their bias
// and sigmoid — are many short waves of tiles no larger than tileWork, and
// everything Tiny8 runs is what it was before there were tiles — which is
// why interactive_tiny and train_ltfb do not move.
func TestServingShapesTileAsIntended(t *testing.T) {
	sig := actWork[ActSigmoid]
	for _, shape := range [][3]int{{64, 128, 3087}, {16, 128, 49167}, {64, 128, 49167}} {
		m, k, n := shape[0], shape[1], shape[2]
		tl := planTiles(m, n, k+sig, 2)
		if waves := (tl.tiles() + tl.width - 1) / tl.width; waves < 2 || tl.width != 2 {
			t.Errorf("%dx%dx%d: %+v is %d waves of %d", m, k, n, tl, waves, tl.width)
		}
		for idx := 0; idx < tl.tiles(); idx++ {
			i0, i1, j0, j1 := tl.tile(idx)
			// 2¹⁸ is the pin itself, not tileWork read back: a change to the
			// bound changes this line too.
			if cost := tileCost(i0, i1, j0, j1, k+sig); cost > 1<<18 || (j1-j0)*k > panelFloats {
				t.Errorf("%dx%dx%d: tile %d costs %d over %d floats of B", m, k, n, idx, cost, (j1-j0)*k)
			}
		}
		// A wave is the two workers' chunks, not two neighbouring blocks.
		if i0, _, _, _ := tl.tile(1); i0 != m/2 {
			t.Errorf("%dx%dx%d: the second tile of the first wave starts at row %d", m, k, n, i0)
		}
	}
	// A batch of one through the paper's decoder: waves of adjacent panels.
	one := planTiles(1, 49167, 128+sig, 2)
	if _, _, j0, j1 := one.tile(1); one.tiles() < 4 || one.width != 2 || j0 != one.cols || j1 != 2*one.cols {
		t.Errorf("1x128x49167: %+v, second tile columns [%d,%d)", one, j0, j1)
	}

	// Tiny8's widest layers, the sigmoid head and the first encoder layer, at
	// a training batch and the 64-row probe pass: one wave of the two whole
	// chunks, 8 and 32 rows each.
	for _, m := range []int{16, 64} {
		want := tiling{m: m, n: 399, chunk: m / 2, rows: m / 2, cols: 399, width: 2}
		if tl := planTiles(m, 399, 128+sig, 2); tl != want || tl.tiles() != 2 {
			t.Errorf("%dx128x399: %+v, want %+v", m, tl, want)
		}
		want = tiling{m: m, n: 128, chunk: m / 2, rows: m / 2, cols: 128, width: 2}
		if tl := planTiles(m, 128, 399+actWork[ActLeakyReLU], 2); tl != want {
			t.Errorf("%dx399x128: %+v, want %+v", m, tl, want)
		}
	}
	// 1×128×399: one tile, on the caller's goroutine.
	tl := planTiles(1, 399, 128+sig, 2)
	if tl.tiles() != 1 {
		t.Fatalf("1x128x399: %+v is %d tiles", tl, tl.tiles())
	}
	caller, calls := goroutineID(), 0
	tl.waves(func(lo, hi int) {
		calls++
		if id := goroutineID(); id != caller || lo != 0 || hi != 1 {
			t.Errorf("1x128x399: tiles [%d,%d) ran on %q, the caller is %q", lo, hi, id, caller)
		}
	})
	if calls != 1 {
		t.Errorf("1x128x399: %d calls", calls)
	}
}

// TestWavesAreJoined: no tile of a wave starts before every tile of the wave
// before it is over, and no wave is wider than the cut says.
func TestWavesAreJoined(t *testing.T) {
	tl := tiling{m: 12, n: 10, chunk: 4, rows: 1, cols: 3, width: 3}
	var running, done atomic.Int32
	tl.waves(func(lo, hi int) {
		if now := running.Add(int32(hi - lo)); now > int32(tl.width) {
			t.Errorf("%d tiles in flight, width %d", now, tl.width)
		}
		if finished, wave := int(done.Load()), lo/tl.width*tl.width; finished < wave || finished >= wave+tl.width {
			t.Errorf("tiles [%d,%d) started with %d done", lo, hi, finished)
		}
		runtime.Gosched()
		running.Add(int32(lo - hi))
		done.Add(int32(hi - lo))
	})
	if int(done.Load()) != tl.tiles() {
		t.Errorf("%d of %d tiles ran", done.Load(), tl.tiles())
	}
}

// TestLonePassLetsTheNetworkIn: a pass of many waves that one P runs alone —
// here because there is one P, in a server because something else holds the
// others — lets a round trip over a loopback socket through between its tiles
// instead of holding it for the rest of the pass. Without the pass's stops in
// parallel.Yield the P never looks at the network until sysmon preempts the
// pass, 10 ms (a hundred tiles) at the least.
func TestLonePassLetsTheNetworkIn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback socket: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const tiles, spin = 1000, 100 * time.Microsecond
	tl := tiling{m: tiles, n: 1, chunk: tiles / 2, rows: 1, cols: 1, width: 2}
	var done atomic.Int32
	var once sync.Once
	started, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tl.waves(func(lo, hi int) {
			once.Do(func() { close(started) })
			for end := time.Now().Add(time.Duration(hi-lo) * spin); time.Now().Before(end); {
			}
			done.Add(int32(hi - lo))
		})
	}()
	<-started
	before := done.Load()
	buf := []byte{1}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	during := done.Load() - before
	<-finished
	if during > 50 {
		t.Errorf("the round trip took %d tiles of %v, of a %d-tile pass", during, spin, tiles)
	}
}

// TestPulledPassCoversEachTileOnce: a pulled pass calls run once for every
// tile of the cut, with a one-tile range, on at most width goroutines at a
// time, whatever the stop interval, and returns only once every tile is done.
func TestPulledPassCoversEachTileOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cuts := []tiling{
		{m: 12, n: 10, chunk: 4, rows: 1, cols: 3, width: 3},
		{m: 1000, n: 1, chunk: 500, rows: 1, cols: 1, width: 2},
		planTiles(16, 49167, 128+actWork[ActSigmoid], 2),
		planTiles(64, 3087, 128+actWork[ActSigmoid], 4),
	}
	for i := 0; i < 200; i++ {
		cuts = append(cuts, cutOf(1+rng.Intn(67), 1+rng.Intn(67), rng.Int(), rng.Int(), rng.Int(), rng.Int()))
	}
	for _, tl := range cuts {
		for _, stop := range []int{1, 3, 1 << 20} {
			runs := make([]atomic.Int32, tl.tiles())
			var running atomic.Int32
			tl.pulled(stop, func(lo, hi int) {
				if now := running.Add(1); int(now) > tl.width {
					t.Errorf("%+v stop %d: %d tiles in flight", tl, stop, now)
				}
				if hi != lo+1 || lo < 0 || hi > len(runs) {
					t.Errorf("%+v stop %d: tiles [%d,%d)", tl, stop, lo, hi)
				} else {
					runs[lo].Add(1)
				}
				runtime.Gosched()
				running.Add(-1)
			})
			for idx := range runs {
				if n := runs[idx].Load(); n != 1 {
					t.Fatalf("%+v stop %d: tile %d ran %d times", tl, stop, idx, n)
				}
			}
		}
	}
}

// TestQuietPassLetsTheNetworkIn is TestLonePassLetsTheNetworkIn for a pulled
// pass: with the two goroutines of a 1000-tile pass sharing one P, each of a
// loopback round trip's two crossings waits about one stretch of ten tiles,
// the pass's stop interval, instead of the rest of the pass — 10–20 tiles in
// all, where one pipe shared by every Yield, which lets a stop read another's
// byte and not stop, made it 39–40, and a pass without stops waits for sysmon's
// preemption, a hundred tiles at the least.
func TestQuietPassLetsTheNetworkIn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback socket: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const tiles, stop, spin = 1000, 10, 100 * time.Microsecond
	tl := tiling{m: tiles, n: 1, chunk: tiles / 2, rows: 1, cols: 1, width: 2}
	var done atomic.Int32
	var once sync.Once
	started, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		tl.pulled(stop, func(lo, hi int) {
			once.Do(func() { close(started) })
			for end := time.Now().Add(time.Duration(hi-lo) * spin); time.Now().Before(end); {
			}
			done.Add(int32(hi - lo))
		})
	}()
	<-started
	before := done.Load()
	buf := []byte{1}
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	during := done.Load() - before
	<-finished
	if during > 2*stop+stop/2 {
		t.Errorf("the round trip took %d tiles of %v, of a %d-tile pass stopping every %d", during, spin, tiles, stop)
	}
}

// raceOn is set by race_test.go in a -race build.
var raceOn bool

// TestPulledPassAllocatesPerPass: a pulled pass of the paper64 decoder head
// at 16 rows allocates the same count whether it is cut into 26 tiles,
// planTiles' 440 or 3 088: its goroutines, counter and WaitGroup once a pass,
// nothing a tile and nothing a stop. The wave scheduler's count, which grows
// with the waves (parallel.For's WaitGroup and each goroutine it starts), is
// logged beside it.
func TestPulledPassAllocatesPerPass(t *testing.T) {
	if raceOn {
		t.Skip("the race detector allocates for each goroutine a stop starts")
	}
	const m, k, n = 16, 128, 49167
	// A zero x makes every multiplier zero, which the kernel skips: the pass
	// costs its epilogue, not 10⁸ multiply-adds, and allocates the same.
	p := densePass(New(m, n), New(m, k), New(k, n), make([]float32, n), ActSigmoid)
	cell := k + actWork[ActSigmoid]
	planned := planTiles(m, n, cell, 2)
	cuts := []tiling{
		{m: m, n: n, chunk: 8, rows: 8, cols: 4096, width: 2},
		planned,
		{m: m, n: n, chunk: 8, rows: 1, cols: 256, width: 2},
	}
	var first float64
	for i, cut := range cuts {
		allocs := testing.AllocsPerRun(3, func() { cut.pulled(stopEvery(cut, cell), p.tiles(cut)) })
		if i == 0 {
			first = allocs
		}
		if allocs != first {
			t.Errorf("a pulled pass of %d tiles allocates %v times, one of %d tiles %v", cut.tiles(), allocs, cuts[0].tiles(), first)
		}
	}
	// AllocsPerRun runs at one P, where parallel.For forks nothing; the
	// waves are counted at two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		planned.waves(p.tiles(planned))
	}
	runtime.ReadMemStats(&after)
	waves, allocs := ceilDiv(planned.tiles(), planned.width), float64(after.Mallocs-before.Mallocs)/runs
	t.Logf("pulled: %v allocations a pass; waves at 2 Ps: %.0f a pass of %d waves, %.2f a wave", first, allocs, waves, allocs/float64(waves))
}

// TestTiledElementwiseOpsMatchPlainLoops: a dense pass cut the ways
// planTiles cuts the layers the models run — one tile on the caller, one wave
// of whole row chunks, waves of row blocks, of panels, of one-row tiles where
// k is too long to block B, and a wide k = 1 pass whose panel a row's
// epilogue bounds — and the hand-made cuts of the tests above gives, for
// every activation and under each scheduler, the bits of the product
// followed by the plain bias and activation loops (denseRef).
func TestTiledElementwiseOpsMatchPlainLoops(t *testing.T) {
	type shape struct{ m, k, n int }
	shapes := []shape{{1, 128, 399}, {16, 128, 399}, {64, 128, 3087}, {37, 64, 9000}, {70, 1, 30000}, {5, 3087, 128}}
	if !testing.Short() {
		shapes = append(shapes, shape{16, 128, 49167}, shape{1, 128, 49167}, shape{5, 49167, 128})
	}
	kinds := map[string]bool{}
	seed := int64(7000)
	for _, sh := range shapes {
		for _, act := range denseActs {
			tl := planTiles(sh.m, sh.n, sh.k+actWork[act], 2)
			switch {
			case tl.tiles() == 1:
				kinds["one tile"] = true
			case tl.rows == tl.chunk && tl.cols == tl.n:
				kinds["one wave of row chunks"] = true
			case tl.rows < tl.chunk && tl.cols == tl.n:
				kinds["row blocks"] = true
			case tl.rows == 1 && tl.cols < tl.n:
				kinds["one-row panels"] = true
			default:
				kinds["blocks by panels"] = true
			}
			seed++
			for _, sched := range schedulers {
				gemmCase{seed: seed, m: sh.m, k: sh.k, n: sh.n, alpha: 1, zeroPos: -1, special: 40, cut: tl, dense: true, act: act, sched: sched}.check(t)
			}
		}
	}
	if want := 5; len(kinds) != want && !testing.Short() {
		t.Errorf("the shapes cut %d ways (%v), want %d", len(kinds), kinds, want)
	}
	// The hand-made cuts: TestWavesAreJoined's, and the tiling the bitwise
	// GEMM tests force on a shape this small, one-cell tiles included.
	for i, cut := range []tiling{
		{m: 12, n: 10, chunk: 4, rows: 1, cols: 3, width: 3},
		{m: 12, n: 10, chunk: 12, rows: 5, cols: 7, width: 2},
		{m: 12, n: 10, chunk: 1, rows: 1, cols: 1, width: 4},
	} {
		for _, act := range denseActs {
			for _, sched := range schedulers {
				gemmCase{seed: int64(7100 + i), m: 12, k: 7, n: 10, alpha: 1, zeroPos: 1, special: 9, cut: cut, dense: true, act: act, sched: sched}.check(t)
			}
		}
	}
}

// BenchmarkWaves is the cost model's other side: what one more wave costs,
// under each scheduler. Each wave is one tile per worker, every tile a spin
// of the given length; sched=waves issues them as tiling.waves does, and
// sched=pulled pulls them as tiling.pulled does, stopping once per stretch of
// about 2 ms of tiles (chunkWork at the scalar kernel). fork_join_us/wave is
// the wall time per worker's worth of tiles less the tile itself: the
// goroutines started, the parked thread woken and the join, once a wave or
// once a pass, and the stops. A pass cut into tiles of a quarter the length
// pays the wave scheduler's four times as often; with one worker the waves
// run inline and read about 0.
func BenchmarkWaves(b *testing.B) {
	for _, sched := range schedulers {
		for _, tile := range []struct {
			name string
			d    time.Duration
		}{{"50us", 50 * time.Microsecond}, {"250us", 250 * time.Microsecond}, {"1ms", time.Millisecond}} {
			b.Run("sched="+sched+"/tile="+tile.name, func(b *testing.B) {
				w := parallel.Workers()
				tl := tiling{m: b.N * w, n: 1, chunk: 1, rows: 1, cols: 1, width: w}
				spin := func(lo, hi int) {
					for end := time.Now().Add(time.Duration(hi-lo) * tile.d); time.Now().Before(end); {
					}
				}
				b.ResetTimer()
				t0 := time.Now()
				if sched == "pulled" {
					tl.pulled(max(1, int(2*time.Millisecond/tile.d)), spin)
				} else {
					tl.waves(spin)
				}
				perWave := time.Since(t0) / time.Duration(b.N)
				b.ReportMetric(float64(perWave-tile.d)/float64(time.Microsecond), "fork_join_us/wave")
			})
		}
	}
}
