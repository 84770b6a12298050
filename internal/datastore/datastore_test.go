package datastore

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bundle"
	"repro/internal/comm"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// makeBundleDS writes files×perFile samples of width dim; sample i has
// row[0] = i, row[dim-1] = 2i and 100i+j in between, so content and the
// place of the x|y split are verifiable.
func makeBundleDS(t testing.TB, files, perFile, dim int) *reader.BundleDataset {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	g := 0
	for f := 0; f < files; f++ {
		recs := make([][]float32, perFile)
		for i := range recs {
			recs[i] = make([]float32, dim)
			for j := range recs[i] {
				recs[i][j] = float32(100*g + j)
			}
			recs[i][0] = float32(g)
			recs[i][dim-1] = float32(g * 2)
			g++
		}
		p := filepath.Join(dir, fmt.Sprintf("%04d.jagb", f))
		if err := bundle.Write(p, dim, recs); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	ds, err := reader.OpenBundles(paths)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// testXDim is where the tests split a sample into x and y.
const testXDim = 2

// share returns rank's part of batch and an x and y of its shape.
func share(batch []int, ranks, rank, dim int) (mine []int, x, y *tensor.Matrix) {
	mine = reader.PartitionContiguousOf(batch, ranks, rank)
	return mine, tensor.New(len(mine), testXDim), tensor.New(len(mine), dim-testXDim)
}

// runEpoch fetches every batch on every rank and verifies bitwise that each
// rank's x and y hold what the reference puts there: Dataset.Sample per
// index of its share, split at testXDim.
func runEpoch(t *testing.T, w *comm.World, ds reader.Dataset, batches [][]int, stores []*Store) {
	t.Helper()
	w.Run(func(c *comm.Comm) {
		want := make([]float32, ds.Dim())
		for _, batch := range batches {
			mine, x, y := share(batch, c.Size(), c.Rank(), ds.Dim())
			if err := stores[c.Rank()].Fetch(batch, x, y); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
				return
			}
			for r, i := range mine {
				if err := ds.Sample(i, want); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(x.Row(r), want[:testXDim]) || !slices.Equal(y.Row(r), want[testXDim:]) {
					t.Errorf("rank %d row %d: sample %d is %v, fetched x %v y %v", c.Rank(), r, i, want, x.Row(r), y.Row(r))
					return
				}
			}
		}
	})
}

// newStores makes a world of the given ranks and a store on each rank.
func newStores(ranks int, ds reader.Dataset, mode Mode) (*comm.World, []*Store) {
	w, stores := comm.NewWorld(ranks), make([]*Store, ranks)
	w.Run(func(c *comm.Comm) { stores[c.Rank()] = New(c, ds, mode) })
	return w, stores
}

func epochBatches(n, batch int, seed int64, epoch int) [][]int {
	sh := reader.NewShuffler(n, seed)
	perm := append([]int(nil), sh.Epoch(epoch)...)
	return reader.Batches(perm, batch, false)
}

func TestModeNoneAlwaysReadsBacking(t *testing.T) {
	ds := makeBundleDS(t, 4, 8, 6)
	w, stores := newStores(4, ds, ModeNone)
	for epoch := 0; epoch < 2; epoch++ {
		runEpoch(t, w, ds, epochBatches(32, 8, 1, epoch), stores)
	}
	var reads int64
	for _, s := range stores {
		st := s.Stats()
		reads += st.BackingReads
		if st.RemoteSamples != 0 || st.BytesSent != 0 {
			t.Fatalf("naive mode must not exchange: %+v", st)
		}
	}
	if reads != 64 { // 32 samples × 2 epochs
		t.Fatalf("backing reads = %d, want 64", reads)
	}
}

func TestDynamicCachesAfterFirstEpoch(t *testing.T) {
	ds := makeBundleDS(t, 4, 8, 6)
	w, stores := newStores(4, ds, ModeDynamic)
	// Epoch 0: identity order → all reads hit backing once.
	runEpoch(t, w, ds, epochBatches(32, 8, 1, 0), stores)
	var reads0 int64
	for _, s := range stores {
		reads0 += s.Stats().BackingReads
	}
	if reads0 != 32 {
		t.Fatalf("epoch-0 backing reads = %d, want 32", reads0)
	}
	// Epochs 1-3: shuffled → zero further backing reads, exchange instead.
	for epoch := 1; epoch <= 3; epoch++ {
		runEpoch(t, w, ds, epochBatches(32, 8, 1, epoch), stores)
	}
	var reads, remote int64
	for _, s := range stores {
		reads += s.Stats().BackingReads
		remote += s.Stats().RemoteSamples
	}
	if reads != 32 {
		t.Fatalf("steady-state backing reads = %d, want 32 (no new reads)", reads)
	}
	if remote == 0 {
		t.Fatal("shuffled epochs must exchange samples between ranks")
	}
}

func TestPreloadOwnershipByFile(t *testing.T) {
	ds := makeBundleDS(t, 6, 4, 5)
	w, stores := newStores(3, ds, ModePreload)
	w.Run(func(c *comm.Comm) {
		if err := stores[c.Rank()].Preload(); err != nil {
			t.Error(err)
		}
	})
	// Files round-robin over 3 ranks: rank r owns files r, r+3.
	for r, s := range stores {
		if len(s.cache) != 8 {
			t.Fatalf("rank %d owns %d samples, want 8", r, len(s.cache))
		}
		if s.Stats().FilesPreread != 2 {
			t.Fatalf("rank %d preread %d files, want 2", r, s.Stats().FilesPreread)
		}
	}
	// Sample 0 lives in file 0 → rank 0; sample 4 in file 1 → rank 1.
	if o := stores[0].owner; o[0] != 0 || o[4] != 1 || o[20] != 2 {
		t.Fatalf("ownership wrong: %d %d %d", o[0], o[4], o[20])
	}
	// Training epochs read nothing from the files.
	before := stores[0].Stats().BackingReads
	runEpoch(t, w, ds, epochBatches(24, 6, 2, 1), stores)
	if stores[0].Stats().BackingReads != before {
		t.Fatal("preloaded store must not touch the backing dataset during training")
	}
}

func TestPreloadRequiresPreloadMode(t *testing.T) {
	ds := makeBundleDS(t, 2, 2, 5)
	_, stores := newStores(2, ds, ModeDynamic)
	if err := stores[0].Preload(); err == nil {
		t.Fatal("Preload outside ModePreload must error")
	}
}

// TestFetchPartCountValidation: x and y must have the shape of the calling
// rank's share — its row count, and the sample's width between them. The
// check precedes the exchange, so a lone rank can make it.
func TestFetchPartCountValidation(t *testing.T) {
	ds := makeBundleDS(t, 2, 4, 5)
	_, stores := newStores(2, ds, ModePreload)
	s := stores[1]
	batch := []int{0, 1, 2, 3, 4} // rank 1's share is two samples
	for _, shape := range [][3]int{{3, 2, 3}, {2, 2, 2}, {2, 5, 1}} {
		x, y := tensor.New(shape[0], shape[1]), tensor.New(shape[0], shape[2])
		if err := s.Fetch(batch, x, y); err == nil {
			t.Errorf("x %dx%d, y %dx%d for a share of 2 samples of width 5 must error", x.Rows, x.Cols, y.Rows, y.Cols)
		}
	}
	if err := s.Fetch(batch, tensor.New(2, 2), tensor.New(3, 3)); err == nil {
		t.Error("y with a row more than x must error")
	}
}

// twoEpochs drives fresh stores of the given mode through a fixed schedule —
// epochs 0 and 1 of 32 samples in batches of 7, which neither two nor three
// ranks divide and whose last batch is 4 — verifying every fetched row, and
// returns the stores.
func twoEpochs(t *testing.T, ds reader.Dataset, mode Mode, ranks int) []*Store {
	t.Helper()
	w, stores := newStores(ranks, ds, mode)
	if mode == ModePreload {
		w.Run(func(c *comm.Comm) {
			if err := stores[c.Rank()].Preload(); err != nil {
				t.Error(err)
			}
		})
	}
	for epoch := 0; epoch < 2; epoch++ {
		runEpoch(t, w, ds, epochBatches(32, 7, 11, epoch), stores)
	}
	return stores
}

// TestUnevenBatchParts: Fetch ≡ the reference, bitwise, in every mode on 1, 2
// and 3 ranks with batches the ranks do not divide.
func TestUnevenBatchParts(t *testing.T) {
	ds := makeBundleDS(t, 4, 8, 6)
	for _, mode := range []Mode{ModeNone, ModeDynamic, ModePreload} {
		for ranks := 1; ranks <= 3; ranks++ {
			twoEpochs(t, ds, mode, ranks)
		}
	}
}

// TestFetchStatsMatchParent pins every rank's counters after twoEpochs to
// what the commit before the one-path Fetch (PR 24) counted on the same
// schedule: the same samples are served from the same places in the same
// order.
func TestFetchStatsMatchParent(t *testing.T) {
	type run struct {
		mode  Mode
		ranks int
	}
	// LocalHits, RemoteSamples, BackingReads, BytesSent, BytesReceived, FilesPreread
	want := map[run][]Stats{
		{ModeNone, 1}:    {{0, 0, 64, 0, 0, 0}},
		{ModeNone, 2}:    {{0, 0, 36, 0, 0, 0}, {0, 0, 28, 0, 0, 0}},
		{ModeNone, 3}:    {{0, 0, 28, 0, 0, 0}, {0, 0, 18, 0, 0, 0}, {0, 0, 18, 0, 0, 0}},
		{ModeDynamic, 1}: {{64, 0, 32, 0, 0, 0}},
		{ModeDynamic, 2}: {{28, 8, 18, 192, 192, 0}, {20, 8, 14, 192, 192, 0}},
		{ModeDynamic, 3}: {{19, 9, 14, 216, 216, 0}, {10, 8, 9, 192, 192, 0}, {11, 7, 9, 168, 168, 0}},
		{ModePreload, 1}: {{64, 0, 32, 0, 0, 4}},
		{ModePreload, 2}: {{20, 16, 16, 288, 384, 2}, {16, 12, 16, 384, 288, 2}},
		{ModePreload, 3}: {{12, 16, 16, 480, 384, 2}, {4, 14, 8, 288, 336, 1}, {4, 14, 8, 288, 336, 1}},
	}
	ds := makeBundleDS(t, 4, 8, 6)
	for r, ranks := range want {
		for rank, s := range twoEpochs(t, ds, r.mode, r.ranks) {
			if got := s.Stats(); got != ranks[rank] {
				t.Errorf("%v on %d ranks, rank %d: %+v, the parent counted %+v", r.mode, r.ranks, rank, got, ranks[rank])
			}
		}
	}
}

// TestFetchSteadyStateAllocs: once the rows are cached a single-rank Fetch
// allocates nothing — no matrix, map, channel or goroutine — and a two-rank
// one only the copy comm.Send makes of each packed message, one per rank.
func TestFetchSteadyStateAllocs(t *testing.T) {
	ds := makeBundleDS(t, 2, 8, 6)
	batch := []int{9, 2, 14, 7, 0, 11, 5}
	const runs = 50

	// In memory, so that ModeNone's reads are not the bundle reader's.
	recs := make([][]float32, ds.Len())
	for i := range recs {
		recs[i] = make([]float32, ds.Dim())
		if err := ds.Sample(i, recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	mem, err := reader.NewSliceDataset(ds.Dim(), recs)
	if err != nil {
		t.Fatal(err)
	}
	_, x, y := share(batch, 1, 0, ds.Dim())
	for _, mode := range []Mode{ModeNone, ModeDynamic} {
		s := New(comm.NewWorld(1).Comm(0), mem, mode)
		if got := testing.AllocsPerRun(runs, func() {
			if err := s.Fetch(batch, x, y); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%v, one rank: %v allocations per Fetch, want 0", mode, got)
		}
	}

	// Rank 1 keeps step with rank 0 (each needs the other's rows), so it
	// makes exactly the runs+1 calls AllocsPerRun makes.
	w, stores := newStores(2, ds, ModePreload)
	w.Run(func(c *comm.Comm) {
		s := stores[c.Rank()]
		if err := s.Preload(); err != nil {
			t.Error(err)
			return
		}
		_, x, y := share(batch, 2, c.Rank(), ds.Dim())
		fetch := func() {
			if err := s.Fetch(batch, x, y); err != nil {
				t.Error(err)
			}
		}
		if c.Rank() == 1 {
			for i := 0; i <= runs; i++ {
				fetch()
			}
			return
		}
		if got := testing.AllocsPerRun(runs, fetch); got > 2 {
			t.Errorf("two ranks: %v allocations per step, want at most the 2 message copies", got)
		}
	})
	if st := stores[0].Stats(); st.RemoteSamples == 0 || st.BytesSent == 0 {
		t.Fatalf("the two-rank batch exchanged nothing: %+v", st)
	}
}

func TestSingleRankStoreLocalOnly(t *testing.T) {
	ds := makeBundleDS(t, 2, 4, 5)
	w, stores := newStores(1, ds, ModePreload)
	w.Run(func(c *comm.Comm) {
		s := stores[0]
		if err := s.Preload(); err != nil {
			t.Error(err)
			return
		}
		batch := []int{3, 1, 7}
		_, x, y := share(batch, 1, 0, ds.Dim())
		if err := s.Fetch(batch, x, y); err != nil {
			t.Error(err)
			return
		}
		if x.At(0, 0) != 3 || x.At(2, 0) != 7 || y.At(1, y.Cols-1) != 2 {
			t.Errorf("content wrong: x %v y %v", x, y)
		}
	})
	st := stores[0].Stats()
	if st.BytesSent != 0 || st.RemoteSamples != 0 {
		t.Fatalf("single rank must not communicate: %+v", st)
	}
}

func TestDynamicOwnershipConsistentAcrossRanks(t *testing.T) {
	ds := makeBundleDS(t, 2, 8, 5)
	w, stores := newStores(4, ds, ModeDynamic)
	runEpoch(t, w, ds, epochBatches(16, 8, 9, 0), stores)
	for i := 0; i < 16; i++ {
		o := stores[0].owner[i]
		if o < 0 {
			t.Fatalf("sample %d unowned after epoch 0", i)
		}
		for r := 1; r < 4; r++ {
			if stores[r].owner[i] != o {
				t.Fatalf("sample %d: rank %d thinks owner %d, rank 0 thinks %d", i, r, stores[r].owner[i], o)
			}
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ModeNone.String() == "" || ModeDynamic.String() == "" || ModePreload.String() == "" {
		t.Fatal("modes must have names")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

func BenchmarkFetchPreloaded4Ranks(b *testing.B) {
	ds := makeBundleDS(b, 4, 64, 32)
	w := comm.NewWorld(4)
	stores := make([]*Store, 4)
	w.Run(func(c *comm.Comm) {
		stores[c.Rank()] = New(c, ds, ModePreload)
		if err := stores[c.Rank()].Preload(); err != nil {
			b.Error(err)
		}
	})
	batches := epochBatches(256, 32, 5, 1)
	xs, ys := make([]*tensor.Matrix, 4), make([]*tensor.Matrix, 4)
	for r := range xs {
		_, xs[r], ys[r] = share(batches[0], 4, r, ds.Dim())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		w.Run(func(c *comm.Comm) {
			if err := stores[c.Rank()].Fetch(batch, xs[c.Rank()], ys[c.Rank()]); err != nil {
				b.Error(err)
			}
		})
	}
}
