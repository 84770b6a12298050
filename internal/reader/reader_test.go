package reader

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bundle"
	"repro/internal/tensor"
)

func sliceDS(t *testing.T, n, dim int) *SliceDataset {
	t.Helper()
	recs := make([][]float32, n)
	for i := range recs {
		recs[i] = make([]float32, dim)
		for j := range recs[i] {
			recs[i][j] = float32(i*100 + j)
		}
	}
	ds, err := NewSliceDataset(dim, recs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func bundleDS(t *testing.T, filesSizes []int, dim int) *BundleDataset {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	global := 0
	for f, size := range filesSizes {
		recs := make([][]float32, size)
		for i := range recs {
			recs[i] = make([]float32, dim)
			recs[i][0] = float32(global) // tag with the global index
			global++
		}
		p := filepath.Join(dir, fmt.Sprintf("f%03d.jagb", f))
		if err := bundle.Write(p, dim, recs); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	ds, err := OpenBundles(paths)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

func TestSliceDatasetBasics(t *testing.T) {
	ds := sliceDS(t, 5, 3)
	if ds.Len() != 5 || ds.Dim() != 3 {
		t.Fatalf("len/dim = %d/%d", ds.Len(), ds.Dim())
	}
	dst := make([]float32, 3)
	if err := ds.Sample(2, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 200 || dst[2] != 202 {
		t.Fatalf("sample 2 = %v", dst)
	}
	if err := ds.Sample(5, dst); err == nil {
		t.Fatal("out-of-range must error")
	}
	if err := ds.Sample(0, make([]float32, 2)); err == nil {
		t.Fatal("wrong width must error")
	}
	if _, err := NewSliceDataset(3, [][]float32{{1, 2}}); err == nil {
		t.Fatal("mismatched record width must error")
	}
}

func TestBundleDatasetGlobalIndexing(t *testing.T) {
	ds := bundleDS(t, []int{3, 5, 2}, 4)
	if ds.Len() != 10 || ds.NumFiles() != 3 {
		t.Fatalf("len=%d files=%d", ds.Len(), ds.NumFiles())
	}
	dst := make([]float32, 4)
	for i := 0; i < 10; i++ {
		if err := ds.Sample(i, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != float32(i) {
			t.Fatalf("sample %d tagged %v", i, dst[0])
		}
	}
	cases := []struct{ global, file, local int }{{0, 0, 0}, {2, 0, 2}, {3, 1, 0}, {7, 1, 4}, {8, 2, 0}, {9, 2, 1}}
	for _, c := range cases {
		f, l := ds.FileOf(c.global)
		if f != c.file || l != c.local {
			t.Fatalf("FileOf(%d) = (%d,%d), want (%d,%d)", c.global, f, l, c.file, c.local)
		}
	}
	if got := ds.FileSamples(1); !reflect.DeepEqual(got, []int{3, 4, 5, 6, 7}) {
		t.Fatalf("FileSamples(1) = %v", got)
	}
	all, err := ds.ReadFile(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0][0] != 8 {
		t.Fatalf("ReadFile(2) = %v", all)
	}
}

func TestOpenBundlesErrors(t *testing.T) {
	if _, err := OpenBundles(nil); err == nil {
		t.Fatal("no paths must error")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a")
	b := filepath.Join(dir, "b")
	bundle.Write(a, 3, [][]float32{{1, 2, 3}})
	bundle.Write(b, 4, [][]float32{{1, 2, 3, 4}})
	if _, err := OpenBundles([]string{a, b}); err == nil {
		t.Fatal("mismatched widths must error")
	}
	if _, err := OpenBundles([]string{a, filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestSubset(t *testing.T) {
	ds := sliceDS(t, 10, 2)
	sub, err := NewSubset(ds, []int{7, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 3 || sub.Dim() != 2 {
		t.Fatalf("len/dim = %d/%d", sub.Len(), sub.Dim())
	}
	dst := make([]float32, 2)
	if err := sub.Sample(1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 300 {
		t.Fatalf("subset sample 1 = %v, want base sample 3", dst)
	}
	if err := sub.Sample(3, dst); err == nil {
		t.Fatal("out-of-range must error")
	}
	if _, err := NewSubset(ds, []int{10}); err == nil {
		t.Fatal("invalid base index must error")
	}
}

func TestPartitionContiguousCoversDisjoint(t *testing.T) {
	f := func(nRaw, partsRaw uint8) bool {
		n := int(nRaw)
		parts := int(partsRaw%8) + 1
		var all []int
		for p := 0; p < parts; p++ {
			all = append(all, PartitionContiguous(n, parts, p)...)
		}
		if len(all) != n {
			return false
		}
		for i, v := range all {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSizesBalanced(t *testing.T) {
	sizes := map[int]bool{}
	for p := 0; p < 7; p++ {
		sizes[len(PartitionContiguous(100, 7, p))] = true
	}
	// 100/7: parts of 15 and 14 only.
	if !sizes[15] || !sizes[14] || len(sizes) != 2 {
		t.Fatalf("unbalanced partition sizes: %v", sizes)
	}
}

func TestPartitionRandomDeterministicAndDisjoint(t *testing.T) {
	a := PartitionRandom(50, 4, 1, 42)
	b := PartitionRandom(50, 4, 1, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give same partition")
	}
	c := PartitionRandom(50, 4, 1, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
	seen := map[int]bool{}
	total := 0
	for p := 0; p < 4; p++ {
		part := PartitionRandom(50, 4, p, 42)
		total += len(part)
		for _, i := range part {
			if seen[i] {
				t.Fatalf("index %d in two partitions", i)
			}
			seen[i] = true
		}
	}
	if total != 50 {
		t.Fatalf("partitions cover %d of 50", total)
	}
	// A random partition should not be contiguous.
	sorted := append([]int(nil), a...)
	sort.Ints(sorted)
	contiguous := true
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			contiguous = false
		}
	}
	if contiguous {
		t.Fatal("random partition came out contiguous (suspicious)")
	}
}

func TestPartitionPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { PartitionContiguous(10, 0, 0) },
		func() { PartitionContiguous(10, 3, 3) },
		func() { PartitionRandom(10, 3, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestShufflerEpochZeroIdentity(t *testing.T) {
	s := NewShuffler(6, 9)
	perm := s.Epoch(0)
	if !reflect.DeepEqual(perm, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("epoch 0 perm = %v", perm)
	}
}

func TestShufflerDeterministicPermutation(t *testing.T) {
	a := NewShuffler(100, 5).Epoch(3)
	b := NewShuffler(100, 5).Epoch(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed,epoch) must agree")
	}
	aCopy := append([]int(nil), a...)
	c := NewShuffler(100, 5).Epoch(4)
	if reflect.DeepEqual(aCopy, c) {
		t.Fatal("different epochs should differ")
	}
	sort.Ints(aCopy)
	for i, v := range aCopy {
		if v != i {
			t.Fatal("epoch perm is not a permutation")
		}
	}
}

func TestBatches(t *testing.T) {
	perm := []int{0, 1, 2, 3, 4, 5, 6}
	b := Batches(perm, 3, false)
	if len(b) != 3 || len(b[2]) != 1 {
		t.Fatalf("batches = %v", b)
	}
	b = Batches(perm, 3, true)
	if len(b) != 2 {
		t.Fatalf("dropLast batches = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batch size 0 must panic")
		}
	}()
	Batches(perm, 0, false)
}

func TestAssembleBatchAndSplitXY(t *testing.T) {
	ds := sliceDS(t, 6, 4)
	x, y := tensor.New(3, 1), tensor.New(3, 3)
	if err := FillXY(ds, []int{5, 0, 2}, x, y); err != nil {
		t.Fatal(err)
	}
	if x.At(0, 0) != 500 || y.At(2, 2) != 203 {
		t.Fatalf("batch content wrong: x %v y %v", x, y)
	}
	if x.At(1, 0) != 0 || y.At(1, 0) != 1 {
		t.Fatalf("split content wrong: x %v y %v", x, y)
	}
	// A shorter index list fills the leading rows and leaves the rest.
	if err := FillXY(ds, []int{1}, x, y); err != nil {
		t.Fatal(err)
	}
	if x.At(0, 0) != 100 || y.At(0, 2) != 103 || x.At(1, 0) != 0 || y.At(2, 2) != 203 {
		t.Fatalf("partial fill wrong: x %v y %v", x, y)
	}
	if err := FillXY(ds, []int{99}, x, y); err == nil {
		t.Fatal("bad index must error")
	}
}

func TestSplitXYPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("x and y that do not add up to the sample's width must panic")
		}
	}()
	SplitRow(make([]float32, 3), 0, tensor.New(2, 1), tensor.New(2, 3))
}

// TestPartitionContiguousOfIsAView: the parts are sub-slices of the list in
// order, covering it, sized by PartitionContiguous's rule.
func TestPartitionContiguousOfIsAView(t *testing.T) {
	idx := []int{9, 8, 7, 6, 5, 4, 3}
	at := 0
	for part := 0; part < 3; part++ {
		got := PartitionContiguousOf(idx, 3, part)
		if len(got) != len(PartitionContiguous(len(idx), 3, part)) {
			t.Fatalf("part %d has %d items", part, len(got))
		}
		if len(got) > 0 && &got[0] != &idx[at] {
			t.Fatalf("part %d is not idx[%d:]", part, at)
		}
		at += len(got)
	}
	if at != len(idx) {
		t.Fatalf("parts cover %d of %d items", at, len(idx))
	}
}

func BenchmarkBundleDatasetRandomAccess(b *testing.B) {
	dir := b.TempDir()
	var paths []string
	for f := 0; f < 10; f++ {
		recs := make([][]float32, 100)
		for i := range recs {
			recs[i] = make([]float32, 32)
		}
		p := filepath.Join(dir, fmt.Sprintf("%d.jagb", f))
		if err := bundle.Write(p, 32, recs); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, p)
	}
	ds, err := OpenBundles(paths)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	dst := make([]float32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Sample((i*37)%1000, dst); err != nil {
			b.Fatal(err)
		}
	}
}
