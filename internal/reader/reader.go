// Package reader implements LBANN-style data readers: dataset abstractions
// over in-memory and bundle-file storage, deterministic per-epoch shuffling,
// dataset partitioning (contiguous file ranges for LTFB trainers, random
// 1/k subsets for the K-independent baseline), and mini-batch assembly into
// tensors. The data store is the one reader of a BundleDataset's file
// layout (NumFiles, FileSamples, ReadFile): it preloads file by file. The
// performance model does not import this package; it simulates file access
// on the pfs model instead.
//
// SGD requires each mini-batch to be drawn uniformly from the whole
// dataset (Section IV-C): the per-epoch permutation guarantees that, and —
// because samples live in multi-sample bundle files in generation order —
// it is also what makes naive file-backed ingestion so expensive, which the
// data store exists to fix.
package reader

import (
	"fmt"
	"math/rand"

	"repro/internal/bundle"
	"repro/internal/tensor"
)

// Dataset is a fixed-width sample collection.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Dim returns the per-sample width.
	Dim() int
	// Sample copies sample i into dst (length Dim).
	Sample(i int, dst []float32) error
}

// SliceDataset is an in-memory dataset.
type SliceDataset struct {
	dim  int
	data [][]float32
}

// NewSliceDataset wraps records (all of width dim) as a dataset.
func NewSliceDataset(dim int, records [][]float32) (*SliceDataset, error) {
	for i, r := range records {
		if len(r) != dim {
			return nil, fmt.Errorf("reader: record %d has width %d, want %d", i, len(r), dim)
		}
	}
	return &SliceDataset{dim: dim, data: records}, nil
}

// Len returns the number of samples.
func (d *SliceDataset) Len() int { return len(d.data) }

// Dim returns the per-sample width.
func (d *SliceDataset) Dim() int { return d.dim }

// Sample copies sample i into dst.
func (d *SliceDataset) Sample(i int, dst []float32) error {
	if i < 0 || i >= len(d.data) {
		return fmt.Errorf("reader: sample %d outside [0,%d)", i, len(d.data))
	}
	if len(dst) != d.dim {
		return fmt.Errorf("reader: dst width %d, want %d", len(dst), d.dim)
	}
	copy(dst, d.data[i])
	return nil
}

// BundleDataset exposes a set of bundle files as one dataset, with global
// sample indices spanning the files in path order — the layout of the
// paper's 10,000-file HDF5 corpus.
type BundleDataset struct {
	readers []*bundle.Reader
	starts  []int // starts[f] = global index of file f's first sample
	total   int
	dim     int
}

// OpenBundles opens every path as a bundle; all must share one sample
// width. Close the dataset when done.
func OpenBundles(paths []string) (*BundleDataset, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("reader: no bundle paths")
	}
	d := &BundleDataset{}
	for _, p := range paths {
		r, err := bundle.Open(p)
		if err != nil {
			d.Close()
			return nil, err
		}
		if len(d.readers) == 0 {
			d.dim = r.Dim()
		} else if r.Dim() != d.dim {
			r.Close()
			d.Close()
			return nil, fmt.Errorf("reader: %s has width %d, others %d", p, r.Dim(), d.dim)
		}
		d.starts = append(d.starts, d.total)
		d.total += r.NumSamples()
		d.readers = append(d.readers, r)
	}
	return d, nil
}

// Len returns the number of samples across all files.
func (d *BundleDataset) Len() int { return d.total }

// Dim returns the per-sample width.
func (d *BundleDataset) Dim() int { return d.dim }

// NumFiles returns the number of backing bundle files.
func (d *BundleDataset) NumFiles() int { return len(d.readers) }

// FileOf locates global sample i.
func (d *BundleDataset) FileOf(i int) (file, local int) {
	lo, hi := 0, len(d.starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if d.starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, i - d.starts[lo]
}

// FileSamples returns the global indices stored in file f.
func (d *BundleDataset) FileSamples(f int) []int {
	n := d.readers[f].NumSamples()
	out := make([]int, n)
	for i := range out {
		out[i] = d.starts[f] + i
	}
	return out
}

// Sample copies global sample i into dst.
func (d *BundleDataset) Sample(i int, dst []float32) error {
	if i < 0 || i >= d.total {
		return fmt.Errorf("reader: sample %d outside [0,%d)", i, d.total)
	}
	f, local := d.FileOf(i)
	return d.readers[f].SampleInto(local, dst)
}

// ReadFile loads every sample of file f, the preload access pattern.
func (d *BundleDataset) ReadFile(f int) ([][]float32, error) {
	return d.readers[f].ReadAll()
}

// Close releases all underlying files.
func (d *BundleDataset) Close() error {
	var first error
	for _, r := range d.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Subset restricts a dataset to a fixed index list, renumbering samples to
// [0, len(idx)). It forwards file mapping when the base supports it, so a
// partitioned bundle corpus still exposes its file layout.
type Subset struct {
	Base Dataset
	Idx  []int
}

// NewSubset creates the restriction of base to idx. Indices must be within
// base's range.
func NewSubset(base Dataset, idx []int) (*Subset, error) {
	for _, i := range idx {
		if i < 0 || i >= base.Len() {
			return nil, fmt.Errorf("reader: subset index %d outside [0,%d)", i, base.Len())
		}
	}
	return &Subset{Base: base, Idx: idx}, nil
}

// Len returns the subset size.
func (s *Subset) Len() int { return len(s.Idx) }

// Dim returns the per-sample width.
func (s *Subset) Dim() int { return s.Base.Dim() }

// Sample copies subset sample i (base sample Idx[i]) into dst.
func (s *Subset) Sample(i int, dst []float32) error {
	if i < 0 || i >= len(s.Idx) {
		return fmt.Errorf("reader: sample %d outside [0,%d)", i, len(s.Idx))
	}
	return s.Base.Sample(s.Idx[i], dst)
}

// PartitionContiguous returns the index range of partition part of parts
// over n samples, with earlier partitions absorbing the remainder — the
// LTFB data partitioning: trainer k gets a contiguous run of files/samples.
func PartitionContiguous(n, parts, part int) []int {
	lo, size := partitionBounds(n, parts, part)
	out := make([]int, size)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// partitionBounds is the one remainder rule: partition part of parts over n
// items starts at lo and holds size of them.
func partitionBounds(n, parts, part int) (lo, size int) {
	if parts < 1 || part < 0 || part >= parts {
		panic(fmt.Sprintf("reader: partition %d of %d invalid", part, parts))
	}
	base, rem := n/parts, n%parts
	lo, size = part*base+min(part, rem), base
	if part < rem {
		size++
	}
	return lo, size
}

// PartitionRandom returns a uniformly random subset of size n/parts (plus
// remainder spread across low parts) without replacement, drawn with the
// given seed — the K-independent baseline's "random 1/k subset"
// (Section IV-E).
func PartitionRandom(n, parts, part int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return PartitionContiguousOf(rng.Perm(n), parts, part)
}

// PartitionContiguousOf returns partition part of parts of an explicit index
// list — a view of idx, not a copy — with the same remainder rule as
// PartitionContiguous. It is how a mini-batch is shared out over the ranks
// of a trainer.
func PartitionContiguousOf(idx []int, parts, part int) []int {
	lo, size := partitionBounds(len(idx), parts, part)
	return idx[lo : lo+size]
}

// Shuffler produces a deterministic permutation of [0,n) per epoch. All
// ranks of a trainer construct it with the same seed, so they agree on the
// batch schedule without communicating.
type Shuffler struct {
	n    int
	seed int64
	perm []int
}

// NewShuffler creates a shuffler over n samples.
func NewShuffler(n int, seed int64) *Shuffler {
	return &Shuffler{n: n, seed: seed}
}

// Epoch returns the permutation for the given epoch. Epoch 0 is the
// identity (generation order, matching the paper's first-epoch dynamic
// caching behaviour); later epochs are Fisher–Yates shuffles seeded by
// (seed, epoch).
func (s *Shuffler) Epoch(epoch int) []int {
	if cap(s.perm) < s.n {
		s.perm = make([]int, s.n)
	}
	s.perm = s.perm[:s.n]
	for i := range s.perm {
		s.perm[i] = i
	}
	if epoch > 0 {
		rng := rand.New(rand.NewSource(s.seed ^ int64(epoch)*0x9E3779B97F4A7C))
		rng.Shuffle(s.n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	}
	return s.perm
}

// Batches splits perm into consecutive mini-batches of size batch; a final
// short batch is dropped when dropLast is set (the paper trains with a
// fixed mini-batch of 128).
func Batches(perm []int, batch int, dropLast bool) [][]int {
	if batch < 1 {
		panic(fmt.Sprintf("reader: batch size %d < 1", batch))
	}
	var out [][]int
	for lo := 0; lo < len(perm); lo += batch {
		hi := lo + batch
		if hi > len(perm) {
			if dropLast {
				break
			}
			hi = len(perm)
		}
		out = append(out, perm[lo:hi])
	}
	return out
}

// SplitRow writes one flattened sample into row r of x (its leading x.Cols
// values, the inputs) and of y (the rest, the outputs).
func SplitRow(sample []float32, r int, x, y *tensor.Matrix) {
	if len(sample) != x.Cols+y.Cols {
		panic(fmt.Sprintf("reader: sample of width %d into x|y of %d+%d columns", len(sample), x.Cols, y.Cols))
	}
	copy(x.Row(r), sample[:x.Cols])
	copy(y.Row(r), sample[x.Cols:])
}

// FillXY reads samples idx of ds into rows 0..len(idx) of x and y, split as
// SplitRow splits them.
func FillXY(ds Dataset, idx []int, x, y *tensor.Matrix) error {
	row := make([]float32, ds.Dim())
	for r, i := range idx {
		if err := ds.Sample(i, row); err != nil {
			return err
		}
		SplitRow(row, r, x, y)
	}
	return nil
}
