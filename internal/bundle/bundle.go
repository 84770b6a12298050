// Package bundle implements the multi-sample container files the dataset is
// packaged in. The paper stores its 10M+1M JAG samples as 10,000 HDF5 files
// of 1,000 samples each (Section II-C); this package reproduces the property
// that matters to the systems experiments — many fixed-width samples per
// file with random per-sample access — using a simple indexed binary format:
//
//	magic "JAGB" | uint32 version | uint32 sampleCount | uint32 sampleDim |
//	sampleCount × sampleDim little-endian float32
//
// Because SGD draws mini-batches uniformly from the whole dataset while
// files hold samples in generation order, a naive reader touches many files
// per batch; the data store (internal/datastore) exists to kill exactly that
// access pattern, and the performance model charges file-system costs based
// on the open/read counts this layout induces.
package bundle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

const (
	magic      = "JAGB"
	version    = 1
	headerSize = 16
)

// SampleBytes returns the on-disk size of one sample of width dim.
func SampleBytes(dim int) int64 { return int64(4 * dim) }

// FileBytes returns the total on-disk size of a bundle holding count samples
// of width dim.
func FileBytes(count, dim int) int64 { return headerSize + int64(count)*SampleBytes(dim) }

// Write creates (or truncates) a bundle at path holding the given records,
// all of which must have width dim.
func Write(path string, dim int, records [][]float32) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bundle: create: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bundle: close: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	h := make([]byte, 0, headerSize)
	h = append(h, magic...)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(records)))
	h = binary.LittleEndian.AppendUint32(h, uint32(dim))
	if _, err := w.Write(h); err != nil {
		return err
	}
	scratch := floatScratch(dim)
	for i, rec := range records {
		if len(rec) != dim {
			return fmt.Errorf("bundle: record %d has width %d, want %d", i, len(rec), dim)
		}
		if err := tensor.WriteFloatsLE(w, rec, scratch); err != nil {
			return err
		}
	}
	return w.Flush()
}

// floatScratch returns the scratch tensor.WriteFloatsLE and ReadFloatsLE
// convert samples of width dim through: none on a little-endian host, whose
// floats are already the file's bytes.
func floatScratch(dim int) []byte {
	if tensor.NativeLE {
		return nil
	}
	return make([]byte, SampleBytes(dim))
}

// Reader provides random per-sample access to one bundle file. It is safe
// for concurrent SampleInto calls (reads use ReadAt).
type Reader struct {
	f     *os.File
	path  string
	count int
	dim   int
}

// Open validates the header of the bundle at path and returns a reader.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: open: %w", err)
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("bundle: %s: short header: %w", path, err)
	}
	if string(h[:4]) != magic {
		f.Close()
		return nil, fmt.Errorf("bundle: %s: bad magic %q", path, h[:4])
	}
	if v := binary.LittleEndian.Uint32(h[4:8]); v != version {
		f.Close()
		return nil, fmt.Errorf("bundle: %s: unsupported version %d", path, v)
	}
	r := &Reader{
		f:     f,
		path:  path,
		count: int(binary.LittleEndian.Uint32(h[8:12])),
		dim:   int(binary.LittleEndian.Uint32(h[12:16])),
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("bundle: %s: stat: %w", path, err)
	}
	if info.Size() != FileBytes(r.count, r.dim) {
		f.Close()
		return nil, fmt.Errorf("bundle: %s: size %d, header implies %d", path, info.Size(), FileBytes(r.count, r.dim))
	}
	return r, nil
}

// NumSamples returns the number of samples in the bundle.
func (r *Reader) NumSamples() int { return r.count }

// Dim returns the per-sample width.
func (r *Reader) Dim() int { return r.dim }

// SampleInto reads sample i into dst, which must have length Dim.
func (r *Reader) SampleInto(i int, dst []float32) error {
	if i < 0 || i >= r.count {
		return fmt.Errorf("bundle: %s: sample %d outside [0,%d)", r.path, i, r.count)
	}
	if len(dst) != r.dim {
		return fmt.Errorf("bundle: %s: dst width %d, want %d", r.path, len(dst), r.dim)
	}
	off := headerSize + int64(i)*SampleBytes(r.dim)
	if err := tensor.ReadFloatsLE(io.NewSectionReader(r.f, off, SampleBytes(r.dim)), dst, floatScratch(r.dim)); err != nil {
		return fmt.Errorf("bundle: %s: read sample %d: %w", r.path, i, err)
	}
	return nil
}

// ReadAll returns every sample in index order, as views of one block; this
// is the preload path, which touches the file once sequentially.
func (r *Reader) ReadAll() ([][]float32, error) {
	block := make([]float32, r.count*r.dim)
	all := io.NewSectionReader(r.f, headerSize, int64(len(block))*4)
	if err := tensor.ReadFloatsLE(all, block, floatScratch(r.dim)); err != nil {
		return nil, fmt.Errorf("bundle: %s: read all: %w", r.path, err)
	}
	out := make([][]float32, r.count)
	for i := range out {
		out[i] = block[i*r.dim : (i+1)*r.dim : (i+1)*r.dim]
	}
	return out, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
