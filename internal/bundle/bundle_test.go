package bundle

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func makeRecords(rng *rand.Rand, count, dim int) [][]float32 {
	recs := make([][]float32, count)
	for i := range recs {
		recs[i] = make([]float32, dim)
		for j := range recs[i] {
			recs[i][j] = float32(rng.NormFloat64())
		}
	}
	return recs
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jagb")
	rng := rand.New(rand.NewSource(1))
	recs := makeRecords(rng, 37, 11)
	if err := Write(path, 11, recs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumSamples() != 37 || r.Dim() != 11 {
		t.Fatalf("header says %d samples x %d, want 37x11", r.NumSamples(), r.Dim())
	}
	got := make([]float32, r.Dim())
	for i := range recs {
		if err := r.SampleInto(i, got); err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != recs[i][j] {
				t.Fatalf("sample %d elem %d: got %v want %v", i, j, got[j], recs[i][j])
			}
		}
	}
}

func TestReadAllMatchesPerSample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.jagb")
	rng := rand.New(rand.NewSource(2))
	recs := makeRecords(rng, 100, 7)
	if err := Write(path, 7, recs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Fatalf("ReadAll returned %d samples", len(all))
	}
	for i := range all {
		for j := range all[i] {
			if all[i][j] != recs[i][j] {
				t.Fatalf("ReadAll sample %d differs", i)
			}
		}
	}
}

// TestRoundTripEitherByteOrder: with tensor.NativeLE flipped, Write takes
// the big-endian hosts' conversion path and must write the same bytes as the
// native path, and SampleInto and ReadAll must read them back exactly.
func TestRoundTripEitherByteOrder(t *testing.T) {
	dir := t.TempDir()
	recs := makeRecords(rand.New(rand.NewSource(3)), 23, 9)
	write := func(name string) []byte {
		path := filepath.Join(dir, name)
		if err := Write(path, 9, recs); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	native := write("native.jagb")
	tensor.NativeLE = !tensor.NativeLE
	defer func() { tensor.NativeLE = !tensor.NativeLE }()
	if flipped := write("flipped.jagb"); !bytes.Equal(flipped, native) {
		t.Fatal("the conversion path wrote other bytes than the native one")
	}
	r, err := Open(filepath.Join(dir, "native.jagb"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 9)
	for i, rec := range recs {
		if err := r.SampleInto(i, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, rec) || !slices.Equal(all[i], rec) {
			t.Fatalf("sample %d read back as %v and %v, want %v", i, got, all[i], rec)
		}
	}
}

func TestEmptyBundle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jagb")
	if err := Write(path, 5, nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumSamples() != 0 {
		t.Fatalf("empty bundle has %d samples", r.NumSamples())
	}
	if err := r.SampleInto(0, nil); err == nil {
		t.Fatal("reading from empty bundle must error")
	}
}

func TestWriteRejectsWrongWidth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.jagb")
	err := Write(path, 3, [][]float32{{1, 2, 3}, {1, 2}})
	if err == nil {
		t.Fatal("want error for mismatched record width")
	}
}

func TestSampleBoundsAndDstWidth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jagb")
	recs := makeRecords(rand.New(rand.NewSource(3)), 4, 3)
	if err := Write(path, 3, recs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.SampleInto(-1, make([]float32, 3)); err == nil {
		t.Fatal("negative index must error")
	}
	if err := r.SampleInto(4, make([]float32, 3)); err == nil {
		t.Fatal("out-of-range index must error")
	}
	if err := r.SampleInto(0, make([]float32, 2)); err == nil {
		t.Fatal("wrong dst width must error")
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()

	short := filepath.Join(dir, "short")
	os.WriteFile(short, []byte("JA"), 0o644)
	if _, err := Open(short); err == nil {
		t.Fatal("short header must error")
	}

	badMagic := filepath.Join(dir, "magic")
	os.WriteFile(badMagic, make([]byte, 32), 0o644)
	if _, err := Open(badMagic); err == nil {
		t.Fatal("bad magic must error")
	}

	good := filepath.Join(dir, "good")
	if err := Write(good, 2, [][]float32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	truncated := filepath.Join(dir, "trunc")
	os.WriteFile(truncated, data[:len(data)-3], 0o644)
	if _, err := Open(truncated); err == nil {
		t.Fatal("truncated body must error")
	}

	badVersion := filepath.Join(dir, "ver")
	data2 := append([]byte(nil), data...)
	data2[4] = 99
	os.WriteFile(badVersion, data2, 0o644)
	if _, err := Open(badVersion); err == nil {
		t.Fatal("bad version must error")
	}

	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestConcurrentSampleReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.jagb")
	recs := makeRecords(rand.New(rand.NewSource(4)), 64, 9)
	if err := Write(path, 9, recs); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			got := make([]float32, r.Dim())
			for k := 0; k < 200; k++ {
				i := rng.Intn(64)
				if err := r.SampleInto(i, got); err != nil {
					errs <- err
					return
				}
				if got[0] != recs[i][0] {
					errs <- err
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFileBytesMatchesDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sz.jagb")
	recs := makeRecords(rand.New(rand.NewSource(5)), 13, 6)
	if err := Write(path, 6, recs); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != FileBytes(13, 6) {
		t.Fatalf("disk size %d, FileBytes %d", info.Size(), FileBytes(13, 6))
	}
}

// Property: any generated record set round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(seed int64, countRaw, dimRaw uint8) bool {
		n++
		count := int(countRaw % 20)
		dim := int(dimRaw%8) + 1
		path := filepath.Join(dir, "p", "q")
		os.MkdirAll(filepath.Dir(path), 0o755)
		recs := makeRecords(rand.New(rand.NewSource(seed)), count, dim)
		if err := Write(path, dim, recs); err != nil {
			return false
		}
		r, err := Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		all, err := r.ReadAll()
		if err != nil {
			return false
		}
		for i := range recs {
			for j := range recs[i] {
				if all[i][j] != recs[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomSampleAccess(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.jagb")
	recs := makeRecords(rand.New(rand.NewSource(6)), 1000, 64)
	if err := Write(path, 64, recs); err != nil {
		b.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	dst := make([]float32, 64)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.SampleInto(rng.Intn(1000), dst); err != nil {
			b.Fatal(err)
		}
	}
}
