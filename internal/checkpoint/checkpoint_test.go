package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func tinySurrogate(seed int64) *cyclegan.Surrogate {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{16}
	cfg.ForwardHidden = []int{8}
	cfg.InverseHidden = []int{8}
	cfg.DiscHidden = []int{8}
	return cyclegan.New(cfg, seed)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	src := tinySurrogate(1)
	if err := Save(path, 1234, src.Nets()); err != nil {
		t.Fatal(err)
	}
	dst := tinySurrogate(2)
	step, err := Load(path, dst.Nets())
	if err != nil {
		t.Fatal(err)
	}
	if step != 1234 {
		t.Fatalf("step = %d, want 1234", step)
	}
	a := nn.MarshalNetworks(src.Nets())
	b := nn.MarshalNetworks(dst.Nets())
	if string(a) != string(b) {
		t.Fatal("weights corrupted in round trip")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	m := tinySurrogate(3)
	if _, err := Load(filepath.Join(dir, "missing"), m.Nets()); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("not a checkpoint"), 0o644)
	if _, err := Load(bad, m.Nets()); err == nil {
		t.Fatal("bad magic must error")
	}
	// Architecture mismatch.
	path := filepath.Join(dir, "ok.ckpt")
	if err := Save(path, 1, m.Nets()); err != nil {
		t.Fatal(err)
	}
	other := cyclegan.New(cyclegan.DefaultConfig(jag.Tiny8), 1)
	if _, err := Load(path, other.Nets()); err == nil {
		t.Fatal("architecture mismatch must error")
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	m := tinySurrogate(4)
	if err := Save(path, 1, m.Nets()); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, 2, m.Nets()); err != nil {
		t.Fatal(err)
	}
	step, err := Load(path, m.Nets())
	if err != nil {
		t.Fatal(err)
	}
	if step != 2 {
		t.Fatalf("step = %d, want 2", step)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

// TestSavedCheckpointIsWorldReadable: a checkpoint lands with mode 0644,
// like the spec beside it, so a server running as another user can load
// it. A write that fails leaves the file before it as it was, and no
// temporary file.
func TestSavedCheckpointIsWorldReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := Save(path, 1, tinySurrogate(5).Nets()); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("checkpoint mode %v, want -rw-r--r--", info.Mode().Perm())
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fail := func(w io.Writer) error {
		w.Write([]byte("half"))
		return errors.New("disk full")
	}
	if err := WriteAtomic(path, fail); err == nil || err.Error() != "write: disk full" {
		t.Fatalf("failed fill: error %v, want write: disk full", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a failed write changed the file (%v)", err)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("directory has %d entries after a failed write, want 1 (%v)", len(entries), err)
	}
}

// TestFingerprint pins the content-identity contract the serving-side
// checkpoint watcher relies on: identical weights fingerprint
// identically regardless of when they were saved, any weight change
// moves the fingerprint, and a missing file errors instead of hashing
// to something.
func TestFingerprint(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")
	m := tinySurrogate(5)
	if err := Save(a, 1, m.Nets()); err != nil {
		t.Fatal(err)
	}
	if err := Save(b, 1, m.Nets()); err != nil {
		t.Fatal(err)
	}
	fa, err := Fingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa == "" || fa != fb {
		t.Fatalf("identical checkpoints fingerprint %q vs %q", fa, fb)
	}

	// A different step counter alone is a content change: the watcher
	// must notice a re-save even when the weights round-tripped.
	if err := Save(a, 2, m.Nets()); err != nil {
		t.Fatal(err)
	}
	if fa2, err := Fingerprint(a); err != nil || fa2 == fa {
		t.Fatalf("step-only change kept fingerprint (%v)", err)
	}

	// One changed weight must move the fingerprint too.
	m.Forward.Params()[0].W.Data[0] += 1
	if err := Save(b, 1, m.Nets()); err != nil {
		t.Fatal(err)
	}
	fb2, err := Fingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fb2 == fb {
		t.Fatal("changed weights kept the same fingerprint")
	}

	if _, err := Fingerprint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

// Checkpoint/restart equivalence: resuming from a checkpoint must produce
// the same predictions as the model that was saved.
func TestResumeEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	src := tinySurrogate(7)
	// Mutate the source (simulating training), checkpoint, then restore
	// into a fresh replica and compare behaviour.
	for _, p := range src.Forward.Params() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.01 * float32(i%7)
		}
	}
	if err := Save(path, 77, src.Nets()); err != nil {
		t.Fatal(err)
	}
	resumed := tinySurrogate(1234)
	if _, err := Load(path, resumed.Nets()); err != nil {
		t.Fatal(err)
	}
	s := jag.SimulateAt(jag.Tiny8, 42)
	x := tensor.FromSlice(1, jag.InputDim, s.X)
	a := src.Predict(x)
	b := resumed.Predict(x)
	if !a.Equal(b) {
		t.Fatal("resumed model predicts differently")
	}
}

// goldenNets rebuilds the two small networks testdata/golden_pr14.ckpt was
// saved from (at step 1234), with weights set by formula so the file does
// not depend on the initializer. lastOut widens the second network, for the
// wrong-architecture cases.
func goldenNets(lastOut int) []*nn.Network {
	rng := rand.New(rand.NewSource(1))
	nets := []*nn.Network{
		nn.MLP("a", []int{3, 4, 2}, nn.ActLeakyReLU, nn.ActNone, rng),
		nn.MLP("b", []int{2, lastOut}, nn.ActNone, nn.ActSigmoid, rng),
	}
	k := 0
	for _, n := range nets {
		for _, p := range n.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = float32(k%17)*0.25 - 2
				k++
			}
		}
	}
	return nets
}

const (
	goldenFile        = "testdata/golden_pr14.ckpt"
	goldenFingerprint = "9ef5adf30ad1315a3974c1b3435eb8b54105de569bec99865b013a6e603b1a0e"
)

// TestStreamedFileMatchesGolden: testdata/golden_pr14.ckpt was written by
// PR 14's Save, which built the file in memory (CKP1 header +
// nn.MarshalNetworks) and wrote it in one piece. The streaming Save must
// produce those bytes and that fingerprint exactly — a serving fleet's
// reload watcher compares fingerprints across versions — and the streaming
// Load must read the old file.
func TestStreamedFileMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := Fingerprint(goldenFile); err != nil || fp != goldenFingerprint {
		t.Fatalf("golden file fingerprints %q (%v), want %q", fp, err, goldenFingerprint)
	}
	path := filepath.Join(t.TempDir(), "streamed.ckpt")
	if err := Save(path, 1234, goldenNets(5)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed file (%d bytes) differs from the golden file (%d bytes)", len(got), len(want))
	}
	if fp, err := Fingerprint(path); err != nil || fp != goldenFingerprint {
		t.Fatalf("streamed file fingerprints %q (%v), want %q", fp, err, goldenFingerprint)
	}

	rng := rand.New(rand.NewSource(2))
	loaded := []*nn.Network{
		nn.MLP("a", []int{3, 4, 2}, nn.ActLeakyReLU, nn.ActNone, rng),
		nn.MLP("b", []int{2, 5}, nn.ActNone, nn.ActSigmoid, rng),
	}
	step, err := Load(goldenFile, loaded)
	if err != nil || step != 1234 {
		t.Fatalf("Load(golden) = step %d, %v; want 1234", step, err)
	}
	if !bytes.Equal(nn.MarshalNetworks(loaded), nn.MarshalNetworks(goldenNets(5))) {
		t.Fatal("weights loaded from the golden file differ from the ones it was saved from")
	}
}

// TestLoadRejectsDamagedFiles cuts, extends and mislabels the golden file.
// Each case must fail with the error PR 14's read-the-whole-file Load gave
// for the same bytes ("<path>" stands for the file's path).
func TestLoadRejectsDamagedFiles(t *testing.T) {
	good, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(off int, delta byte) []byte {
		b := bytes.Clone(good)
		b[off] += delta
		return b
	}
	path := filepath.Join(t.TempDir(), "damaged.ckpt")
	for _, c := range []struct {
		name string
		file []byte
		nets []*nn.Network
		want string
	}{
		{"empty", nil, goldenNets(5), "checkpoint: <path> is not a checkpoint file"},
		{"cut in the header", good[:7], goldenNets(5), "checkpoint: <path> is not a checkpoint file"},
		{"file magic", edit(0, 1), goldenNets(5), "checkpoint: <path> is not a checkpoint file"},
		{"header only", good[:12], goldenNets(5), "checkpoint: <path>: nn: network-set buffer missing magic"},
		{"set magic", edit(12, 1), goldenNets(5), "checkpoint: <path>: nn: network-set buffer missing magic"},
		{"cut in a length", good[:22], goldenNets(5), "checkpoint: <path>: nn: network-set buffer truncated at net 0"},
		{"cut in the first net", good[:100], goldenNets(5), "checkpoint: <path>: nn: network-set buffer truncated in net 0"},
		{"cut in the last float", good[:len(good)-1], goldenNets(5), "checkpoint: <path>: nn: network-set buffer truncated in net 1"},
		{"trailing bytes", append(bytes.Clone(good), 0, 0, 0), goldenNets(5), "checkpoint: <path>: nn: network-set buffer has 3 trailing bytes"},
		{"wrong shape", good, goldenNets(6), `checkpoint: <path>: nn: net 1 (b): nn: param "linear_2x6.w" shape 2x5 in buffer, want 2x6`},
		{"wrong net count", good, goldenNets(5)[:1], "checkpoint: <path>: nn: buffer holds 2 networks, want 1"},
		{"net magic", edit(24, 1), goldenNets(5), `checkpoint: <path>: nn: net 0 (a): nn: weight buffer missing "NNW1" magic`},
		{"blob length short", edit(20, 0xff), goldenNets(5), `checkpoint: <path>: nn: net 0 (a): nn: weight buffer truncated in param "linear_4x2.b" data`},
		{"blob length long", edit(20, 4), goldenNets(5), "checkpoint: <path>: nn: net 0 (a): nn: weight buffer has 4 trailing bytes"},
	} {
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path, c.nets)
		if err == nil {
			t.Errorf("%s: loaded", c.name)
			continue
		}
		if got := strings.ReplaceAll(err.Error(), path, "<path>"); got != c.want {
			t.Errorf("%s: error %q, want %q", c.name, got, c.want)
		}
	}
}

// pinnedSmall16 is the SHA-256 of Save(path, 7, New(DefaultConfig(Small16),
// 1).Nets()) as the per-float encoder wrote it, before the codec copied a
// little-endian host's floats in bulk.
const pinnedSmall16 = "7e58e3e97f188042c6f973ae7e868cfbb6f34ad26e7079b4035be0e71d7a88fb"

// TestSavedBytesPinned: a fixed-seed Small16 checkpoint is the same file on
// both byte-order paths of the codec — the one-copy path of a little-endian
// host and the per-float conversion of a big-endian one, which writes and
// reads little-endian words on any host — and the same file the per-float
// encoder wrote. Each path loads it back bit for bit.
func TestSavedBytesPinned(t *testing.T) {
	cfg := cyclegan.DefaultConfig(jag.Small16)
	model := cyclegan.New(cfg, 1)
	want := nn.MarshalNetworks(model.Nets())
	dir := t.TempDir()
	run := func(name string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := Save(path, 7, model.Nets()); err != nil {
			t.Fatal(err)
		}
		if fp, err := Fingerprint(path); err != nil || fp != pinnedSmall16 {
			t.Fatalf("%s: saved file fingerprints %q (%v), want %q", name, fp, err, pinnedSmall16)
		}
		loaded := cyclegan.NewZero(cfg)
		if step, err := Load(path, loaded.Nets()); err != nil || step != 7 {
			t.Fatalf("%s: Load = step %d, %v; want 7", name, step, err)
		}
		if !bytes.Equal(nn.MarshalNetworks(loaded.Nets()), want) {
			t.Fatalf("%s: loaded weights differ from the saved ones", name)
		}
	}
	run("native.ckpt")
	tensor.NativeLE = !tensor.NativeLE
	defer func() { tensor.NativeLE = !tensor.NativeLE }()
	run("flipped.ckpt")
}

// BenchmarkCheckpointSaveLoad saves and re-loads the paper-geometry
// surrogate (a 50 MB file), as two sub-benchmarks so each side's cost shows
// apart; the load fills a zero-weight surrogate, as serving does. Run with
// -benchmem: B/op is what one save or load costs in transient memory,
// which streaming holds to bufio's fixed buffers; building and parsing the
// file in memory cost about four times the file.
func BenchmarkCheckpointSaveLoad(b *testing.B) {
	cfg := cyclegan.DefaultConfig(jag.Default64)
	model := cyclegan.New(cfg, 1)
	path := filepath.Join(b.TempDir(), "paper64.ckpt")
	if err := Save(path, 1, model.Nets()); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.SetBytes(info.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Save(path, int64(i), model.Nets()); err != nil {
				b.Fatal(err)
			}
		}
	})
	dst := cyclegan.NewZero(cfg)
	b.Run("load", func(b *testing.B) {
		b.SetBytes(info.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Load(path, dst.Nets()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
