package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// nopReducer leaves gradients untouched: single-replica training.
type nopReducer struct{}

func (nopReducer) Reduce([]*nn.Param) {}

// testBatch builds a deterministic input batch.
func testBatch(n int) *tensor.Matrix {
	x := tensor.New(n, jag.InputDim)
	for i := 0; i < n; i++ {
		copy(x.Row(i), testInput(i))
	}
	return x
}

// TestCheckpointRoundTripBitwise saves a surrogate, reloads it through
// the serve pool, and requires bitwise-identical predictions — the
// guarantee that deploying a checkpoint serves exactly the model that
// was trained.
func TestCheckpointRoundTripBitwise(t *testing.T) {
	cfg := testModelCfg()
	model := cyclegan.New(cfg, 7)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := checkpoint.Save(path, 123, model.Nets()); err != nil {
		t.Fatal(err)
	}

	pool, err := NewPoolFromCheckpoints(cfg, []string{path}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Replicas() != 2 {
		t.Fatalf("replicas = %d, want 2", pool.Replicas())
	}

	x := testBatch(6)
	want := model.Predict(x)
	for rep := 0; rep < pool.Replicas(); rep++ { // round-robin hits both
		got, err := pool.Run(MethodPredict, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("replica pass %d: reloaded prediction differs from in-memory model", rep)
		}
	}
	// The inverse pass round-trips the same way.
	wantInv := model.Invert(x)
	gotInv, err := pool.Run(MethodInvert, x)
	if err != nil {
		t.Fatal(err)
	}
	if !gotInv.Equal(wantInv) {
		t.Fatal("reloaded invert differs from in-memory model")
	}
	// A replica is loaded, canaried and served without ever training,
	// so each generator network carries weights only: no gradient
	// accumulators.
	if err := canary(pool); err != nil {
		t.Fatal(err)
	}
	for i, g := range pool.replicas {
		for _, n := range g.Nets() {
			for _, p := range n.Params() {
				if p.Grad != nil {
					t.Fatalf("replica %d %s %s holds gradient storage", i, n.Name, p.Name)
				}
			}
		}
	}
}

// TestPoolFromCheckpointMatchesSeededLoad is the differential check on the
// zero-weight load: a pool from NewPoolFromCheckpoints answers Predict and
// Invert with the bits of a surrogate built from a seed by New and then
// loaded from the same file, at two geometries.
func TestPoolFromCheckpointMatchesSeededLoad(t *testing.T) {
	for _, g := range []jag.Config{jag.Tiny8, jag.Small16} {
		cfg := cyclegan.DefaultConfig(g)
		path := filepath.Join(t.TempDir(), "model.ckpt")
		if err := checkpoint.Save(path, 3, cyclegan.New(cfg, 31).Nets()); err != nil {
			t.Fatal(err)
		}
		ref := cyclegan.New(cfg, 32)
		if _, err := checkpoint.Load(path, ref.Nets()); err != nil {
			t.Fatal(err)
		}
		pool, err := NewPoolFromCheckpoints(cfg, []string{path}, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		x := testBatch(5)
		for _, c := range []struct {
			method string
			want   *tensor.Matrix
		}{{MethodPredict, ref.Predict(x)}, {MethodInvert, ref.Invert(x)}} {
			got, err := pool.Run(c.method, x)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range c.want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%v %s: element %d is %#08x, want %#08x", g, c.method, i,
						math.Float32bits(got.Data[i]), math.Float32bits(v))
				}
			}
		}
	}
}

// TestPoolFromCheckpointRefusesDamagedTrainingNets: the pool keeps only the
// generator, but it reads the whole checkpoint, so a file whose encoder or
// discriminator blob is cut short or of the wrong shape is refused as a
// training resume would refuse it.
func TestPoolFromCheckpointRefusesDamagedTrainingNets(t *testing.T) {
	cfg := testModelCfg()
	m := cyclegan.New(cfg, 9)
	other := cfg
	other.EncoderHidden = []int{12}
	other.DiscHidden = []int{6}
	o := cyclegan.New(other, 9)
	dir := t.TempDir()
	save := func(name string, nets ...*nn.Network) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := checkpoint.Save(path, 0, nets); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := save("good.ckpt", m.Nets()...)
	// The encoder's blob length sits after the 12-byte file header and the
	// 8-byte set header.
	shortEncoder := bytes.Clone(good)
	binary.LittleEndian.PutUint32(shortEncoder[20:], binary.LittleEndian.Uint32(shortEncoder[20:])-4)
	for _, c := range []struct {
		name string
		file []byte
		want string
	}{
		{"file cut in the encoder", good[:100], "truncated in net 0"},
		{"encoder blob a float short", shortEncoder, "net 0 (encoder)"},
		{"encoder of another shape", save("enc.ckpt", o.Encoder, m.Decoder, m.Forward, m.Inverse, m.Disc), "net 0 (encoder)"},
		{"file cut in the discriminator", good[:len(good)-1], "truncated in net 4"},
		{"discriminator of another shape", save("disc.ckpt", m.Encoder, m.Decoder, m.Forward, m.Inverse, o.Disc), "net 4 (disc)"},
	} {
		path := filepath.Join(dir, "damaged.ckpt")
		if err := os.WriteFile(path, c.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewPoolFromCheckpoints(cfg, []string{path}, 1, false); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewPoolFromCheckpoints error %v, want one naming %q", c.name, err, c.want)
		}
	}
	path := filepath.Join(dir, "good.ckpt")
	if _, err := NewPoolFromCheckpoints(cfg, []string{path}, 1, false); err != nil {
		t.Fatalf("the undamaged file: %v", err)
	}
}

// TestPoolDims pins the method vocabulary the registry and HTTP layer
// route on.
func TestPoolDims(t *testing.T) {
	cfg := testModelCfg()
	pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, 3)}, false)
	if err != nil {
		t.Fatal(err)
	}
	dims := pool.Dims()
	if d := dims[MethodPredict]; d.In != jag.InputDim || d.Out != cfg.Geometry.OutputDim() {
		t.Fatalf("predict dims = %+v", d)
	}
	if d := dims[MethodInvert]; d.In != jag.InputDim || d.Out != jag.InputDim {
		t.Fatalf("invert dims = %+v", d)
	}
	if _, err := pool.Run("embed", testBatch(1)); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method error = %v, want ErrUnknownMethod", err)
	}
}

// TestPoolEnsembleAverages checks that ensemble mode returns the
// elementwise mean of the member predictions, bit for bit: the sum in
// replica order, then one scaling.
func TestPoolEnsembleAverages(t *testing.T) {
	cfg := testModelCfg()
	a := cyclegan.New(cfg, 1)
	b := cyclegan.New(cfg, 2)
	pool, err := NewPool([]*cyclegan.Surrogate{a, b}, true)
	if err != nil {
		t.Fatal(err)
	}

	x := testBatch(4)
	got, err := pool.Run(MethodPredict, x)
	if err != nil {
		t.Fatal(err)
	}
	ya, yb := a.Predict(x), b.Predict(x)
	want := tensor.New(ya.Rows, ya.Cols)
	tensor.Add(want, ya, yb)
	tensor.Scale(want, 0.5)
	if !got.Equal(want) {
		t.Fatal("ensemble output is not the replica mean")
	}

	gotInv, err := pool.Run(MethodInvert, x)
	if err != nil {
		t.Fatal(err)
	}
	ia, ib := a.Invert(x), b.Invert(x)
	wantInv := tensor.New(ia.Rows, ia.Cols)
	tensor.Add(wantInv, ia, ib)
	tensor.Scale(wantInv, 0.5)
	if !gotInv.Equal(wantInv) {
		t.Fatal("ensemble invert output is not the replica mean")
	}
}

// TestPoolEnsembleLeavesReplicasIntact is a regression test for the
// in-place ensemble average. It once summed into a matrix replica 0's
// decoder still held for a backward pass; today an inference pass leaves
// nothing in the layers and the pool sums into its own first output. A
// replica that served an ensemble batch must predict and then train exactly
// like a bitwise twin that never served one.
func TestPoolEnsembleLeavesReplicasIntact(t *testing.T) {
	cfg := testModelCfg()
	a := cyclegan.New(cfg, 1)
	b := cyclegan.New(cfg, 2)
	twin := cyclegan.New(cfg, 1) // bitwise-identical to a
	pool, err := NewPool([]*cyclegan.Surrogate{a, b}, true)
	if err != nil {
		t.Fatal(err)
	}

	x := testBatch(4)
	for _, method := range []string{MethodPredict, MethodInvert} {
		if _, err := pool.Run(method, x); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Predict(x).Equal(twin.Predict(x)) || !a.Invert(x).Equal(twin.Invert(x)) {
		t.Fatal("ensemble Run changed replica 0's predictions")
	}

	y := tensor.New(x.Rows, cfg.Geometry.OutputDim())
	for i := 0; i < y.Rows; i++ {
		copy(y.Row(i), jag.SimulateAt(cfg.Geometry, i).Output())
	}
	for step := 0; step < 2; step++ {
		la := a.TrainStep(x, y, nopReducer{})
		lt := twin.TrainStep(x, y, nopReducer{})
		for name, v := range lt {
			if math.Float64bits(la[name]) != math.Float64bits(v) {
				t.Fatalf("step %d %s: served replica lost %v, never-served twin %v", step, name, la[name], v)
			}
		}
	}
}

// TestPoolSharesOneWeightSet: replicas are workers, not copies. A 4-replica
// round-robin pool built from one checkpoint holds one generator four times
// and serves four concurrent callers from it, bit-for-bit (run under -race:
// at the parent of PR 16 the shared layers' stored inputs raced); an
// ensemble still loads one distinct model per checkpoint.
func TestPoolSharesOneWeightSet(t *testing.T) {
	cfg := testModelCfg()
	dir := t.TempDir()
	models := []*cyclegan.Surrogate{cyclegan.New(cfg, 31), cyclegan.New(cfg, 32), cyclegan.New(cfg, 33)}
	paths := make([]string, len(models))
	for i, m := range models {
		paths[i] = filepath.Join(dir, fmt.Sprintf("m%d.ckpt", i))
		if err := checkpoint.Save(paths[i], 0, m.Nets()); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := NewPoolFromCheckpoints(cfg, paths[:1], 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Replicas() != 4 {
		t.Fatalf("replicas = %d, want 4", pool.Replicas())
	}
	for i, r := range pool.replicas {
		if r != pool.replicas[0] || r.Decoder != pool.replicas[0].Decoder {
			t.Fatalf("replica %d holds its own weight set", i)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := testBatch(1 + 5*w) // a batch size per worker
			wantP, wantI := models[0].Predict(x), models[0].Invert(x)
			for rep := 0; rep < 10; rep++ {
				gotP, errP := pool.Run(MethodPredict, x)
				gotI, errI := pool.Run(MethodInvert, x)
				if err := errors.Join(errP, errI); err != nil {
					errs[w] = err
					return
				}
				if !gotP.Equal(wantP) || !gotI.Equal(wantI) {
					errs[w] = fmt.Errorf("worker %d pass %d differs from the checkpointed model", w, rep)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	// Two checkpoints, three replicas: two weight sets, the first twice.
	mixed, err := NewPoolFromCheckpoints(cfg, paths[:2], 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if r := mixed.replicas; len(r) != 3 || r[0] != r[2] || r[0] == r[1] {
		t.Fatalf("3 replicas over 2 checkpoints = %p %p %p, want a b a", r[0], r[1], r[2])
	}

	// Three checkpoints in ensemble mode: three distinct models whatever
	// `replicas` says, averaged exactly as summing in order then scaling.
	ens, err := NewPoolFromCheckpoints(cfg, paths, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if r := ens.replicas; len(r) != 3 || r[0] == r[1] || r[1] == r[2] || r[0] == r[2] {
		t.Fatalf("ensemble over 3 checkpoints holds %d replicas, want 3 distinct", len(r))
	}
	x := testBatch(5)
	for method, fwd := range map[string]func(*cyclegan.Surrogate, *tensor.Matrix) *tensor.Matrix{
		MethodPredict: (*cyclegan.Surrogate).Predict,
		MethodInvert:  (*cyclegan.Surrogate).Invert,
	} {
		got, err := ens.Run(method, x)
		if err != nil {
			t.Fatal(err)
		}
		want := fwd(models[0], x)
		tensor.Add(want, want, fwd(models[1], x))
		tensor.Add(want, want, fwd(models[2], x))
		tensor.Scale(want, 1/float32(3))
		if !got.Equal(want) {
			t.Fatalf("%s: 3-checkpoint ensemble is not the in-order mean of its members", method)
		}
	}
}

// TestPoolEnsembleFromCheckpoints loads two distinct checkpoints and
// checks the ensemble differs from either member (i.e. both contribute).
func TestPoolEnsembleFromCheckpoints(t *testing.T) {
	cfg := testModelCfg()
	dir := t.TempDir()
	var paths []string
	models := []*cyclegan.Surrogate{cyclegan.New(cfg, 11), cyclegan.New(cfg, 22)}
	for i, m := range models {
		p := filepath.Join(dir, "m"+string(rune('0'+i))+".ckpt")
		if err := checkpoint.Save(p, 0, m.Nets()); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Ensemble mode clamps to one replica per checkpoint: duplicates
	// would bias the average and waste compute.
	pool, err := NewPoolFromCheckpoints(cfg, paths, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Replicas() != 2 {
		t.Fatalf("replicas = %d, want 2 (one per checkpoint in ensemble mode)", pool.Replicas())
	}
	x := testBatch(3)
	got, err := pool.Run(MethodPredict, x)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equal(models[0].Predict(x)) || got.Equal(models[1].Predict(x)) {
		t.Fatal("ensemble output equals a single member")
	}
}

// liveHeap returns the bytes of heap still in use once a full collection
// has run.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// savePaper64 writes a paper-geometry (Default64) surrogate, a 50.6 MB file,
// and returns it with its config and path.
func savePaper64(tb testing.TB) (*cyclegan.Surrogate, cyclegan.Config, string) {
	cfg := cyclegan.DefaultConfig(jag.Default64)
	model := cyclegan.New(cfg, 5)
	path := filepath.Join(tb.TempDir(), "paper64.ckpt")
	if err := checkpoint.Save(path, 0, model.Nets()); err != nil {
		tb.Fatal(err)
	}
	return model, cfg, path
}

// TestPoolFromCheckpointHoldsOnlyTheGenerator: a pool loaded from a
// paper-geometry checkpoint keeps F, the decoder and G — 25.4 MB of weights —
// and lets the 25.2 MB encoder, the discriminator and the optimizers go; the
// 30 MB bound sits between the generator and the whole 50.7 MB surrogate.
// The pool still answers both methods with the saved surrogate's bits.
func TestPoolFromCheckpointHoldsOnlyTheGenerator(t *testing.T) {
	model, cfg, path := savePaper64(t)
	before := liveHeap()
	pool, err := NewPoolFromCheckpoints(cfg, []string{path}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(liveHeap()) - int64(before)
	t.Logf("a Default64 pool retains %.1f MB", float64(retained)/1e6)
	if retained > 30e6 {
		t.Fatalf("a Default64 pool retains %.1f MB, want at most 30 MB (its generator's 25.4 MB of weights)", float64(retained)/1e6)
	}
	x := testBatch(2)
	for method, want := range map[string]*tensor.Matrix{MethodPredict: model.Predict(x), MethodInvert: model.Invert(x)} {
		got, err := pool.Run(method, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: the pool's generator differs from the saved surrogate", method)
		}
	}
}

// BenchmarkPoolFromCheckpoint loads a paper-geometry checkpoint into a pool,
// as jagserve and a hot swap do. retained_MB is the live heap one pool holds
// once the load's garbage is collected: its generator's weights.
func BenchmarkPoolFromCheckpoint(b *testing.B) {
	_, cfg, path := savePaper64(b)
	before := liveHeap()
	b.ReportAllocs()
	b.ResetTimer()
	var pool *Pool
	for i := 0; i < b.N; i++ {
		pool = nil // the previous pool is garbage before the next load
		var err error
		if pool, err = NewPoolFromCheckpoints(cfg, []string{path}, 1, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(int64(liveHeap())-int64(before))/1e6, "retained_MB")
	runtime.KeepAlive(pool)
}

// TestPoolValidation covers the error paths.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, false); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewPoolFromCheckpoints(testModelCfg(), nil, 1, false); err == nil {
		t.Fatal("no-path pool accepted")
	}
	if _, err := NewPoolFromCheckpoints(testModelCfg(), []string{"/nonexistent.ckpt"}, 1, false); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestSpecRoundTrip checks the JSON sidecar survives a save/load cycle.
func TestSpecRoundTrip(t *testing.T) {
	cfg := testModelCfg()
	path := filepath.Join(t.TempDir(), "model.ckpt")
	spec := ModelSpec{Model: cfg, Step: 42, Checkpoints: []string{path}}
	if err := SaveSpec(SpecPath(path), spec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(SpecPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 42 || len(got.Checkpoints) != 1 || got.Checkpoints[0] != path {
		t.Fatalf("spec mismatch: %+v", got)
	}
	if got.Model.LatentDim != cfg.LatentDim || got.Model.Geometry != cfg.Geometry {
		t.Fatalf("model config mismatch: %+v", got.Model)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing spec accepted")
	}
}

// TestResolveSpec covers the three path shapes the -models flag
// accepts: the spec file itself, a checkpoint path, and a directory
// holding exactly one spec (ambiguous and empty directories error).
func TestResolveSpec(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.ckpt")
	// ResolveSpec stats the checkpoint path before looking for its
	// sidecar, so the weights file must exist like it would on disk.
	if err := os.WriteFile(ckpt, []byte("weights"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := ModelSpec{Model: testModelCfg(), Step: 9, Checkpoints: []string{"model.ckpt"}}
	if err := SaveSpec(SpecPath(ckpt), spec); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{SpecPath(ckpt), ckpt, dir} {
		got, err := ResolveSpec(path)
		if err != nil {
			t.Fatalf("ResolveSpec(%q): %v", path, err)
		}
		if got.Step != 9 || len(got.Checkpoints) != 1 || got.Checkpoints[0] != ckpt {
			t.Fatalf("ResolveSpec(%q) = %+v", path, got)
		}
	}

	if _, err := ResolveSpec(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing path resolved")
	}
	if _, err := ResolveSpec(t.TempDir()); err == nil {
		t.Fatal("spec-less directory resolved")
	}
	if err := SaveSpec(filepath.Join(dir, "second.ckpt.spec.json"), spec); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveSpec(dir); err == nil {
		t.Fatal("ambiguous directory resolved")
	}
}

// TestSpecRelativeCheckpoints checks that relative checkpoint entries
// resolve against the spec file's directory, so a checkpoint directory
// can be relocated wholesale.
func TestSpecRelativeCheckpoints(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "model.ckpt.spec.json")
	spec := ModelSpec{Model: testModelCfg(), Checkpoints: []string{"model.ckpt", "model.2.ckpt"}}
	if err := SaveSpec(specFile, spec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "model.ckpt"), filepath.Join(dir, "model.2.ckpt")}
	for i, p := range got.Checkpoints {
		if p != want[i] {
			t.Fatalf("checkpoint[%d] = %q, want %q", i, p, want[i])
		}
	}
}
