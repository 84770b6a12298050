package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/tensor"
)

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
	// so it carries weights only: no gradient accumulators.
	if err := canary(pool); err != nil {
		t.Fatal(err)
	}
	for i, r := range pool.replicas {
		for _, n := range r.Nets() {
			for _, p := range n.Params() {
				if p.Grad != nil {
					t.Fatalf("replica %d %s %s holds gradient storage", i, n.Name, p.Name)
				}
			}
		}
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
// elementwise mean of the member predictions.
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
	if !got.ApproxEqual(want, 1e-6) {
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
	if !gotInv.ApproxEqual(wantInv, 1e-6) {
		t.Fatal("ensemble invert output is not the replica mean")
	}
}

// TestPoolEnsembleLeavesReplicasIntact is a regression test for the
// in-place ensemble average: the first replica's prediction matrix is
// also its decoder's cached final-layer activation (nn.Sigmoid keeps
// the matrix it returns for the backward pass), so averaging into it
// corrupted any later training or evaluation of that replica. A
// backward pass through replica 0's decoder must match a bitwise twin
// that never served an ensemble batch.
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
	if _, err := pool.Run(MethodPredict, x); err != nil {
		t.Fatal(err)
	}
	// Prime the twin's cached activations with the same forward pass
	// replica a ran inside the ensemble.
	twin.Predict(x)

	dy := tensor.New(4, cfg.Geometry.OutputDim())
	for i := range dy.Data {
		dy.Data[i] = 1
	}
	ga := a.Decoder.Backward(dy)
	gt := twin.Decoder.Backward(dy)
	if !ga.Equal(gt) {
		t.Fatal("ensemble Run corrupted replica 0's cached activations")
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
