package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bn := NewBatchNorm(4)
	x := tensor.New(64, 4)
	tensor.FillGaussian(x, rng, 5, 3) // far from standard
	y := bn.Forward(x, true)
	// With gamma=1, beta=0 the output must be near-standardized per column.
	for j := 0; j < 4; j++ {
		var mean, varc float64
		for i := 0; i < 64; i++ {
			mean += float64(y.At(i, j))
		}
		mean /= 64
		for i := 0; i < 64; i++ {
			d := float64(y.At(i, j)) - mean
			varc += d * d
		}
		varc /= 64
		if math.Abs(mean) > 1e-4 || math.Abs(varc-1) > 1e-2 {
			t.Fatalf("column %d not standardized: mean %v var %v", j, mean, varc)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bn := NewBatchNorm(3)
	x := tensor.New(32, 3)
	tensor.FillGaussian(x, rng, 2, 1)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	// Evaluation on a single sample must be deterministic and finite.
	one := tensor.New(1, 3)
	one.Fill(2)
	y := bn.Forward(one, false)
	if y.HasNaN() {
		t.Fatal("eval-mode output has NaN")
	}
	// After many batches of N(2,1), a sample at the mean normalizes to ~0.
	for j := 0; j < 3; j++ {
		if math.Abs(float64(y.At(0, j))) > 0.5 {
			t.Fatalf("running stats off: normalized mean sample = %v", y.Row(0))
		}
	}
}

// Gradient checks for both normalization layers through a small network.
func TestGradientCheckBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := &Network{Name: "bn", Layers: []Layer{
		NewLinear(4, 6, rng),
		NewBatchNorm(6),
		&Tanh{},
		NewLinear(6, 2, rng),
	}}
	gradCheck(t, net, MSE, 4, 2, 3e-2)
}

func TestGradientCheckLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := &Network{Name: "ln", Layers: []Layer{
		NewLinear(4, 6, rng),
		NewLayerNorm(6),
		&ReLU{},
		NewLinear(6, 2, rng),
	}}
	gradCheck(t, net, MSE, 4, 2, 3e-2)
}

func TestLayerNormPerSample(t *testing.T) {
	ln := NewLayerNorm(8)
	x := tensor.New(2, 8)
	for j := 0; j < 8; j++ {
		x.Set(0, j, float32(j))
		x.Set(1, j, float32(j)*100)
	}
	y := ln.Forward(x, true)
	// Each row standardized independently: both rows normalize to the same
	// pattern since they are affine transforms of each other.
	for j := 0; j < 8; j++ {
		if math.Abs(float64(y.At(0, j)-y.At(1, j))) > 1e-3 {
			t.Fatalf("rows normalized differently at %d: %v vs %v", j, y.At(0, j), y.At(1, j))
		}
	}
}

func TestLayerNormTrainEvalIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ln := NewLayerNorm(5)
	x := tensor.New(4, 5)
	tensor.FillGaussian(x, rng, 0, 2)
	a := ln.Forward(x, true)
	b := ln.Forward(x, false)
	if !a.Equal(b) {
		t.Fatal("layer norm must not depend on the training flag")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 2, 2)
	p.Accum().Fill(3) // norm = sqrt(4*9) = 6
	params := []*Param{p}
	pre := ClipGradNorm(params, 3)
	if math.Abs(pre-6) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 6", pre)
	}
	var sq float64
	for _, v := range p.Grad.Data {
		sq += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(sq)-3) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 3", math.Sqrt(sq))
	}
	// Below the threshold nothing changes.
	p.Grad.Fill(0.1)
	ClipGradNorm(params, 3)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("clip must not touch small gradients")
	}
}

func TestNormLayersInMLPTrainable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := &Network{Name: "bn-mlp", Layers: []Layer{
		NewLinear(3, 16, rng),
		NewBatchNorm(16),
		&LeakyReLU{Alpha: 0.2},
		NewLinear(16, 1, rng),
	}}
	x := tensor.New(32, 3)
	tensor.FillGaussian(x, rng, 0, 1)
	target := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		target.Set(i, 0, x.At(i, 0)*x.At(i, 1))
	}
	first, _ := MSE(net.Forward(x, false), target)
	lr := float32(0.05)
	for step := 0; step < 200; step++ {
		net.ZeroGrad()
		pred := net.Forward(x, true)
		_, dy := MSE(pred, target)
		net.Backward(dy)
		for _, p := range net.Params() {
			tensor.AddScaled(p.W, -lr, p.Grad)
		}
	}
	last, _ := MSE(net.Forward(x, false), target)
	if last > first*0.5 {
		t.Fatalf("batch-normed net did not train: %v -> %v", first, last)
	}
}
