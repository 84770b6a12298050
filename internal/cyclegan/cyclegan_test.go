package cyclegan

import (
	"math"
	"sync"
	"testing"

	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinyConfig returns a very small surrogate for fast tests.
func tinyConfig() Config {
	cfg := DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{32}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{16}
	cfg.DiscHidden = []int{16}
	return cfg
}

// batch builds matched (x, y) matrices from the JAG plan.
func batch(cfg Config, start, n int) (x, y *tensor.Matrix) {
	g := cfg.Geometry
	x = tensor.New(n, jag.InputDim)
	y = tensor.New(n, g.OutputDim())
	for i := 0; i < n; i++ {
		s := jag.SimulateAt(g, start+i)
		copy(x.Row(i), s.X)
		copy(y.Row(i), s.Output())
	}
	return x, y
}

func TestNewDeterministic(t *testing.T) {
	a := New(tinyConfig(), 7)
	b := New(tinyConfig(), 7)
	for i, na := range a.Nets() {
		nb := b.Nets()[i]
		pa, pb := na.Params(), nb.Params()
		for j := range pa {
			if !pa[j].W.Equal(pb[j].W) {
				t.Fatalf("net %d param %d differs between same-seed replicas", i, j)
			}
		}
	}
	c := New(tinyConfig(), 8)
	if c.Forward.Params()[0].W.Equal(a.Forward.Params()[0].W) {
		t.Fatal("different seeds should give different weights")
	}
}

func TestArchitectureShapes(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 1)
	x, y := batch(cfg, 0, 4)
	z := s.Encoder.Forward(y, false)
	if z.Cols != cfg.LatentDim {
		t.Fatalf("encoder output width %d, want %d", z.Cols, cfg.LatentDim)
	}
	if out := s.Decoder.Forward(z, false); out.Cols != cfg.Geometry.OutputDim() {
		t.Fatalf("decoder output width %d", out.Cols)
	}
	if zf := s.Forward.Forward(x, false); zf.Cols != cfg.LatentDim {
		t.Fatalf("forward output width %d", zf.Cols)
	}
	if xr := s.Inverse.Forward(z, false); xr.Cols != jag.InputDim {
		t.Fatalf("inverse output width %d", xr.Cols)
	}
	if d := s.Disc.Forward(z, false); d.Cols != 1 {
		t.Fatalf("disc output width %d", d.Cols)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cfg := tinyConfig()
	cfg.LatentDim = 0
	if cfg.Validate() == nil {
		t.Fatal("latent 0 must be invalid")
	}
	cfg = tinyConfig()
	cfg.LR = 0
	if cfg.Validate() == nil {
		t.Fatal("lr 0 must be invalid")
	}
	cfg = tinyConfig()
	cfg.Geometry.Views = 0
	if cfg.Validate() == nil {
		t.Fatal("bad geometry must be invalid")
	}
}

func TestTrainStepReturnsAllLosses(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 2)
	x, y := batch(cfg, 0, 8)
	losses := s.TrainStep(x, y, nn.NopReducer{})
	for _, k := range []string{"autoencoder", "disc", "fidelity", "adversarial", "cycle"} {
		v, ok := losses[k]
		if !ok {
			t.Fatalf("missing loss %q", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("loss %q = %v", k, v)
		}
	}
}

func TestTrainingImprovesEval(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 3)
	xTr, yTr := batch(cfg, 0, 64)
	xVal, yVal := batch(cfg, 1000, 32)
	before := s.Eval(xVal, yVal)
	for step := 0; step < 60; step++ {
		s.TrainStep(xTr, yTr, nn.NopReducer{})
	}
	after := s.Eval(xVal, yVal)
	if !(after < before*0.8) {
		t.Fatalf("training did not improve eval: %v -> %v", before, after)
	}
}

func TestAutoencoderLossDecreases(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 4)
	x, y := batch(cfg, 0, 32)
	first := s.TrainStep(x, y, nn.NopReducer{})["autoencoder"]
	var last float64
	for i := 0; i < 40; i++ {
		last = s.TrainStep(x, y, nn.NopReducer{})["autoencoder"]
	}
	if !(last < first*0.8) {
		t.Fatalf("autoencoder loss %v -> %v", first, last)
	}
}

func TestPredictAndInvertShapes(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 5)
	x, _ := batch(cfg, 0, 6)
	pred := s.Predict(x)
	if pred.Rows != 6 || pred.Cols != cfg.Geometry.OutputDim() {
		t.Fatalf("Predict shape %dx%d", pred.Rows, pred.Cols)
	}
	inv := s.Invert(x)
	if inv.Rows != 6 || inv.Cols != jag.InputDim {
		t.Fatalf("Invert shape %dx%d", inv.Rows, inv.Cols)
	}
	// Sigmoid heads keep predictions in (0,1) like the data.
	for _, v := range pred.Data {
		if v < 0 || v > 1 {
			t.Fatalf("prediction %v outside [0,1]", v)
		}
	}
}

func TestCycleConsistencyImproves(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 6)
	x, y := batch(cfg, 0, 64)
	cycleOf := func() float64 {
		return nn.MAEValue(s.Invert(x), x)
	}
	before := cycleOf()
	for i := 0; i < 80; i++ {
		s.TrainStep(x, y, nn.NopReducer{})
	}
	if after := cycleOf(); !(after < before) {
		t.Fatalf("cycle consistency did not improve: %v -> %v", before, after)
	}
}

func TestExchangeNetsSubset(t *testing.T) {
	s := New(tinyConfig(), 7)
	ex := s.ExchangeNets()
	if len(ex) != 3 {
		t.Fatalf("exchange set has %d nets, want 3", len(ex))
	}
	names := map[string]bool{}
	for _, n := range ex {
		names[n.Name] = true
	}
	if !names["forward"] || !names["inverse"] || !names["decoder"] {
		t.Fatalf("exchange set = %v", names)
	}
	if names["disc"] || names["encoder"] {
		t.Fatal("discriminator and encoder must stay local")
	}
	// Exchange volume must be strictly smaller than the full model.
	exBytes, allBytes := 0, 0
	for _, n := range ex {
		exBytes += n.WeightsSize()
	}
	for _, n := range s.Nets() {
		allBytes += n.WeightsSize()
	}
	if exBytes >= allBytes {
		t.Fatalf("exchange %d bytes not smaller than full %d", exBytes, allBytes)
	}
}

func TestDiscriminatorLearnsToSeparate(t *testing.T) {
	// Freeze the generator implicitly by only checking D improves early:
	// after some steps D should assign higher logits to real latents than
	// fake ones on average.
	cfg := tinyConfig()
	s := New(cfg, 8)
	x, y := batch(cfg, 0, 64)
	for i := 0; i < 30; i++ {
		s.TrainStep(x, y, nn.NopReducer{})
	}
	zReal := s.Encoder.Forward(y, false)
	zFake := s.Forward.Forward(x, false)
	realMean := tensor.Mean(s.Disc.Forward(zReal, false))
	fakeMean := tensor.Mean(s.Disc.Forward(zFake, false))
	if !(realMean > fakeMean) {
		t.Fatalf("discriminator not separating: real %v vs fake %v", realMean, fakeMean)
	}
}

func TestReplicasStayIdenticalUnderSameData(t *testing.T) {
	cfg := tinyConfig()
	a := New(cfg, 10)
	b := New(cfg, 10)
	x, y := batch(cfg, 0, 16)
	for i := 0; i < 5; i++ {
		a.TrainStep(x, y, nn.NopReducer{})
		b.TrainStep(x, y, nn.NopReducer{})
	}
	pa, pb := a.Forward.Params(), b.Forward.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatal("identical replicas diverged under identical data")
		}
	}
}

func BenchmarkTrainStepTiny(b *testing.B) {
	cfg := tinyConfig()
	s := New(cfg, 11)
	x, y := batch(cfg, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TrainStep(x, y, nn.NopReducer{})
	}
}

// hasGradStorage reports whether any parameter of s holds a gradient
// accumulator.
func hasGradStorage(s *Surrogate) bool {
	for _, n := range s.Nets() {
		for _, p := range n.Params() {
			if p.Grad != nil {
				return true
			}
		}
	}
	return false
}

// TestGradientsAllocatedOnFirstTrainStep pins both halves of gradient
// storage on first training use. A surrogate that only runs inference —
// which is all a serving replica, an LTFB scratch model or a reload canary
// ever does — holds no accumulators; and training on accumulators allocated
// by the first step is the same computation as training on ones allocated
// at construction: the losses below are the bits the PR 14 tree (which
// allocated every Grad in newParam) produced for this seed and these
// batches.
func TestGradientsAllocatedOnFirstTrainStep(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 7)
	x, y := batch(cfg, 100, 8)
	s.Predict(x)
	s.Invert(x)
	s.Eval(x, y)
	s.AdversarialScore(x, y)
	if hasGradStorage(s) {
		t.Fatal("inference allocated gradient storage")
	}

	golden := []map[string]uint64{
		{"adversarial": 0x3fe42cdcfb01d88d, "autoencoder": 0x3fd720411632cccc, "cycle": 0x3fd0e7d1a2333333,
			"disc": 0x3ff67cf0cd4f56c8, "fidelity": 0x3fd738024679dddf, "latent": 0x3faa9a72b8ceb120},
		{"adversarial": 0x3fe42e2f798555c8, "autoencoder": 0x3fd6c7f0fa76666c, "cycle": 0x3fce6ed7bccccccd,
			"disc": 0x3ff65cf482374ae5, "fidelity": 0x3fd6e47773d15555, "latent": 0x3fabab83c9aaee96},
		{"adversarial": 0x3fe410591a1d6d62, "autoencoder": 0x3fd6e89c786f2224, "cycle": 0x3fd0aff658666666,
			"disc": 0x3ff655f4ebd95d7f, "fidelity": 0x3fd70ba0ecea999c, "latent": 0x3faaeb97f6cf3208},
	}
	for step, want := range golden {
		bx, by := batch(cfg, 16*step, 16)
		got := s.TrainStep(bx, by, nn.NopReducer{})
		if len(got) != len(want) {
			t.Fatalf("step %d: %d losses, want %d", step, len(got), len(want))
		}
		for name, bits := range want {
			if math.Float64bits(got[name]) != bits {
				t.Errorf("step %d %s = %v (%#x), want bits %#x", step, name, got[name], math.Float64bits(got[name]), bits)
			}
		}
	}
	if got := math.Float64bits(s.Eval(x, y)); got != 0x3fe6e0b33aa94151 {
		t.Errorf("Eval after three steps = %#x, want 0x3fe6e0b33aa94151", got)
	}
	for _, n := range s.Nets() {
		for _, p := range n.Params() {
			if p.Grad == nil || p.Grad.Rows != p.W.Rows || p.Grad.Cols != p.W.Cols {
				t.Fatalf("%s %s: no gradient accumulator of the weight's shape after training", n.Name, p.Name)
			}
		}
	}
}

// TestSurrogateReadsAreConcurrent: Predict, Invert, Eval and
// AdversarialScore only read the weights, so goroutines sharing one surrogate
// — each on a batch of its own size — get the bits a lone caller gets. Run
// under -race in CI; at the parent of PR 16 every layer stored its input
// during these calls and the race detector reported each of them.
func TestSurrogateReadsAreConcurrent(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg, 12)
	bx, by := batch(cfg, 0, 16)
	s.TrainStep(bx, by, nn.NopReducer{}) // a trained model serves the same way

	const workers = 8
	type result struct {
		predict, invert *tensor.Matrix
		eval, adv       float64
	}
	run := func(i int) result {
		x, y := batch(cfg, 50*i, 1+3*i)
		return result{s.Predict(x), s.Invert(x), s.Eval(x, y), s.AdversarialScore(x, y)}
	}
	want := make([]result, workers)
	for i := range want {
		want[i] = run(i)
	}
	got := make([]result, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got[i] = run(i)
			}
		}(i)
	}
	wg.Wait()
	for i, w := range want {
		g := got[i]
		if !g.predict.Equal(w.predict) || !g.invert.Equal(w.invert) ||
			math.Float64bits(g.eval) != math.Float64bits(w.eval) ||
			math.Float64bits(g.adv) != math.Float64bits(w.adv) {
			t.Fatalf("worker %d: concurrent inference differs from the serial result", i)
		}
	}
}
