package cyclegan

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// nopReducer leaves gradients untouched: single-replica training.
type nopReducer struct{}

func (nopReducer) Reduce([]*nn.Param) {}

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

// TestWeightStreamsMatchParent: New draws E, Dec, F, G, D from one rng, and
// the exchange stream is F, G, Dec. The SHA-256 digests of both streams below
// were written by the commit before Generator existed, so the embedding moved
// no draw and no exchanged byte. A copied Generator is the surrogate's
// generator: the same networks, the same predictions.
func TestWeightStreamsMatchParent(t *testing.T) {
	for _, c := range []struct {
		name           string
		cfg            Config
		seed           int64
		all, exchanged string
	}{
		{"tiny", tinyConfig(), 7,
			"c39b4787f5458af957456991b06a8ce76fbcd908f07f5da45af148e9e98c64a2",
			"86dc18abb1ad51127d2cc8c664a8ffb79cba57813f312904e278ffe8c17c54d7"},
		{"Tiny8 default", DefaultConfig(jag.Tiny8), 21,
			"3ed0fe9acb00d4d481cd237138a004cb0a3ef7f8034ee65c60648e4c478d153a",
			"76c50da3e19d822726875089ef49d6aedb977eeed92ce5e9a501f7954f500b7e"},
	} {
		s := New(c.cfg, c.seed)
		digest := func(nets []*nn.Network) string {
			sum := sha256.Sum256(nn.MarshalNetworks(nets))
			return hex.EncodeToString(sum[:])
		}
		if got := digest(s.Nets()); got != c.all {
			t.Errorf("%s: New's weights digest %s, want %s", c.name, got, c.all)
		}
		if got := digest(s.ExchangeNets()); got != c.exchanged {
			t.Errorf("%s: exchange stream digest %s, want %s", c.name, got, c.exchanged)
		}
		g := s.Generator
		if !slices.Equal(g.Nets(), s.ExchangeNets()) {
			t.Errorf("%s: Generator.Nets() is not ExchangeNets()", c.name)
		}
		x, _ := batch(c.cfg, 0, 3)
		if !g.Predict(x).Equal(s.Predict(x)) || !g.Invert(x).Equal(s.Invert(x)) {
			t.Errorf("%s: a copied Generator predicts differently from its surrogate", c.name)
		}
	}
}

// TestNewZeroIsNewsLayout: NewZero lays out the networks New does — names,
// shapes, config and stream size alike — with every weight zero, and once
// New's weights are read into it, it is that model: the same stream back
// out, the same predictions and inversions, bit for bit.
func TestNewZeroIsNewsLayout(t *testing.T) {
	for _, cfg := range []Config{tinyConfig(), DefaultConfig(jag.Tiny8)} {
		s, z := New(cfg, 5), NewZero(cfg)
		if !reflect.DeepEqual(z.Cfg, s.Cfg) {
			t.Fatalf("NewZero's config %+v, want New's %+v", z.Cfg, s.Cfg)
		}
		for i, n := range z.Nets() {
			ps := s.Nets()[i].Params()
			if n.Name != s.Nets()[i].Name || len(n.Params()) != len(ps) {
				t.Fatalf("net %d is %s with %d params, want %s with %d", i, n.Name, len(n.Params()), s.Nets()[i].Name, len(ps))
			}
			for j, p := range n.Params() {
				if p.Name != ps[j].Name || p.W.Rows != ps[j].W.Rows || p.W.Cols != ps[j].W.Cols {
					t.Fatalf("%s param %d is %s %dx%d, want %s %dx%d", n.Name, j, p.Name, p.W.Rows, p.W.Cols, ps[j].Name, ps[j].W.Rows, ps[j].W.Cols)
				}
				if slices.ContainsFunc(p.W.Data, func(v float32) bool { return v != 0 }) {
					t.Fatalf("%s param %s holds a non-zero weight", n.Name, p.Name)
				}
			}
		}
		stream := nn.MarshalNetworks(s.Nets())
		if err := nn.UnmarshalNetworks(z.Nets(), stream); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nn.MarshalNetworks(z.Nets()), stream) {
			t.Fatal("a loaded NewZero surrogate writes a different stream")
		}
		x, _ := batch(cfg, 0, 3)
		if !z.Predict(x).Equal(s.Predict(x)) || !z.Invert(x).Equal(s.Invert(x)) {
			t.Fatal("a loaded NewZero surrogate predicts differently from the model it was loaded from")
		}
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
	losses := s.TrainStep(x, y, nopReducer{})
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
		s.TrainStep(xTr, yTr, nopReducer{})
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
	first := s.TrainStep(x, y, nopReducer{})["autoencoder"]
	var last float64
	for i := 0; i < 40; i++ {
		last = s.TrainStep(x, y, nopReducer{})["autoencoder"]
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
		s.TrainStep(x, y, nopReducer{})
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
		s.TrainStep(x, y, nopReducer{})
	}
	zReal := s.Encoder.Forward(y, false)
	zFake := s.Forward.Forward(x, false)
	mean := func(m *tensor.Matrix) float64 {
		var sum float64
		for _, v := range m.Data {
			sum += float64(v)
		}
		return sum / float64(len(m.Data))
	}
	realMean := mean(s.Disc.Forward(zReal, false))
	fakeMean := mean(s.Disc.Forward(zFake, false))
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
		a.TrainStep(x, y, nopReducer{})
		b.TrainStep(x, y, nopReducer{})
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
		s.TrainStep(x, y, nopReducer{})
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
		got := s.TrainStep(bx, by, nopReducer{})
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
	s.TrainStep(bx, by, nopReducer{}) // a trained model serves the same way

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

// allocatingTrainStep is TrainStep as it was before the step drew from an
// arena: every matrix from the heap, F(x) computed for phase 2 and again for
// phase 3, a full Backward through Dec and D in phase 3, and each network's
// gradients cleared on its own. It is the reference TrainStep is held to.
func allocatingTrainStep(s *Surrogate, x, y *tensor.Matrix, r nn.Reducer) map[string]float64 {
	losses := map[string]float64{}

	nn.ZeroGrad(s.Encoder.Params())
	nn.ZeroGrad(s.Decoder.Params())
	z := s.Encoder.Forward(y, true)
	yRec := s.Decoder.Forward(z, true)
	aeLoss, dRec := weightedMAE(yRec, y, s.Cfg.ScalarWeight, nil)
	losses["autoencoder"] = aeLoss
	s.Encoder.Backward(s.Decoder.Backward(dRec))
	aeP := append(s.Encoder.Params(), s.Decoder.Params()...)
	r.Reduce(aeP)
	s.optAE.Step(aeP)

	zReal := s.Encoder.Forward(y, false)
	zFake := s.Forward.Forward(x, false)
	nn.ZeroGrad(s.Disc.Params())
	logitsReal := s.Disc.Forward(zReal, true)
	ones := tensor.New(logitsReal.Rows, 1)
	ones.Fill(1)
	zeros := tensor.New(logitsReal.Rows, 1)
	lossReal, dReal := nn.BCEWithLogits(logitsReal, ones, nil)
	s.Disc.Backward(dReal)
	logitsFake := s.Disc.Forward(zFake, true)
	lossFake, dFake := nn.BCEWithLogits(logitsFake, zeros, nil)
	s.Disc.Backward(dFake)
	losses["disc"] = lossReal + lossFake
	r.Reduce(s.Disc.Params())
	s.optDisc.Step(s.Disc.Params())

	nn.ZeroGrad(s.Forward.Params())
	nn.ZeroGrad(s.Inverse.Params())
	zGen := s.Forward.Forward(x, true)
	latLoss, dLat := nn.MSE(zGen, zReal, nil)
	losses["latent"] = latLoss
	tensor.Scale(dLat, float32(s.Cfg.LatentWeight))
	yPred := s.Decoder.Forward(zGen, true)
	fidLoss, dPred := weightedMAE(yPred, y, s.Cfg.ScalarWeight, nil)
	losses["fidelity"] = fidLoss
	tensor.Scale(dPred, float32(s.Cfg.FidelityWeight))
	dzFid := s.Decoder.Backward(dPred)
	logitsGen := s.Disc.Forward(zGen, true)
	advLoss, dAdv := nn.BCEWithLogits(logitsGen, ones, nil)
	losses["adversarial"] = advLoss
	tensor.Scale(dAdv, float32(s.Cfg.AdversarialWeight))
	dzAdv := s.Disc.Backward(dAdv)
	xRec := s.Inverse.Forward(zGen, true)
	cycLoss, dCyc := nn.MAE(xRec, x, nil)
	losses["cycle"] = cycLoss
	tensor.Scale(dCyc, float32(s.Cfg.CycleWeight))
	dzCyc := s.Inverse.Backward(dCyc)
	dzTotal := tensor.New(zGen.Rows, zGen.Cols)
	tensor.Add(dzTotal, dzFid, dzAdv)
	tensor.Add(dzTotal, dzTotal, dzCyc)
	tensor.Add(dzTotal, dzTotal, dLat)
	s.Forward.Backward(dzTotal)
	genP := append(s.Forward.Params(), s.Inverse.Params()...)
	r.Reduce(genP)
	s.optGen.Step(genP)
	return losses
}

// TestTrainStepMatchesAllocatingReference: twenty steps of the Tiny8 default
// model on changing batches (one of another size, so the arena regrows), the
// arena step beside the allocating one. After every step all six losses,
// every weight of every network — so also the Dec and D updates that follow a
// phase 3 which no longer computes their discarded gradients — and the F and
// G gradients agree bit for bit.
func TestTrainStepMatchesAllocatingReference(t *testing.T) {
	cfg := DefaultConfig(jag.Tiny8)
	got, want := New(cfg, 21), New(cfg, 21)
	for step := 0; step < 20; step++ {
		rows := 32
		if step == 7 {
			rows = 48
		}
		x, y := batch(cfg, 40*step, rows)
		gl := got.TrainStep(x, y, nopReducer{})
		wl := allocatingTrainStep(want, x, y, nopReducer{})
		if len(gl) != 6 || len(wl) != 6 {
			t.Fatalf("step %d: %d and %d losses, want six", step, len(gl), len(wl))
		}
		for name, w := range wl {
			if math.Float64bits(gl[name]) != math.Float64bits(w) {
				t.Fatalf("step %d: %s = %v, allocating step %v", step, name, gl[name], w)
			}
		}
		for i, n := range got.Nets() {
			ref := want.Nets()[i].Params()
			for j, p := range n.Params() {
				if !p.W.Equal(ref[j].W) {
					t.Fatalf("step %d: %s %s differs from the allocating step's", step, n.Name, p.Name)
				}
				if (n == got.Forward || n == got.Inverse) && !p.Grad.Equal(ref[j].Grad) {
					t.Fatalf("step %d: gradient of %s %s differs from the allocating step's", step, n.Name, p.Name)
				}
			}
		}
	}
	// Outside a step the networks are back on the heap: what inference
	// returns is the caller's and survives the next step.
	x, y := batch(cfg, 0, 32)
	pred := got.Predict(x)
	keep := tensor.FromSlice(pred.Rows, pred.Cols, slices.Clone(pred.Data))
	got.TrainStep(x, y, nopReducer{})
	if !pred.Equal(keep) {
		t.Fatal("a train step wrote over a matrix Predict had returned")
	}
}

// TestTrainStepSteadyStateAllocs: from the third step of a shape on, a step
// allocates the map of losses it returns and nothing else of note — no
// activation, gradient, temporary, parameter list or optimizer state. (The
// parent of PR 22 made 406 allocations and 679 KB per step.) AllocsPerRun
// counts at GOMAXPROCS 1, where a GEMM runs on the step's own goroutine, as
// it does for a rank of a world that fills the cores; the bytes are read at
// the ambient GOMAXPROCS, forks included.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(jag.Tiny8)
	s := New(cfg, 11)
	x, y := batch(cfg, 0, 32)
	step := func() { s.TrainStep(x, y, nopReducer{}) }
	step()
	step()
	allocs := testing.AllocsPerRun(20, step)
	if allocs > 8 {
		t.Errorf("a steady-state step makes %v allocations, want at most 8", allocs)
	}
	const steps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	if perStep > 32<<10 {
		t.Errorf("a steady-state step allocates %d bytes, want at most 32 KB", perStep)
	}
	t.Logf("%v allocations at GOMAXPROCS 1, %d bytes at GOMAXPROCS %d per step", allocs, perStep, runtime.GOMAXPROCS(0))
}

// TestAdoptionKeepsGradientSlabs: an LTFB adoption overwrites the generator's
// weights in place (nn.UnmarshalNetworks into ExchangeNets). The gradient
// slabs, the Adam moments and the arena stay where they are, and the next
// step trains on as a model that had those weights all along would, given
// the same optimizer state.
func TestAdoptionKeepsGradientSlabs(t *testing.T) {
	cfg := tinyConfig()
	loser, winner := New(cfg, 1), New(cfg, 2)
	x, y := batch(cfg, 0, 16)
	loser.TrainStep(x, y, nopReducer{})
	winner.TrainStep(x, y, nopReducer{})
	slabs := [][]float32{nn.GradSlab(loser.aeP), nn.GradSlab(loser.dscP), nn.GradSlab(loser.genP)}
	if err := nn.UnmarshalNetworks(loser.ExchangeNets(), nn.MarshalNetworks(winner.ExchangeNets())); err != nil {
		t.Fatal(err)
	}
	for i, n := range loser.ExchangeNets() {
		for j, p := range n.Params() {
			if !p.W.Equal(winner.ExchangeNets()[i].Params()[j].W) {
				t.Fatalf("%s %s: adoption did not write the winner's weights", n.Name, p.Name)
			}
		}
	}
	loser.TrainStep(x, y, nopReducer{})
	for i, group := range [][]*nn.Param{loser.aeP, loser.dscP, loser.genP} {
		if after := nn.GradSlab(group); &after[0] != &slabs[i][0] {
			t.Fatalf("group %d: the gradient slab moved across an adoption", i)
		}
	}
}
