// Package cyclegan implements the paper's surrogate model for ICF
// experiments (Section II-D, Figure 2): a CycleGAN built from four
// fully-connected networks over a shared 20-D latent space.
//
//   - A multimodal autoencoder (encoder E, decoder Dec) embeds the output
//     bundle — 15 scalars plus all X-ray images, predicted jointly so the
//     modalities stay correlated ("internal consistency").
//   - The forward model F maps the 5-D input parameters into the latent
//     space; Dec(F(x)) is the surrogate prediction, trained with mean
//     absolute error ("surrogate fidelity").
//   - The discriminator D distinguishes encoded real outputs E(y) from
//     predicted latents F(x), trained adversarially ("physical
//     consistency").
//   - The inverse model G maps latents back to inputs with G(F(x)) ≈ x
//     ("self consistency" / cycle loss), regularizing the otherwise
//     underdetermined inverse problem.
//
// TrainStep runs the three phases (autoencoder, discriminator, generator)
// on one mini-batch, reducing each phase's gradients through the supplied
// reducer before its optimizer step — this is the hook data-parallel
// trainers use to allreduce.
//
// Only the generator side — F, G and the decoder they rely on — is used
// once a model is trained: it is what LTFB tournaments exchange while
// discriminators stay local (Section III-C), and all that Predict and
// Invert run. Generator is that subset. A Surrogate embeds it beside the
// encoder, the discriminator and the optimizer state, and a serving tier
// keeps the Generator alone.
package cyclegan

import (
	"fmt"
	"math/rand"

	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Config describes the surrogate architecture and optimization
// hyperparameters. The paper's experiments use batch 128, Adam, learning
// rate 0.001 (Section IV); layer widths scale with the configured JAG
// geometry.
type Config struct {
	Geometry  jag.Config
	LatentDim int
	// EncoderHidden are the widths between the output bundle and the
	// latent; the decoder mirrors them.
	EncoderHidden []int
	// ForwardHidden are the widths of F (5 → latent).
	ForwardHidden []int
	// InverseHidden are the widths of G (latent → 5).
	InverseHidden []int
	// DiscHidden are the widths of D (latent → 1 logit).
	DiscHidden []int
	LR         float64
	// Loss weights for the generator phase.
	FidelityWeight    float64
	AdversarialWeight float64
	CycleWeight       float64
	// LatentWeight scales the latent-matching term MSE(F(x), E(y)): the
	// paper's forward model maps into the latent space that the multimodal
	// autoencoder defines a priori, and this loss is what pins F to it.
	LatentWeight float64
	// ScalarWeight balances the two output modalities inside the MAE
	// losses: the 15 scalar columns are up-weighted by this factor so the
	// image pixels (which outnumber them by orders of magnitude) cannot
	// drown them out of the jointly-predicted bundle.
	ScalarWeight float64
}

// DefaultConfig returns a laptop-scale configuration for the given
// geometry, keeping the paper's latent width of 20.
func DefaultConfig(g jag.Config) Config {
	return Config{
		Geometry:          g,
		LatentDim:         20,
		EncoderHidden:     []int{128, 64},
		ForwardHidden:     []int{32, 32},
		InverseHidden:     []int{32},
		DiscHidden:        []int{32, 16},
		LR:                0.001,
		FidelityWeight:    1.0,
		AdversarialWeight: 0.3,
		CycleWeight:       1.0,
		LatentWeight:      1.0,
		ScalarWeight:      float64(g.ImageDim()) / float64(jag.ScalarDim),
	}
}

// Validate reports whether the configuration is trainable.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.LatentDim < 1 {
		return fmt.Errorf("cyclegan: latent dim %d < 1", c.LatentDim)
	}
	if c.LR <= 0 {
		return fmt.Errorf("cyclegan: learning rate %v", c.LR)
	}
	if c.ScalarWeight < 0 {
		return fmt.Errorf("cyclegan: scalar weight %v", c.ScalarWeight)
	}
	return nil
}

// Generator is the part of the surrogate that inference runs: the forward
// model F, the decoder and the inverse model G. Predict and Invert only read
// the weights, so any number of goroutines may call them on one Generator at
// once. A Generator copied out of a Surrogate shares its networks and keeps
// nothing else of it alive.
type Generator struct {
	Forward *nn.Network
	Decoder *nn.Network
	Inverse *nn.Network
}

// Nets returns the generator's networks in LTFB exchange order: F, G, Dec.
func (g *Generator) Nets() []*nn.Network {
	return []*nn.Network{g.Forward, g.Inverse, g.Decoder}
}

// Predict runs the forward surrogate: output bundles for a batch of inputs.
func (g *Generator) Predict(x *tensor.Matrix) *tensor.Matrix {
	return g.Decoder.Forward(g.Forward.Forward(x, false), false)
}

// Invert runs the inverse surrogate: inferred inputs for a batch of inputs'
// latents (the self-consistency path G(F(x))).
func (g *Generator) Invert(x *tensor.Matrix) *tensor.Matrix {
	return g.Inverse.Forward(g.Forward.Forward(x, false), false)
}

// Surrogate is one replica of the CycleGAN surrogate with its optimizers:
// the Generator, plus the encoder and discriminator only training reads.
// It implements the trainer's Model contract structurally. Predict, Invert,
// Eval and AdversarialScore only read the weights, so any number of
// goroutines may call them on one Surrogate at once; TrainStep and loading
// weights are single-owner and must not overlap them.
type Surrogate struct {
	Cfg Config

	Generator
	Encoder *nn.Network
	Disc    *nn.Network

	optAE   *opt.Adam
	optDisc *opt.Adam
	optGen  *opt.Adam

	// The three groups TrainStep reduces and steps, each one gradient slab
	// (nn.GradSlab): the autoencoder (E then Dec), D, and the generator (F
	// then G).
	aeP, dscP, genP []*nn.Param
	// arena is where a TrainStep's activations and gradients live, until the
	// next one; empty in a model that never trains.
	arena tensor.Arena
}

// New builds a surrogate with weights drawn from seed. Two replicas built
// from the same (cfg, seed) are bitwise identical, which data-parallel
// training relies on.
func New(cfg Config, seed int64) *Surrogate {
	return build(cfg, rand.New(rand.NewSource(seed)))
}

// NewZero builds a surrogate of cfg's architecture with every weight zero,
// for a checkpoint load or a weight copy to fill. It draws nothing: New
// would draw every weight (about 12.6 M of them at the paper's 64x64
// geometry) only for the load to overwrite them.
func NewZero(cfg Config) *Surrogate { return build(cfg, nil) }

// build lays out the five networks with weights drawn from rng, or zero
// where rng is nil (nn.NewLinear).
func build(cfg Config, rng *rand.Rand) *Surrogate {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ScalarWeight == 0 {
		cfg.ScalarWeight = 1
	}
	outDim := cfg.Geometry.OutputDim()

	encDims := append([]int{outDim}, cfg.EncoderHidden...)
	encDims = append(encDims, cfg.LatentDim)
	decDims := []int{cfg.LatentDim}
	for i := len(cfg.EncoderHidden) - 1; i >= 0; i-- {
		decDims = append(decDims, cfg.EncoderHidden[i])
	}
	decDims = append(decDims, outDim)
	fwdDims := append([]int{jag.InputDim}, cfg.ForwardHidden...)
	fwdDims = append(fwdDims, cfg.LatentDim)
	invDims := append([]int{cfg.LatentDim}, cfg.InverseHidden...)
	invDims = append(invDims, jag.InputDim)
	dscDims := append([]int{cfg.LatentDim}, cfg.DiscHidden...)
	dscDims = append(dscDims, 1)

	// The weights are drawn E, Dec, F, G, D: the calls below run in their
	// lexical order.
	s := &Surrogate{
		Cfg:     cfg,
		Encoder: nn.MLP("encoder", encDims, nn.ActLeakyReLU, nn.ActNone, rng),
		Generator: Generator{
			Decoder: nn.MLP("decoder", decDims, nn.ActLeakyReLU, nn.ActSigmoid, rng),
			Forward: nn.MLP("forward", fwdDims, nn.ActLeakyReLU, nn.ActNone, rng),
			Inverse: nn.MLP("inverse", invDims, nn.ActLeakyReLU, nn.ActSigmoid, rng),
		},
		Disc: nn.MLP("disc", dscDims, nn.ActLeakyReLU, nn.ActNone, rng),
	}
	s.optAE = opt.NewAdam(cfg.LR)
	s.optDisc = opt.NewAdam(cfg.LR)
	s.optGen = opt.NewAdam(cfg.LR)
	s.aeP = append(s.Encoder.Params(), s.Decoder.Params()...)
	s.dscP = s.Disc.Params()
	s.genP = append(s.Forward.Params(), s.Inverse.Params()...)
	return s
}

// Nets returns every network of the surrogate, in checkpoint order: E, Dec,
// F, G, D. (s.Generator.Nets() is the generator's three.)
func (s *Surrogate) Nets() []*nn.Network {
	return []*nn.Network{s.Encoder, s.Decoder, s.Forward, s.Inverse, s.Disc}
}

// ExchangeNets returns the networks LTFB ships between trainers: the
// generator side (forward, inverse, decoder). The discriminator and encoder
// stay local, mimicking "educating a student with multiple teachers" and
// cutting exchange volume (Section III-C).
func (s *Surrogate) ExchangeNets() []*nn.Network { return s.Generator.Nets() }

// weightedMAE is MAE over the output bundle with the leading ScalarDim
// columns up-weighted by w. The reported loss and the gradient are both
// normalized by the total weight, so w only redistributes attention between
// modalities. The gradient is drawn from a.
func weightedMAE(pred, target *tensor.Matrix, w float64, a *tensor.Arena) (float64, *tensor.Matrix) {
	if w == 1 || pred.Cols <= jag.ScalarDim {
		return nn.MAE(pred, target, a)
	}
	rows, cols := pred.Rows, pred.Cols
	total := float64(rows) * (w*float64(jag.ScalarDim) + float64(cols-jag.ScalarDim))
	grad := a.New(rows, cols)
	var loss float64
	for r := 0; r < rows; r++ {
		pr, tr, gr := pred.Row(r), target.Row(r), grad.Row(r)
		for c := range pr {
			cw := 1.0
			if c < jag.ScalarDim {
				cw = w
			}
			d := float64(pr[c] - tr[c])
			g := float32(cw / total)
			if d >= 0 {
				loss += cw * d
				gr[c] = g
			} else {
				loss -= cw * d
				gr[c] = -g
			}
		}
	}
	return loss / total, grad
}

// useArena points every network's passes at a (nil: back at the heap).
func (s *Surrogate) useArena(a *tensor.Arena) {
	for _, n := range [...]*nn.Network{s.Encoder, s.Decoder, s.Forward, s.Inverse, s.Disc} {
		n.UseArena(a)
	}
}

// TrainStep runs one mini-batch through the three training phases and
// returns the named loss values. x is the batch of 5-D inputs, y the
// corresponding output bundles. r reduces gradients across replicas before
// each optimizer step.
//
// Every matrix the step makes comes from the surrogate's arena and is
// written over by the next step, so a step of a shape already seen allocates
// next to nothing. The networks draw from the arena only while the step runs:
// a pass made outside it, inference or not, allocates and returns as ever.
func (s *Surrogate) TrainStep(x, y *tensor.Matrix, r nn.Reducer) map[string]float64 {
	losses := make(map[string]float64, 6)
	a := &s.arena
	a.Reset()
	s.useArena(a)
	defer s.useArena(nil)

	// Phase 1 — multimodal autoencoder: Dec(E(y)) ≈ y (internal
	// consistency).
	nn.ZeroGrad(s.aeP)
	z := s.Encoder.Forward(y, true)
	yRec := s.Decoder.Forward(z, true)
	aeLoss, dRec := weightedMAE(yRec, y, s.Cfg.ScalarWeight, a)
	losses["autoencoder"] = aeLoss
	dz := s.Decoder.Backward(dRec)
	s.Encoder.BackwardParams(dz)
	r.Reduce(s.aeP)
	s.optAE.Step(s.aeP)

	// Phase 2 — discriminator: real latents E(y) vs fake latents F(x)
	// (physical consistency, the adversarial term). Neither E nor F is
	// updated here, so this F(x) is also the one phase 3 differentiates.
	zReal := s.Encoder.Forward(y, false)
	zGen := s.Forward.Forward(x, true)
	nn.ZeroGrad(s.dscP)
	logitsReal := s.Disc.Forward(zReal, true)
	ones := a.New(logitsReal.Rows, 1)
	ones.Fill(1)
	zeros := a.New(logitsReal.Rows, 1)
	zeros.Zero()
	lossReal, dReal := nn.BCEWithLogits(logitsReal, ones, a)
	s.Disc.BackwardParams(dReal)
	logitsFake := s.Disc.Forward(zGen, true)
	lossFake, dFake := nn.BCEWithLogits(logitsFake, zeros, a)
	s.Disc.BackwardParams(dFake)
	losses["disc"] = lossReal + lossFake
	r.Reduce(s.dscP)
	s.optDisc.Step(s.dscP)

	// Phase 3 — generator: F (and G) trained on latent matching + fidelity
	// + adversarial + cycle. Gradients flow through Dec and D, which this
	// phase does not train: only their input gradients are computed.
	nn.ZeroGrad(s.genP)

	latLoss, dLat := nn.MSE(zGen, zReal, a)
	losses["latent"] = latLoss
	tensor.Scale(dLat, float32(s.Cfg.LatentWeight))

	yPred := s.Decoder.Forward(zGen, true)
	fidLoss, dPred := weightedMAE(yPred, y, s.Cfg.ScalarWeight, a)
	losses["fidelity"] = fidLoss
	tensor.Scale(dPred, float32(s.Cfg.FidelityWeight))
	dzFid := s.Decoder.BackwardInput(dPred)

	logitsGen := s.Disc.Forward(zGen, true)
	advLoss, dAdv := nn.BCEWithLogits(logitsGen, ones, a)
	losses["adversarial"] = advLoss
	tensor.Scale(dAdv, float32(s.Cfg.AdversarialWeight))
	dzAdv := s.Disc.BackwardInput(dAdv)

	xRec := s.Inverse.Forward(zGen, true)
	cycLoss, dCyc := nn.MAE(xRec, x, a)
	losses["cycle"] = cycLoss
	tensor.Scale(dCyc, float32(s.Cfg.CycleWeight))
	dzCyc := s.Inverse.Backward(dCyc)

	dzTotal := a.New(zGen.Rows, zGen.Cols)
	tensor.Add(dzTotal, dzFid, dzAdv)
	tensor.Add(dzTotal, dzTotal, dzCyc)
	tensor.Add(dzTotal, dzTotal, dLat)
	s.Forward.BackwardParams(dzTotal)

	r.Reduce(s.genP)
	s.optGen.Step(s.genP)
	return losses
}

// Eval returns the validation objective the paper uses for tournaments and
// quality plots: forward loss plus inverse loss on held-out data (lower is
// better).
func (s *Surrogate) Eval(x, y *tensor.Matrix) float64 {
	z := s.Forward.Forward(x, false)
	fwd := nn.MAEValue(s.Decoder.Forward(z, false), y)
	inv := nn.MAEValue(s.Inverse.Forward(z, false), x)
	return fwd + inv
}

// AdversarialScore judges this model's generator with this model's
// discriminator: the cross-entropy of D(F(x)) against the "real" label
// (lower means the generator fools the discriminator better), plus the
// fidelity term so a degenerate generator cannot win on fooling alone. LTFB
// evaluates an incoming generator by loading it into a scratch model that
// keeps the local discriminator — "evaluate them against their local
// discriminators" (Figure 6b).
func (s *Surrogate) AdversarialScore(x, y *tensor.Matrix) float64 {
	z := s.Forward.Forward(x, false)
	logits := s.Disc.Forward(z, false)
	ones := tensor.New(logits.Rows, 1)
	ones.Fill(1)
	adv, _ := nn.BCEWithLogits(logits, ones, nil)
	fid := nn.MAEValue(s.Decoder.Forward(z, false), y)
	return adv + fid
}
