package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// The CycleGAN surrogate (Section II-D) uses three loss families: mean
// absolute error for the internal- and self-consistency terms, and binary
// cross-entropy for the adversarial term. Each function returns the scalar
// loss averaged over every element of the batch together with the gradient
// with respect to pred, already scaled by 1/(rows·cols) so it can be fed
// straight into Network.Backward. The gradient is drawn from a (nil: the
// heap), like the activations of the pass it closes.

// MAE returns mean |pred-target| and its (sub)gradient sign(pred-target)/N.
func MAE(pred, target *tensor.Matrix, a *tensor.Arena) (float64, *tensor.Matrix) {
	mustMatch(pred, target, "MAE")
	n := float64(len(pred.Data))
	grad := a.New(pred.Rows, pred.Cols)
	var loss float64
	inv := float32(1 / n)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		if d >= 0 {
			loss += float64(d)
			grad.Data[i] = inv
		} else {
			loss -= float64(d)
			grad.Data[i] = -inv
		}
	}
	return loss / n, grad
}

// MSE returns mean (pred-target)² and gradient 2(pred-target)/N.
func MSE(pred, target *tensor.Matrix, a *tensor.Arena) (float64, *tensor.Matrix) {
	mustMatch(pred, target, "MSE")
	n := float64(len(pred.Data))
	grad := a.New(pred.Rows, pred.Cols)
	var loss float64
	inv := float32(2 / n)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += float64(d) * float64(d)
		grad.Data[i] = inv * d
	}
	return loss / n, grad
}

// BCEWithLogits returns the numerically-stable binary cross-entropy between
// logits and targets in [0,1], with gradient (σ(logit)-target)/N. This is the
// adversarial loss used to train the discriminator and, with flipped targets,
// the generator.
func BCEWithLogits(logits, target *tensor.Matrix, a *tensor.Arena) (float64, *tensor.Matrix) {
	mustMatch(logits, target, "BCEWithLogits")
	n := float64(len(logits.Data))
	grad := a.New(logits.Rows, logits.Cols)
	inv := float32(1 / n)
	var loss float64
	for i, z := range logits.Data {
		t := target.Data[i]
		zf := float64(z)
		// max(z,0) - z*t + log(1+exp(-|z|))
		m := zf
		if m < 0 {
			m = 0
		}
		loss += m - zf*float64(t) + math.Log1p(math.Exp(-math.Abs(zf)))
		sig := float32(1 / (1 + math.Exp(-zf)))
		grad.Data[i] = inv * (sig - t)
	}
	return loss / n, grad
}

// MAEValue returns mean |pred-target| without allocating a gradient, for
// evaluation loops.
func MAEValue(pred, target *tensor.Matrix) float64 {
	mustMatch(pred, target, "MAEValue")
	var loss float64
	for i, p := range pred.Data {
		d := float64(p - target.Data[i])
		loss += math.Abs(d)
	}
	return loss / float64(len(pred.Data))
}

func mustMatch(a, b *tensor.Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
