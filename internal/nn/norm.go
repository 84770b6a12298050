package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm normalizes each feature over the mini-batch, then applies a
// learned affine transform — the standard stabilizer in GAN stacks (LBANN
// ships it as a core layer). At training time it uses batch statistics and
// maintains running estimates; at evaluation it uses the running estimates,
// so single-sample inference works.
type BatchNorm struct {
	Dim      int
	Eps      float32
	Momentum float32 // running-stat update rate, e.g. 0.1

	Gamma *Param // 1×Dim scale
	Beta  *Param // 1×Dim shift

	// Running statistics. They are not trainable parameters: evaluation on
	// a freshly constructed layer needs a training pass (or copied stats)
	// before the estimates are meaningful.
	runMean []float32
	runVar  []float32

	xhat *tensor.Matrix
	std  []float32
	// frozen marks that the last Forward used running statistics, so
	// Backward must treat them as constants.
	frozen bool
	batch  int
}

// NewBatchNorm creates a batch-norm layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:      dim,
		Eps:      1e-5,
		Momentum: 0.1,
		Gamma:    newParam("bn.gamma", 1, dim),
		Beta:     newParam("bn.beta", 1, dim),
		runMean:  make([]float32, dim),
		runVar:   make([]float32, dim),
	}
	bn.Gamma.W.Fill(1)
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

// Forward normalizes x feature-wise.
func (bn *BatchNorm) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	n := x.Rows
	y := tensor.New(n, bn.Dim)
	if !training || n < 2 {
		bn.frozen = true
		bn.xhat = tensor.New(n, bn.Dim)
		bn.std = make([]float32, bn.Dim)
		for j := range bn.std {
			bn.std[j] = float32(math.Sqrt(float64(bn.runVar[j] + bn.Eps)))
		}
		for i := 0; i < n; i++ {
			row, xh, out := x.Row(i), bn.xhat.Row(i), y.Row(i)
			for j := range row {
				xh[j] = (row[j] - bn.runMean[j]) / bn.std[j]
				out[j] = bn.Gamma.W.Data[j]*xh[j] + bn.Beta.W.Data[j]
			}
		}
		return y
	}
	bn.frozen = false
	mean := make([]float32, bn.Dim)
	variance := make([]float32, bn.Dim)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	inv := 1 / float32(n)
	for j := range mean {
		mean[j] *= inv
	}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			d := v - mean[j]
			variance[j] += d * d
		}
	}
	for j := range variance {
		variance[j] *= inv
	}
	bn.std = make([]float32, bn.Dim)
	for j := range bn.std {
		bn.std[j] = float32(math.Sqrt(float64(variance[j] + bn.Eps)))
		bn.runMean[j] = (1-bn.Momentum)*bn.runMean[j] + bn.Momentum*mean[j]
		bn.runVar[j] = (1-bn.Momentum)*bn.runVar[j] + bn.Momentum*variance[j]
	}
	bn.xhat = tensor.New(n, bn.Dim)
	bn.batch = n
	for i := 0; i < n; i++ {
		row, xh, out := x.Row(i), bn.xhat.Row(i), y.Row(i)
		for j := range row {
			xh[j] = (row[j] - mean[j]) / bn.std[j]
			out[j] = bn.Gamma.W.Data[j]*xh[j] + bn.Beta.W.Data[j]
		}
	}
	return y
}

// Backward propagates through the batch-statistics normalization (the full
// coupled gradient, not the frozen-stats approximation).
func (bn *BatchNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dGamma, dBeta := bn.Gamma.Accum().Data, bn.Beta.Accum().Data
	if bn.frozen {
		// Running statistics are constants: only the affine transform and
		// the fixed scaling contribute.
		dx := tensor.New(dy.Rows, bn.Dim)
		for i := 0; i < dy.Rows; i++ {
			row, xh, out := dy.Row(i), bn.xhat.Row(i), dx.Row(i)
			for j := range row {
				dGamma[j] += row[j] * xh[j]
				dBeta[j] += row[j]
				out[j] = row[j] * bn.Gamma.W.Data[j] / bn.std[j]
			}
		}
		return dx
	}
	n := bn.batch
	invN := 1 / float32(n)
	dx := tensor.New(n, bn.Dim)
	sumDy := make([]float32, bn.Dim)
	sumDyXhat := make([]float32, bn.Dim)
	for i := 0; i < n; i++ {
		row, xh := dy.Row(i), bn.xhat.Row(i)
		for j := range row {
			sumDy[j] += row[j]
			sumDyXhat[j] += row[j] * xh[j]
		}
	}
	for j := range sumDy {
		dBeta[j] += sumDy[j]
		dGamma[j] += sumDyXhat[j]
	}
	for i := 0; i < n; i++ {
		row, xh, out := dy.Row(i), bn.xhat.Row(i), dx.Row(i)
		for j := range row {
			out[j] = bn.Gamma.W.Data[j] / bn.std[j] * (row[j] - invN*sumDy[j] - invN*xh[j]*sumDyXhat[j])
		}
	}
	return dx
}

// Params returns the scale and shift parameters.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// OutDim is the identity for normalization layers.
func (bn *BatchNorm) OutDim(in int) int { return in }

// LayerNorm normalizes each sample over its features with a learned affine
// transform; unlike BatchNorm it has no batch coupling, so it behaves
// identically at train and evaluation time.
type LayerNorm struct {
	Dim   int
	Eps   float32
	Gamma *Param
	Beta  *Param

	xhat *tensor.Matrix
	std  []float32
}

// NewLayerNorm creates a layer-norm over dim features.
func NewLayerNorm(dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		Gamma: newParam("ln.gamma", 1, dim),
		Beta:  newParam("ln.beta", 1, dim),
	}
	ln.Gamma.W.Fill(1)
	return ln
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	n := x.Rows
	y := tensor.New(n, ln.Dim)
	ln.xhat = tensor.New(n, ln.Dim)
	ln.std = make([]float32, n)
	invD := 1 / float32(ln.Dim)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean *= invD
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance *= invD
		std := float32(math.Sqrt(float64(variance + ln.Eps)))
		ln.std[i] = std
		xh, out := ln.xhat.Row(i), y.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) / std
			out[j] = ln.Gamma.W.Data[j]*xh[j] + ln.Beta.W.Data[j]
		}
	}
	return y
}

// Backward propagates through the per-sample normalization.
func (ln *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	n := dy.Rows
	dx := tensor.New(n, ln.Dim)
	invD := 1 / float32(ln.Dim)
	dGamma, dBeta := ln.Gamma.Accum().Data, ln.Beta.Accum().Data
	for i := 0; i < n; i++ {
		row, xh, out := dy.Row(i), ln.xhat.Row(i), dx.Row(i)
		var sumDy, sumDyXhat float32
		for j := range row {
			g := row[j] * ln.Gamma.W.Data[j]
			sumDy += g
			sumDyXhat += g * xh[j]
			dGamma[j] += row[j] * xh[j]
			dBeta[j] += row[j]
		}
		for j := range row {
			g := row[j] * ln.Gamma.W.Data[j]
			out[j] = (g - invD*sumDy - invD*xh[j]*sumDyXhat) / ln.std[i]
		}
	}
	return dx
}

// Params returns the scale and shift parameters.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// OutDim is the identity for normalization layers.
func (ln *LayerNorm) OutDim(in int) int { return in }

// gradNorm is the L2 norm of the concatenated gradients of params; a
// parameter that never trained contributes nothing.
func gradNorm(params []*Param) float64 {
	var sq float64
	for _, p := range params {
		if p.Grad != nil {
			v := tensor.Norm2(p.Grad)
			sq += v * v
		}
	}
	return math.Sqrt(sq)
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, returning the pre-clip norm. Trainers use it to keep GAN
// phases from destabilizing each other.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	norm := gradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			if p.Grad != nil {
				tensor.Scale(p.Grad, scale)
			}
		}
	}
	return norm
}
