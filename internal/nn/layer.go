// Package nn implements the neural-network engine used by the reproduction:
// fully-connected layers, activations, losses, initializers, and network
// (de)serialization. It corresponds to LBANN's model layer: a model is a DAG
// of tensor operations with trainable weights; here the paper's networks are
// all feed-forward stacks (Section II-D calls each CycleGAN component "a
// standard fully-connected neural network"), so the DAG is a sequence.
//
// Mini-batches are tensor.Matrix values with one sample per row. Forward
// caches whatever each layer needs; Backward consumes the cache, accumulates
// parameter gradients, and returns the gradient with respect to the input.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
// Optimizers update W in place; Backward adds into Grad. Grad is nil until
// the parameter first trains — ZeroGrad, Backward and a Reducer allocate it
// through Accum — so a model that only ever runs Forward (a serving replica,
// an LTFB scratch model, a reload canary) holds its weights and nothing
// else. A nil Grad reads as "no gradient": optimizers skip the parameter and
// the gradient norms count it as zero.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam allocates a parameter's weights; see Param for its gradient.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols)}
}

// Accum returns the gradient accumulator, allocating it zeroed, in W's
// shape, on first use.
func (p *Param) Accum() *tensor.Matrix {
	if p.Grad == nil {
		p.Grad = tensor.New(p.W.Rows, p.W.Cols)
	}
	return p.Grad
}

// Layer is one differentiable operation. Forward must be called before
// Backward for the same mini-batch. Layers are not safe for concurrent use;
// each trainer rank owns its own replica.
type Layer interface {
	// Forward computes the layer output for input x. training distinguishes
	// train-time behaviour (e.g. dropout) from evaluation.
	Forward(x *tensor.Matrix, training bool) *tensor.Matrix
	// Backward receives dLoss/dOutput and returns dLoss/dInput, adding any
	// parameter gradients into Params' Grad fields.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's output width given its input width.
	OutDim(in int) int
}

// Linear is a fully-connected layer: y = x·W + b with W of shape In×Out.
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	x       *tensor.Matrix // cached input for Backward
}

// NewLinear creates a Linear layer with Glorot-uniform weights and zero bias.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(fmt.Sprintf("linear_%dx%d.w", in, out), in, out),
		Bias:   newParam(fmt.Sprintf("linear_%dx%d.b", in, out), 1, out),
	}
	GlorotUniform(l.Weight.W, rng)
	return l
}

// Forward computes y = x·W + b and caches x.
func (l *Linear) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects width %d, got %d", l.In, x.Cols))
	}
	l.x = x
	y := tensor.New(x.Rows, l.Out)
	tensor.MatMul(y, x, l.Weight.W)
	tensor.AddRowVector(y, l.Bias.W.Data)
	return y
}

// Backward accumulates dW = xᵀ·dy and db = column-sums(dy), and returns
// dx = dy·Wᵀ.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	tensor.Gemm(l.Weight.Accum(), 1, l.x, tensor.Trans, dy, tensor.NoTrans, 1)
	cs := tensor.ColSums(dy)
	bias := l.Bias.Accum().Data
	for j, v := range cs {
		bias[j] += v
	}
	dx := tensor.New(dy.Rows, l.In)
	tensor.Gemm(dx, 1, dy, tensor.NoTrans, l.Weight.W, tensor.Trans, 0)
	return dx
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutDim returns the layer's fixed output width.
func (l *Linear) OutDim(int) int { return l.Out }

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	x *tensor.Matrix // forward input; Backward gates on its sign
}

// Forward computes max(0, x) and caches the input. It builds no mask, so an
// inference pass allocates only its output.
func (r *ReLU) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	r.x = x
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		}
	}
	return y
}

// Backward gates dy by the sign of the cached input. The gate is a multiply
// by 0 or 1, not a branch, so a blocked −x, Inf or NaN gradient yields the
// −0 or NaN a mask multiply would.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range r.x.Data {
		var gate float32
		if v > 0 {
			gate = 1
		}
		dx.Data[i] = dy.Data[i] * gate
	}
	return dx
}

// Params returns nil: ReLU has no trainable state.
func (r *ReLU) Params() []*Param { return nil }

// OutDim is the identity for activations.
func (r *ReLU) OutDim(in int) int { return in }

// LeakyReLU applies x for x>0 and Alpha·x otherwise; the paper-standard GAN
// activation.
type LeakyReLU struct {
	Alpha float32
	x     *tensor.Matrix
}

// Forward applies the leaky rectifier and caches the input.
func (l *LeakyReLU) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	l.x = x
	y := tensor.New(x.Rows, x.Cols)
	a := l.Alpha
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = a * v
		}
	}
	return y
}

// Backward scales dy by 1 or Alpha depending on the cached input sign.
func (l *LeakyReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	a := l.Alpha
	for i, v := range l.x.Data {
		if v > 0 {
			dx.Data[i] = dy.Data[i]
		} else {
			dx.Data[i] = a * dy.Data[i]
		}
	}
	return dx
}

// Params returns nil: LeakyReLU has no trainable state.
func (l *LeakyReLU) Params() []*Param { return nil }

// OutDim is the identity for activations.
func (l *LeakyReLU) OutDim(in int) int { return in }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	y *tensor.Matrix
}

// Forward computes tanh(x) and caches the output.
func (t *Tanh) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = float32(math.Tanh(float64(v)))
	}
	t.y = y
	return y
}

// Backward computes dy·(1 - y²) using the cached output.
func (t *Tanh) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range t.y.Data {
		dx.Data[i] = dy.Data[i] * (1 - v*v)
	}
	return dx
}

// Params returns nil: Tanh has no trainable state.
func (t *Tanh) Params() []*Param { return nil }

// OutDim is the identity for activations.
func (t *Tanh) OutDim(in int) int { return in }

// Sigmoid applies the logistic function elementwise.
type Sigmoid struct {
	y *tensor.Matrix
}

// Forward computes σ(x) and caches the output.
func (s *Sigmoid) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		y.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	s.y = y
	return y
}

// Backward computes dy·y·(1-y) using the cached output.
func (s *Sigmoid) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(dy.Rows, dy.Cols)
	for i, v := range s.y.Data {
		dx.Data[i] = dy.Data[i] * v * (1 - v)
	}
	return dx
}

// Params returns nil: Sigmoid has no trainable state.
func (s *Sigmoid) Params() []*Param { return nil }

// OutDim is the identity for activations.
func (s *Sigmoid) OutDim(in int) int { return in }

// Dropout randomly zeroes a fraction Rate of activations at train time and
// rescales survivors by 1/(1-Rate) (inverted dropout); at evaluation it is
// the identity.
type Dropout struct {
	Rate float64
	Rng  *rand.Rand
	mask *tensor.Matrix
}

// Forward applies inverted dropout when training, identity otherwise.
func (d *Dropout) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if !training || d.Rate <= 0 {
		d.mask = nil
		return x
	}
	keep := float32(1 / (1 - d.Rate))
	d.mask = tensor.New(x.Rows, x.Cols)
	y := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.Rng.Float64() >= d.Rate {
			d.mask.Data[i] = keep
			y.Data[i] = v * keep
		}
	}
	return y
}

// Backward gates dy by the dropout mask (identity if the last Forward was an
// evaluation pass).
func (d *Dropout) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return dy
	}
	dx := tensor.New(dy.Rows, dy.Cols)
	tensor.Hadamard(dx, dy, d.mask)
	return dx
}

// Params returns nil: Dropout has no trainable state.
func (d *Dropout) Params() []*Param { return nil }

// OutDim is the identity for dropout.
func (d *Dropout) OutDim(in int) int { return in }
