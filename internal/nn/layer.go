// Package nn implements the neural-network engine used by the reproduction:
// fully-connected layers, activations, losses, initializers, and network
// (de)serialization. It corresponds to LBANN's model layer: a model is a DAG
// of tensor operations with trainable weights; here the paper's networks are
// all feed-forward stacks (Section II-D calls each CycleGAN component "a
// standard fully-connected neural network"), so the DAG is a sequence.
//
// Mini-batches are tensor.Matrix values with one sample per row. The training
// argument of Forward means one thing: a Backward follows.
//
//   - Forward(x, false) is inference, a pure function of the weights. It
//     writes no layer field and returns a matrix the caller owns, so any
//     number of goroutines may run it on one network at once.
//   - Forward(x, true) also keeps, in each layer, the operands its Backward
//     needs: a Linear keeps its input and, when it has an activation, its
//     output, which is the matrix it returns — read it, do not write it,
//     until Backward has run.
//     Backward consumes what was kept, accumulates parameter gradients and
//     returns the gradient with respect to the input; a Backward with nothing
//     kept panics rather than differentiate an older batch.
//
// Training — Forward(x, true), Backward, ZeroGrad, an optimizer step, loading
// weights — is single-owner: one goroutine at a time, and no inference pass
// on the same network while weights change. For the length of a training
// step its owner may lend the network an arena (Network.UseArena); what the
// passes return is then the arena's, recycled at its next Reset.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
// Optimizers update W in place; Backward adds into Grad. Grad is nil until
// the parameter first trains — ZeroGrad, Backward and a Reducer lay it out
// through GradSlab, as a view into the slab of the parameters it trains with
// — so a model that only ever runs Forward (a serving replica, an LTFB
// scratch model, a reload canary) holds its weights and nothing else. A nil
// Grad reads as "no gradient": optimizers skip the parameter and the gradient
// norms count it as zero.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam allocates a parameter's weights; see Param for its gradient.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols)}
}

// GradSlab returns the gradients of params as one slice: each Grad is a view
// into it, in W's shape, one after the other in the order of params. That is
// the buffer an allreduce sums in place and one clear zeroes. Parameters not
// laid out that way yet — none has trained, or they trained apart, or in
// another grouping — are moved into a new slab with the values they hold,
// zero where there is none; asking again for the same params, or for a run of
// consecutive ones, allocates nothing.
func GradSlab(params []*Param) []float32 {
	total := 0
	for _, p := range params {
		total += len(p.W.Data)
	}
	if total == 0 {
		return nil
	}
	first := params[0].Grad
	if first == nil || cap(first.Data) < total {
		return regroup(params, total)
	}
	slab := first.Data[:total]
	off := 0
	for _, p := range params {
		if n := len(p.W.Data); n > 0 {
			if p.Grad == nil || len(p.Grad.Data) != n || &p.Grad.Data[0] != &slab[off] {
				return regroup(params, total)
			}
			off += n
		}
	}
	return slab
}

// regroup lays params' gradients out in a fresh slab.
func regroup(params []*Param, total int) []float32 {
	slab := make([]float32, total)
	off := 0
	for _, p := range params {
		end := off + len(p.W.Data)
		view := slab[off:end]
		if p.Grad != nil {
			copy(view, p.Grad.Data)
		}
		p.Grad = tensor.FromSlice(p.W.Rows, p.W.Cols, view)
		off = end
	}
	return slab
}

// ZeroGrad clears the gradients of params, laying them out as one slab
// (GradSlab) if they are not.
func ZeroGrad(params []*Param) { clear(GradSlab(params)) }

// Layer is one differentiable operation. Any number of concurrent
// Forward(x, false, nil) calls are safe; training is single-owner (see the
// package comment). Both passes take the arena their result, and any
// temporary, comes from; nil is the heap.
type Layer interface {
	// Forward computes the layer output for input x. training says that a
	// Backward for this mini-batch follows, so the layer keeps the operand
	// it needs; with training false the layer is left untouched.
	Forward(x *tensor.Matrix, training bool, a *tensor.Arena) *tensor.Matrix
	// Backward receives dLoss/dOutput for the mini-batch of the last
	// Forward(x, true, …) and returns dLoss/dInput. With accumulate it adds
	// the parameter gradients into Params' Grad fields; without, the layer
	// is one the loss flows through but does not train, and they are not
	// computed. It uses up what that Forward kept and panics if there is
	// nothing to use.
	Backward(dy *tensor.Matrix, accumulate bool, a *tensor.Arena) *tensor.Matrix
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Linear is a fully-connected layer: y = act(x·W + b) with W of shape In×Out,
// computed in one pass (tensor.Dense).
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	// Act is applied to every element of the output, after the bias;
	// ActNone leaves x·W + b.
	Act  Activation
	x, y *tensor.Matrix // input and output kept by Forward(x, true) for Backward
}

// NewLinear creates a Linear layer with no activation, Glorot-uniform
// weights drawn from rng and zero bias. A nil rng draws nothing and leaves
// the weights zero, for a load or a copy to fill.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(fmt.Sprintf("linear_%dx%d.w", in, out), in, out),
		Bias:   newParam(fmt.Sprintf("linear_%dx%d.b", in, out), 1, out),
	}
	if rng != nil {
		GlorotUniform(l.Weight.W, rng)
	}
	return l
}

// Forward computes y = act(x·W + b).
func (l *Linear) Forward(x *tensor.Matrix, training bool, a *tensor.Arena) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects width %d, got %d", l.In, x.Cols))
	}
	y := a.New(x.Rows, l.Out)
	tensor.Dense(y, x, l.Weight.W, l.Bias.W.Data, l.Act)
	if training {
		l.x, l.y = x, y
	}
	return y
}

// Backward takes dy back through the activation, to g = dLoss/d(x·W + b),
// accumulates dW = xᵀ·g and db = column-sums(g), and returns dx = g·Wᵀ.
func (l *Linear) Backward(dy *tensor.Matrix, accumulate bool, a *tensor.Arena) *tensor.Matrix {
	x, g := l.take(dy, a)
	if accumulate {
		l.accumulate(x, g, a)
	}
	dx := a.New(dy.Rows, l.In)
	tensor.Gemm(dx, 1, g, tensor.NoTrans, l.Weight.W, tensor.Trans, 0)
	return dx
}

// take uses up what Forward(x, true) kept, so one forward pass is
// differentiated at most once: it returns that input and g, dy taken back
// through the activation from the kept output. It panics when no such pass
// ran since the last Backward — after an inference pass nothing is kept,
// never an older batch.
func (l *Linear) take(dy *tensor.Matrix, a *tensor.Arena) (x, g *tensor.Matrix) {
	x, y := l.x, l.y
	if x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	l.x, l.y = nil, nil
	return x, l.Act.Grad(dy, y, a)
}

// accumulate adds dW = xᵀ·g and db = column-sums(g) into the gradients.
func (l *Linear) accumulate(x, g *tensor.Matrix, a *tensor.Arena) {
	if l.Weight.Grad == nil || l.Bias.Grad == nil {
		GradSlab(l.Params())
	}
	tensor.Gemm(l.Weight.Grad, 1, x, tensor.Trans, g, tensor.NoTrans, 1)
	// The column sums are formed apart and added once, as they always were:
	// a second Backward into the same accumulator adds its sum, not its rows
	// one by one.
	cs := a.New(1, l.Out)
	tensor.ColSums(cs.Data, g)
	bias := l.Bias.Grad.Data
	for j, v := range cs.Data {
		bias[j] += v
	}
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
