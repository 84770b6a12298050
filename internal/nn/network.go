package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers trained as a unit — the analogue of
// an LBANN "model". Any number of goroutines may call Forward(x, false) on
// one Network at once; everything else (Forward(x, true), Backward, clearing
// gradients, writing weights) is single-owner and must not overlap an
// inference pass.
type Network struct {
	Name   string
	Layers []Layer

	arena *tensor.Arena // where passes draw from (UseArena); nil is the heap
}

// UseArena makes every pass, forward or backward, draw what it returns and
// its temporaries from a until UseArena(nil); those matrices are then a's,
// and whoever resets it decides how long they live. It is for the owner of a
// training step, for the length of the step: inference from other goroutines
// is excluded then anyway, and at any other time Forward(x, false) returns a
// matrix that is the caller's.
func (n *Network) UseArena(a *tensor.Arena) { n.arena = a }

// Forward runs the whole stack on mini-batch x. With training false it
// changes nothing in the network and the result belongs to the caller; with
// training true every layer keeps what the Backward that follows needs.
func (n *Network) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, training, n.arena)
	}
	return x
}

// Backward propagates dLoss/dOutput through the stack in reverse, returning
// dLoss/dInput. Parameter gradients accumulate into each Param's Grad. It
// differentiates the last Forward(x, true), once, and panics without one.
func (n *Network) Backward(dy *tensor.Matrix) *tensor.Matrix { return n.backward(dy, true) }

// BackwardInput is Backward for a network the loss flows through but does
// not train: it returns the same dLoss/dInput and leaves every Grad as it
// was, without computing the parameter gradients.
func (n *Network) BackwardInput(dy *tensor.Matrix) *tensor.Matrix { return n.backward(dy, false) }

// BackwardParams is Backward for a network whose input gradient nothing
// reads — the first network of a chain, or one trained on its own loss: it
// accumulates the same parameter gradients, bit for bit, and returns nothing,
// so a first layer that is Linear never forms its dy·Wᵀ.
func (n *Network) BackwardParams(dy *tensor.Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if l, ok := n.Layers[i].(*Linear); ok && i == 0 {
			x, g := l.take(dy, n.arena)
			l.accumulate(x, g, n.arena)
			return
		}
		dy = n.Layers[i].Backward(dy, true, n.arena)
	}
}

func (n *Network) backward(dy *tensor.Matrix, accumulate bool) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dy = n.Layers[i].Backward(dy, accumulate, n.arena)
	}
	return dy
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// CopyWeightsFrom overwrites n's weights with src's. The two networks must
// have identical parameter shapes (i.e. the same architecture); it panics
// otherwise. Gradients are not copied.
func (n *Network) CopyWeightsFrom(src *Network) {
	dst := n.Params()
	from := src.Params()
	if len(dst) != len(from) {
		panic(fmt.Sprintf("nn: CopyWeightsFrom param count %d vs %d", len(from), len(dst)))
	}
	for i, p := range dst {
		p.W.CopyFrom(from[i].W)
	}
}

// Activation names the elementwise nonlinearity a Linear applies to its
// output, for MLP construction: it is the epilogue of tensor.Dense.
type Activation = tensor.Act

// Supported activations for MLP construction.
const (
	ActNone      = tensor.ActNone
	ActLeakyReLU = tensor.ActLeakyReLU
	ActSigmoid   = tensor.ActSigmoid
)

// MLP builds a fully-connected network with the given layer widths. dims has
// at least two entries (input and output width); every Linear but the last
// has the hidden activation, the last the output one (ActNone for a linear
// head). The rng seeds the weight initialization, so two MLPs built with
// identically-seeded rngs are identical; a nil rng leaves every weight zero
// (NewLinear).
func MLP(name string, dims []int, hidden, output Activation, rng *rand.Rand) *Network {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	net := &Network{Name: name}
	for i := 0; i+1 < len(dims); i++ {
		l := NewLinear(dims[i], dims[i+1], rng)
		l.Act = hidden
		if i+2 == len(dims) {
			l.Act = output
		}
		net.Layers = append(net.Layers, l)
	}
	return net
}
