// Package opt implements the optimizer that trains the surrogate models:
// Adam, which the paper's experiments run with an initial learning rate of
// 0.001 and mini-batches of 128 (Section IV). There is no other optimizer,
// no learning-rate schedule and no interface over them: nothing constructs
// one.
//
// Optimizer state (the Adam moments) lives with the trainer, not the model:
// when LTFB replaces a model's weights after a lost tournament, the trainer
// keeps that state. An Adam serves one parameter group — its moments are two
// slabs in the group's order, as the gradients are (nn.GradSlab).
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Adam is the Kingma–Ba optimizer with bias-corrected first and second
// moments; the paper's configuration uses lr=0.001 with the standard betas.
type Adam struct {
	Rate  float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	t     int
	// m and v hold the moments of every parameter of the group, one after
	// the other in Step's params order; nil until a parameter of it trains.
	// first is that group's first parameter: with the length, what a later
	// Step's group is recognised by.
	m, v  []float32
	first *nn.Param
}

// NewAdam returns Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient, advancing the shared timestep. It consumes the gradients but does
// not clear them; callers zero gradients at the start of each mini-batch. A
// parameter whose Grad is nil has never trained (see nn.Param): Step leaves
// it and its moments untouched. Every Step of one Adam takes the same params
// in the same order.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	lr := a.Rate * math.Sqrt(c2) / c1
	total := 0
	for _, p := range params {
		total += len(p.W.Data)
	}
	off := 0
	for _, p := range params {
		end := off + len(p.W.Data)
		if p.Grad != nil {
			if a.m == nil {
				a.m, a.v, a.first = make([]float32, total), make([]float32, total), params[0]
			}
			if len(a.m) != total || a.first != params[0] {
				panic("opt: Adam.Step on a different parameter group")
			}
			tensor.AdamStep(p.W.Data, p.Grad.Data, a.m[off:end], a.v[off:end],
				float32(a.Beta1), float32(a.Beta2), float32(a.Eps), float32(lr))
		}
		off = end
	}
}
