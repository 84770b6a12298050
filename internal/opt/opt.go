// Package opt implements the stochastic-gradient optimizers used to train
// the surrogate models. The paper's experiments use Adam with an initial
// learning rate of 0.001 and mini-batches of 128 (Section IV), and Adam is
// the only optimizer a model constructs; SGD with momentum, the learning-rate
// schedule and Reset are reached from this package's tests alone.
//
// Optimizer state (momentum buffers, Adam moments) lives with the trainer, not
// the model: when LTFB replaces a model's weights after a lost tournament, the
// trainer keeps that state. An Adam serves one parameter group — its moments
// are two slabs in the group's order, as the gradients are (nn.GradSlab).
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients. Step
// consumes the gradients but does not clear them; callers zero gradients at
// the start of each mini-batch. A parameter whose Grad is nil has never
// trained (see nn.Param): Step leaves it and its state untouched.
type Optimizer interface {
	// Step applies one update to every parameter.
	Step(params []*nn.Param)
	// LR returns the current base learning rate.
	LR() float64
	// SetLR replaces the base learning rate (used by schedules).
	SetLR(lr float64)
	// Reset discards all per-parameter state, as after a model swap.
	Reset()
}

// SGD is stochastic gradient descent with classical momentum:
// v ← μ·v − lr·g; w ← w + v.
type SGD struct {
	Rate     float64
	Momentum float64
	velocity map[*nn.Param]*tensor.Matrix
}

// NewSGD returns an SGD optimizer with the given rate and momentum μ∈[0,1).
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{Rate: lr, Momentum: momentum, velocity: make(map[*nn.Param]*tensor.Matrix)}
}

// Step applies one momentum-SGD update.
func (s *SGD) Step(params []*nn.Param) {
	lr := float32(s.Rate)
	mu := float32(s.Momentum)
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		if mu == 0 {
			tensor.AddScaled(p.W, -lr, p.Grad)
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.W.Rows, p.W.Cols)
			s.velocity[p] = v
		}
		for i := range v.Data {
			v.Data[i] = mu*v.Data[i] - lr*p.Grad.Data[i]
			p.W.Data[i] += v.Data[i]
		}
	}
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.Rate }

// SetLR replaces the learning rate.
func (s *SGD) SetLR(lr float64) { s.Rate = lr }

// Reset clears all momentum buffers.
func (s *SGD) Reset() { s.velocity = make(map[*nn.Param]*tensor.Matrix) }

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

// Step applies one Adam update, advancing the shared timestep. Every Step
// of one Adam takes the same params in the same order.
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

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.Rate }

// SetLR replaces the learning rate.
func (a *Adam) SetLR(lr float64) { a.Rate = lr }

// Reset clears the moment estimates and the timestep.
func (a *Adam) Reset() {
	a.t = 0
	a.m, a.v, a.first = nil, nil, nil
}

// StepDecay returns a schedule that multiplies base by factor every interval
// steps — the classic staircase decay LBANN applies between epochs. Apply it
// with ApplySchedule.
func StepDecay(factor float64, interval int) func(step int, base float64) float64 {
	return func(step int, base float64) float64 {
		if interval <= 0 {
			return base
		}
		return base * math.Pow(factor, float64(step/interval))
	}
}

// ApplySchedule sets o's learning rate to schedule(step, base).
func ApplySchedule(o Optimizer, schedule func(step int, base float64) float64, step int, base float64) {
	o.SetLR(schedule(step, base))
}
