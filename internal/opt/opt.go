// Package opt implements the stochastic-gradient optimizers used to train
// the surrogate models. The paper's experiments use Adam with an initial
// learning rate of 0.001 and mini-batches of 128 (Section IV), and Adam is
// the only optimizer a model constructs; SGD with momentum, the learning-rate
// schedule and Reset are reached from this package's tests alone.
//
// Optimizer state (momentum buffers, Adam moments) is keyed per parameter and
// lives with the trainer, not the model: when LTFB replaces a model's weights
// after a lost tournament, the trainer keeps that state.
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
	Rate   float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	t      int
	moment map[*nn.Param]*adamState
}

type adamState struct {
	m, v *tensor.Matrix
}

// NewAdam returns Adam with the standard β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, moment: make(map[*nn.Param]*adamState)}
}

// Step applies one Adam update, advancing the shared timestep.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	lr := a.Rate * math.Sqrt(c2) / c1
	b1 := float32(a.Beta1)
	b2 := float32(a.Beta2)
	eps := float32(a.Eps)
	step := float32(lr)
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		st, ok := a.moment[p]
		if !ok {
			st = &adamState{m: tensor.New(p.W.Rows, p.W.Cols), v: tensor.New(p.W.Rows, p.W.Cols)}
			a.moment[p] = st
		}
		for i, g := range p.Grad.Data {
			m := b1*st.m.Data[i] + (1-b1)*g
			v := b2*st.v.Data[i] + (1-b2)*g*g
			st.m.Data[i] = m
			st.v.Data[i] = v
			p.W.Data[i] -= step * m / (float32(math.Sqrt(float64(v))) + eps)
		}
	}
}

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.Rate }

// SetLR replaces the learning rate.
func (a *Adam) SetLR(lr float64) { a.Rate = lr }

// Reset clears the moment estimates and the timestep.
func (a *Adam) Reset() {
	a.t = 0
	a.moment = make(map[*nn.Param]*adamState)
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
