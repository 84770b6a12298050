package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadratic builds a single-parameter "network" whose loss is 0.5·|w-target|²
// so optimizer convergence can be tested directly.
func quadParam(dim int) *nn.Param {
	return &nn.Param{Name: "w", W: tensor.New(1, dim), Grad: tensor.New(1, dim)}
}

func quadGrad(p *nn.Param, target []float32) float64 {
	var norm float64
	for i := range p.W.Data {
		g := p.W.Data[i] - target[i]
		p.Grad.Data[i] = g
		norm += float64(g) * float64(g)
	}
	return math.Sqrt(norm)
}

func testConverges(t *testing.T, o *Adam, steps int, tol float64) {
	t.Helper()
	p := quadParam(4)
	p.W.Data = []float32{5, -3, 2, 9}
	target := []float32{1, 1, -1, 0}
	params := []*nn.Param{p}
	for i := 0; i < steps; i++ {
		quadGrad(p, target)
		o.Step(params)
	}
	if res := quadGrad(p, target); res > tol {
		t.Fatalf("after %d steps residual %g > %g", steps, res, tol)
	}
}

func TestAdamConverges(t *testing.T) { testConverges(t, NewAdam(0.1), 400, 1e-2) }

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction the very first Adam step has magnitude ≈ lr,
	// independent of gradient scale.
	for _, gscale := range []float32{1e-4, 1, 1e4} {
		p := quadParam(1)
		p.Grad.Data[0] = gscale
		a := NewAdam(0.001)
		a.Step([]*nn.Param{p})
		got := math.Abs(float64(p.W.Data[0]))
		if math.Abs(got-0.001) > 1e-4 {
			t.Fatalf("first step with grad %v moved %v, want ~0.001", gscale, got)
		}
	}
}

// Training an actual tiny network must reduce the loss — an end-to-end sanity
// check of the Param wiring.
func TestOptimizersReduceNetworkLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := nn.MLP("opt-adam", []int{3, 16, 1}, nn.ActLeakyReLU, nn.ActNone, rng)
	o := NewAdam(0.01)
	x := tensor.New(32, 3)
	tensor.FillUniform(x, rng, -1, 1)
	target := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		v := x.At(i, 0)*x.At(i, 1) + x.At(i, 2)
		target.Data[i] = v
	}
	first, _ := nn.MSE(net.Forward(x, false), target, nil)
	for i := 0; i < 150; i++ {
		nn.ZeroGrad(net.Params())
		pred := net.Forward(x, true)
		_, dy := nn.MSE(pred, target, nil)
		net.Backward(dy)
		o.Step(net.Params())
	}
	last, _ := nn.MSE(net.Forward(x, false), target, nil)
	if last > first*0.5 {
		t.Fatalf("loss %g -> %g, wanted at least 2x reduction", first, last)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	net := nn.MLP("bench", []int{128, 256, 128}, nn.ActLeakyReLU, nn.ActNone, rng)
	params := net.Params()
	nn.ZeroGrad(params)
	for _, p := range params {
		tensor.FillUniform(p.Grad, rng, -0.01, 0.01)
	}
	a := NewAdam(0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(params)
	}
}

// TestStepSkipsParamsThatNeverTrained: a parameter without gradient
// storage (nn.Param allocates it on first training use) is left alone, and
// costs no optimizer state either.
func TestStepSkipsParamsThatNeverTrained(t *testing.T) {
	trained, idle := quadParam(2), &nn.Param{Name: "idle", W: tensor.New(1, 2)}
	idle.W.Fill(3)
	trained.Grad.Fill(1)
	NewAdam(0.1).Step([]*nn.Param{idle, trained})
	if idle.Grad != nil || idle.W.Data[0] != 3 || idle.W.Data[1] != 3 {
		t.Fatalf("a parameter with no gradient was touched: %+v", idle)
	}
	if trained.W.Data[0] >= 0 {
		t.Fatal("the trained parameter did not move")
	}
	// A group none of whose parameters has trained costs Adam no moments; the
	// first that trains sizes them for the whole group, and the idle ones'
	// stay zero.
	a := NewAdam(0.1)
	group := []*nn.Param{{Name: "idle", W: tensor.New(1, 2)}, {Name: "late", W: tensor.New(1, 3)}}
	a.Step(group)
	if a.m != nil || a.v != nil {
		t.Fatal("adam kept moments for a group that never trained")
	}
	nn.ZeroGrad(group[1:])
	group[1].Grad.Fill(1)
	a.Step(group)
	if len(a.m) != 5 || len(a.v) != 5 || a.m[0] != 0 || a.m[1] != 0 || a.v[0] != 0 || a.v[1] != 0 || a.m[2] == 0 {
		t.Fatalf("moments after the group's first gradient: m=%v v=%v, want 5 each with the idle parameter's zero", a.m, a.v)
	}
	if group[0].Grad != nil || group[0].W.Data[0] != 0 || group[1].W.Data[0] >= 0 {
		t.Fatal("the step must move the trained parameter and only it")
	}
}

// referenceAdam is the per-parameter, map-keyed Adam this package had before
// the moments became slabs; Step must leave the bits it leaves.
type referenceAdam struct {
	rate, beta1, beta2, eps float64
	t                       int
	m, v                    map[*nn.Param][]float32
}

func (a *referenceAdam) step(params []*nn.Param) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	b1, b2, eps := float32(a.beta1), float32(a.beta2), float32(a.eps)
	step := float32(a.rate * math.Sqrt(c2) / c1)
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		if a.m[p] == nil {
			a.m[p], a.v[p] = make([]float32, len(p.W.Data)), make([]float32, len(p.W.Data))
		}
		ms, vs := a.m[p], a.v[p]
		for i, g := range p.Grad.Data {
			m := b1*ms[i] + (1-b1)*g
			v := b2*vs[i] + (1-b2)*g*g
			ms[i] = m
			vs[i] = v
			p.W.Data[i] -= step * m / (float32(math.Sqrt(float64(v))) + eps)
		}
	}
}

// TestAdamSlabMatchesPerParamReference: thirty steps on a network whose
// gradients change every step, one parameter joining late, against the
// map-keyed loop: same weights, bit for bit.
func TestAdamSlabMatchesPerParamReference(t *testing.T) {
	build := func() *nn.Network {
		return nn.MLP("adam", []int{7, 13, 5}, nn.ActLeakyReLU, nn.ActNone, rand.New(rand.NewSource(8)))
	}
	got, want := build(), build()
	a := NewAdam(0.01)
	ref := &referenceAdam{rate: 0.01, beta1: a.Beta1, beta2: a.Beta2, eps: a.Eps, m: map[*nn.Param][]float32{}, v: map[*nn.Param][]float32{}}
	rng := rand.New(rand.NewSource(9))
	gp, wp := got.Params(), want.Params()
	for step := 0; step < 30; step++ {
		if step == 0 {
			nn.ZeroGrad(gp[:3]) // the last bias has not trained yet
			nn.ZeroGrad(wp[:3])
		} else {
			nn.ZeroGrad(gp)
			nn.ZeroGrad(wp)
		}
		for i, p := range gp {
			if p.Grad != nil {
				scale := math.Pow(10, float64(step%5-3))
				tensor.FillUniform(p.Grad, rng, -scale, scale)
				wp[i].Grad.CopyFrom(p.Grad)
			}
		}
		a.Step(gp)
		ref.step(wp)
		for i, p := range gp {
			for j, v := range p.W.Data {
				if math.Float32bits(v) != math.Float32bits(wp[i].W.Data[j]) {
					t.Fatalf("step %d %s[%d]: %v, reference %v", step, p.Name, j, v, wp[i].W.Data[j])
				}
			}
		}
	}
	// An Adam serves one group: a different one is a caller's bug, also
	// when it is as long (its moments would be the first group's).
	twin := build().Params()
	nn.ZeroGrad(twin)
	for name, group := range map[string][]*nn.Param{"shorter": gp[:2], "as long": twin} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step on another, %s parameter group must panic", name)
				}
			}()
			a.Step(group)
		}()
	}
}
