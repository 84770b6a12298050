package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/tensor"
)

type lossFunc func(pred, target *tensor.Matrix, a *tensor.Arena) (float64, *tensor.Matrix)

// numericGrad estimates dLoss/dparam by central differences for a scalar
// loss function of the whole network output.
func numericGrad(net *Network, x, target *tensor.Matrix, loss lossFunc, p *Param, idx int) float64 {
	const eps = 1e-3
	orig := p.W.Data[idx]
	p.W.Data[idx] = orig + eps
	up, _ := loss(net.Forward(x, false), target, nil)
	p.W.Data[idx] = orig - eps
	down, _ := loss(net.Forward(x, false), target, nil)
	p.W.Data[idx] = orig
	return (up - down) / (2 * eps)
}

func gradCheck(t *testing.T, net *Network, lossFn lossFunc, inDim, outDim int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(5, inDim)
	tensor.FillUniform(x, rng, -1, 1)
	target := tensor.New(5, outDim)
	tensor.FillUniform(target, rng, 0.1, 0.9)

	ZeroGrad(net.Params())
	pred := net.Forward(x, true)
	_, dy := lossFn(pred, target, nil)
	net.Backward(dy)

	for _, p := range net.Params() {
		stride := len(p.W.Data)/5 + 1
		for idx := 0; idx < len(p.W.Data); idx += stride {
			want := numericGrad(net, x, target, lossFn, p, idx)
			got := float64(p.Grad.Data[idx])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, idx, got, want)
			}
		}
	}
}

func TestGradientCheckLinearMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := MLP("lin", []int{4, 3}, ActNone, ActNone, rng)
	gradCheck(t, net, MSE, 4, 3, 1e-2)
}

// TestGradientCheckLeakyReLUBCE: the gradients of a LeakyReLU stack match
// central differences, and a Linear that takes dy back through its
// activation from the sign of its kept output gives the bits the separate
// activation layer gave from the sign of its input. The pre-activations are
// the values where the two signs could part: ±0, the smallest denormals, a
// negative one whose 0.2·v rounds to −0, NaN and ±Inf.
func TestGradientCheckLeakyReLUBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := MLP("disc", []int{5, 8, 1}, ActLeakyReLU, ActNone, rng)
	gradCheck(t, net, BCEWithLogits, 5, 1, 2e-2)

	negZero := float32(math.Copysign(0, -1))
	edges := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		-2 * math.SmallestNonzeroFloat32, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1.5, -1.5}
	if v := float32(0.2) * edges[4]; v != 0 || !math.Signbit(float64(v)) {
		t.Fatalf("0.2·%g = %g, want −0", edges[4], v)
	}
	// The input-sign rule of the deleted activation layer, against the rule
	// on the output that the layer's forward produced, on every edge. A
	// Linear's sums never come out as −0, so that edge is checked here only.
	dy := tensor.New(3, len(edges))
	tensor.FillUniform(dy, rng, -2, 2)
	dy.Data[len(edges)] = math.SmallestNonzeroFloat32 // 0.2·dy underflows too
	y := tensor.New(3, len(edges))
	for i := range y.Data {
		if v := edges[i%len(edges)]; v > 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = float32(0.2) * v
		}
	}
	inputRule := func(pre []float32, dy *tensor.Matrix) *tensor.Matrix {
		g := tensor.New(dy.Rows, dy.Cols)
		for i, v := range dy.Data {
			if pre[i%len(pre)] > 0 {
				g.Data[i] = v
			} else {
				g.Data[i] = float32(0.2) * v
			}
		}
		return g
	}
	if got, want := ActLeakyReLU.Grad(dy, y, nil), inputRule(edges, dy); !sameBits(got.Data, want.Data) {
		t.Fatalf("the output-sign rule gives %v, the input-sign rule %v", got.Data, want.Data)
	}

	// Through a Linear: a one-input layer whose weights are the edges and
	// whose bias is −0 has the edges (−0 read as +0) as its pre-activations.
	// Its parameter and input gradients are those of dy taken back by the
	// input-sign rule, then the layer's three products.
	l := activated(NewLinear(1, len(edges), nil), ActLeakyReLU)
	copy(l.Weight.W.Data, edges)
	l.Bias.W.Fill(negZero)
	x := tensor.New(3, 1)
	x.Fill(1)
	l.Forward(x, true, nil)
	dx := l.Backward(dy, true, nil)
	g := inputRule(edges, dy)
	wantW := tensor.New(1, len(edges))
	tensor.Gemm(wantW, 1, x, tensor.Trans, g, tensor.NoTrans, 1)
	wantB := make([]float32, len(edges))
	tensor.ColSums(wantB, g)
	wantX := tensor.New(3, 1)
	tensor.Gemm(wantX, 1, g, tensor.NoTrans, l.Weight.W, tensor.Trans, 0)
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"dW", l.Weight.Grad.Data, wantW.Data}, {"db", l.Bias.Grad.Data, wantB}, {"dx", dx.Data, wantX.Data}} {
		if !sameBits(c.got, c.want) {
			t.Errorf("%s = %v, the input-sign rule gives %v", c.name, c.got, c.want)
		}
	}
}

// sameBits reports whether a and b hold the same float32 bits, any NaN
// matching any NaN.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
	})
}

func TestGradientCheckSigmoidHead(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := MLP("sig", []int{3, 6, 2}, ActLeakyReLU, ActSigmoid, rng)
	gradCheck(t, net, MSE, 3, 2, 2e-2)
}

func TestMLPDeterministicConstruction(t *testing.T) {
	a := MLP("a", []int{5, 7, 3}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(9)))
	b := MLP("b", []int{5, 7, 3}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(9)))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !pa[i].W.Equal(pb[i].W) {
			t.Fatalf("same seed produced different weights at param %d", i)
		}
	}
	c := MLP("c", []int{5, 7, 3}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(10)))
	if c.Params()[0].W.Equal(pa[0].W) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	src := MLP("src", []int{4, 6, 2}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(11)))
	dst := MLP("dst", []int{4, 6, 2}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(12)))
	dst.CopyWeightsFrom(src)
	ps, pd := src.Params(), dst.Params()
	for i := range ps {
		if !ps[i].W.Equal(pd[i].W) {
			t.Fatalf("param %d not copied", i)
		}
	}
	// The copy must be deep: mutating dst must not touch src.
	pd[0].W.Data[0] += 1
	if ps[0].W.Data[0] == pd[0].W.Data[0] {
		t.Fatal("CopyWeightsFrom aliased storage")
	}
}

func TestCopyWeightsMismatchPanics(t *testing.T) {
	src := MLP("src", []int{4, 2}, ActNone, ActNone, rand.New(rand.NewSource(13)))
	dst := MLP("dst", []int{4, 6, 2}, ActNone, ActNone, rand.New(rand.NewSource(14)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched architectures")
		}
	}()
	dst.CopyWeightsFrom(src)
}

func TestWeightsRoundTrip(t *testing.T) {
	net := MLP("rt", []int{7, 9, 4}, ActLeakyReLU, ActSigmoid, rand.New(rand.NewSource(15)))
	var buf bytes.Buffer
	if err := WriteNetworks(&buf, []*Network{net}); err != nil {
		t.Fatal(err)
	}
	if want := 12 + net.WeightsSize(); buf.Len() != want || NetworksSize([]*Network{net}) != want {
		t.Fatalf("one-network set of %d bytes (NetworksSize %d), want 12 + WeightsSize = %d", buf.Len(), NetworksSize([]*Network{net}), want)
	}
	clone := MLP("clone", []int{7, 9, 4}, ActLeakyReLU, ActSigmoid, rand.New(rand.NewSource(16)))
	if err := ReadNetworks(&buf, []*Network{clone}); err != nil {
		t.Fatal(err)
	}
	po, pc := net.Params(), clone.Params()
	for i := range po {
		if !po[i].W.Equal(pc[i].W) {
			t.Fatalf("param %d differs after round trip", i)
		}
	}
}

func TestUnmarshalWeightsErrors(t *testing.T) {
	net := MLP("err", []int{3, 2}, ActNone, ActNone, rand.New(rand.NewSource(17)))
	buf := MarshalNetworks([]*Network{net})
	other := MLP("other", []int{3, 5}, ActNone, ActNone, rand.New(rand.NewSource(18)))
	for _, tc := range []struct {
		into *Network
		buf  []byte
		what string
	}{
		{net, buf[:3], "truncated magic"},
		{net, append([]byte("XXXX"), buf[4:]...), "wrong magic"},
		{net, buf[:len(buf)-2], "truncated data"},
		{net, append(append([]byte(nil), buf...), 0), "trailing bytes"},
		{other, buf, "shape mismatch"},
	} {
		if err := ReadNetworks(bytes.NewReader(tc.buf), []*Network{tc.into}); err == nil {
			t.Fatalf("want error for %s", tc.what)
		}
	}
}

// Property: WriteNetworks→ReadNetworks of a one-network set is the identity
// for arbitrary architectures.
func TestWeightsRoundTripProperty(t *testing.T) {
	f := func(seed int64, d1, d2 uint8) bool {
		dims := []int{int(d1%7) + 1, int(d2%9) + 1, int(d1%3) + 1}
		a := MLP("a", dims, ActLeakyReLU, ActNone, rand.New(rand.NewSource(seed)))
		b := MLP("b", dims, ActLeakyReLU, ActNone, rand.New(rand.NewSource(seed+1)))
		var buf bytes.Buffer
		if err := WriteNetworks(&buf, []*Network{a}); err != nil {
			return false
		}
		if err := ReadNetworks(&buf, []*Network{b}); err != nil {
			return false
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			if !pa[i].W.Equal(pb[i].W) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLossValuesKnownInputs(t *testing.T) {
	pred := tensor.FromSlice(1, 2, []float32{1, -1})
	target := tensor.FromSlice(1, 2, []float32{0, 1})
	mae, g := MAE(pred, target, nil)
	if math.Abs(mae-1.5) > 1e-6 {
		t.Fatalf("MAE = %v, want 1.5", mae)
	}
	if g.Data[0] != 0.5 || g.Data[1] != -0.5 {
		t.Fatalf("MAE grad = %v", g.Data)
	}
	mse, g2 := MSE(pred, target, nil)
	if math.Abs(mse-2.5) > 1e-6 {
		t.Fatalf("MSE = %v, want 2.5", mse)
	}
	if g2.Data[0] != 1 || g2.Data[1] != -2 {
		t.Fatalf("MSE grad = %v", g2.Data)
	}
	if v := MAEValue(pred, target); math.Abs(v-1.5) > 1e-6 {
		t.Fatalf("MAEValue = %v", v)
	}
}

func TestBCEWithLogitsStability(t *testing.T) {
	// Extreme logits must not overflow to Inf/NaN.
	logits := tensor.FromSlice(1, 2, []float32{100, -100})
	target := tensor.FromSlice(1, 2, []float32{1, 0})
	loss, g := BCEWithLogits(logits, target, nil)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct predictions should have ~0 loss, got %v", loss)
	}
	if slices.ContainsFunc(g.Data, func(v float32) bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) }) {
		t.Fatal("gradient has NaN or Inf")
	}
}

func TestBCEWithLogitsChanceLevel(t *testing.T) {
	logits := tensor.New(4, 1) // all zeros → p = 0.5
	target := tensor.FromSlice(4, 1, []float32{1, 0, 1, 0})
	loss, _ := BCEWithLogits(logits, target, nil)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("chance-level BCE = %v, want ln2", loss)
	}
}

func nonZero(v float32) bool { return v != 0 }

// hasGradient reports whether any gradient of n holds a non-zero value.
func hasGradient(n *Network) bool {
	for _, p := range n.Params() {
		if p.Grad != nil && slices.ContainsFunc(p.Grad.Data, nonZero) {
			return true
		}
	}
	return false
}

// numWeights counts n's trainable scalars.
func numWeights(n *Network) int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	net := MLP("bench", []int{64, 256, 256, 64}, ActLeakyReLU, ActNone, rng)
	x := tensor.New(128, 64)
	tensor.FillUniform(x, rng, -1, 1)
	target := tensor.New(128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ZeroGrad(net.Params())
		pred := net.Forward(x, true)
		_, dy := MSE(pred, target, nil)
		net.Backward(dy)
	}
}

// mustPanic runs f and fails unless it panics with a message containing want.
func mustPanic(t *testing.T, name, want string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q, want one containing %q", name, msg, want)
		}
	}()
	f()
}

// activated sets l's activation.
func activated(l *Linear, act Activation) *Linear {
	l.Act = act
	return l
}

// TestBackwardNeedsItsOwnTrainingForward: every kind of layer, and a Network,
// refuses a Backward that no Forward(x, true) precedes — on a fresh layer,
// after an inference pass, and a second time after one training pass — instead
// of indexing a nil matrix or differentiating a left-over batch.
func TestBackwardNeedsItsOwnTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := tensor.New(3, 4)
	tensor.FillUniform(x, rng, -1, 1)
	dy := tensor.New(3, 4)
	dy.Fill(1)
	layers := []struct {
		name string
		l    Layer
	}{
		{"Linear", NewLinear(4, 4, rng)},
		{"Linear+lrelu", activated(NewLinear(4, 4, rng), ActLeakyReLU)},
		{"Linear+sigmoid", activated(NewLinear(4, 4, rng), ActSigmoid)},
	}
	for _, c := range layers {
		name, l := c.name, c.l
		want := "nn: Linear.Backward before Forward"
		mustPanic(t, name+" fresh", want, func() { l.Backward(dy, true, nil) })
		l.Forward(x, false, nil)
		mustPanic(t, name+" after inference", want, func() { l.Backward(dy, true, nil) })
		l.Forward(x, true, nil)
		first := l.Backward(dy, true, nil)
		mustPanic(t, name+" second Backward", want, func() { l.Backward(dy, true, nil) })
		// An inference pass on another batch between a training pass and
		// its Backward leaves what the training pass kept alone.
		other := tensor.New(7, 4)
		tensor.FillUniform(other, rng, 1, 5)
		l.Forward(x, true, nil)
		l.Forward(other, false, nil)
		if again := l.Backward(dy, true, nil); !again.Equal(first) {
			t.Fatalf("%s: an inference pass changed the gradient of the pending training pass", name)
		}
	}

	net := MLP("tape", []int{4, 5, 4}, ActLeakyReLU, ActSigmoid, rng)
	mustPanic(t, "Network fresh", "Backward before Forward", func() { net.Backward(dy) })
	net.Forward(x, false)
	mustPanic(t, "Network after inference", "Backward before Forward", func() { net.Backward(dy) })
	net.Forward(x, true)
	net.Backward(dy)
	mustPanic(t, "Network second Backward", "Backward before Forward", func() { net.Backward(dy) })
}

// TestConcurrentForwardOnOneNetwork: Forward(x, false) is a pure function
// of the weights, so goroutines sharing one network — each on its own batch —
// get the bits a lone caller gets. Run under -race in CI.
func TestConcurrentForwardOnOneNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	nets := []*Network{
		MLP("a", []int{6, 16, 16, 3}, ActLeakyReLU, ActSigmoid, rng),
		MLP("b", []int{6, 9, 3}, ActLeakyReLU, ActNone, rng),
	}
	const workers = 8
	xs := make([]*tensor.Matrix, workers)
	for i := range xs {
		xs[i] = tensor.New(1+i, 6) // batch sizes on both sides of the GEMM's parallel grain
		tensor.FillUniform(xs[i], rng, -1, 1)
	}
	for _, net := range nets {
		want := make([]*tensor.Matrix, workers)
		for i, x := range xs {
			want[i] = net.Forward(x, false)
		}
		var wg sync.WaitGroup
		bad := make([]bool, workers)
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					if !net.Forward(xs[i], false).Equal(want[i]) {
						bad[i] = true
					}
				}
			}(i)
		}
		wg.Wait()
		for i, b := range bad {
			if b {
				t.Fatalf("%s: worker %d read a result that differs from the serial pass", net.Name, i)
			}
		}
	}
}

// TestGradStorageOnFirstTrainingUse: a network that has only run Forward
// holds no gradient accumulators; ZeroGrad, or a Backward that was not
// preceded by one, allocates them in the weights' shapes, starting from
// zero.
func TestGradStorageOnFirstTrainingUse(t *testing.T) {
	build := func() *Network {
		rng := rand.New(rand.NewSource(31))
		return &Network{Name: "lazy", Layers: []Layer{
			activated(NewLinear(4, 6, rng), ActLeakyReLU), NewLinear(6, 3, rng),
		}}
	}
	x := tensor.New(5, 4)
	tensor.FillUniform(x, rand.New(rand.NewSource(32)), -1, 1)
	target := tensor.New(5, 3)

	net := build()
	net.Forward(x, false)
	net.Forward(x, true)
	for _, p := range net.Params() {
		if p.Grad != nil {
			t.Fatalf("%s: Forward allocated a gradient", p.Name)
		}
	}
	if hasGradient(net) {
		t.Fatal("a network that never trained must hold no gradient")
	}

	// Backward straight after Forward allocates and accumulates ...
	_, dy := MSE(net.Forward(x, true), target, nil)
	net.Backward(dy)
	// ... the same values as Backward into accumulators ZeroGrad made.
	ref := build()
	ZeroGrad(ref.Params())
	for _, p := range ref.Params() {
		if p.Grad == nil || p.Grad.Rows != p.W.Rows || p.Grad.Cols != p.W.Cols || slices.ContainsFunc(p.Grad.Data, nonZero) {
			t.Fatalf("%s: ZeroGrad must leave a zeroed accumulator of the weight's shape", p.Name)
		}
	}
	_, dy = MSE(ref.Forward(x, true), target, nil)
	ref.Backward(dy)
	for i, p := range net.Params() {
		if p.Grad == nil || !p.Grad.Equal(ref.Params()[i].Grad) {
			t.Fatalf("%s: gradient differs between allocate-in-Backward and allocate-in-ZeroGrad", p.Name)
		}
	}

	// Loading weights — a copy from another network, a checkpoint — writes
	// through W and leaves the gradient slab where and as it was.
	slab := GradSlab(ref.Params())
	before := append([]float32(nil), slab...)
	ref.CopyWeightsFrom(net)
	var buf bytes.Buffer
	if err := WriteNetworks(&buf, []*Network{net}); err != nil {
		t.Fatal(err)
	}
	if err := ReadNetworks(&buf, []*Network{ref}); err != nil {
		t.Fatal(err)
	}
	after := GradSlab(ref.Params())
	if &after[0] != &slab[0] || !slices.Equal(after, before) {
		t.Fatal("loading weights moved or changed the gradient slab")
	}
}

// TestGradSlabIsTheGradients: the gradients of a group are consecutive views
// of one slice, in the group's order and the weights' shapes; a network that
// has not trained holds none. Asking again, or for a run of consecutive
// parameters, returns the same memory; parameters that trained apart are
// moved together with their values; one clear zeroes the lot.
func TestGradSlabIsTheGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	enc := MLP("enc", []int{5, 4, 3}, ActLeakyReLU, ActNone, rng)
	dec := MLP("dec", []int{3, 4, 5}, ActLeakyReLU, ActNone, rng)
	group := append(enc.Params(), dec.Params()...)
	if GradSlab(nil) != nil {
		t.Fatal("no parameters, no slab")
	}
	for _, p := range group {
		if p.Grad != nil {
			t.Fatalf("%s: a fresh parameter holds a gradient", p.Name)
		}
	}

	// The decoder trains on its own first, as a layer-by-layer user would.
	x := tensor.New(2, 3)
	x.Fill(0.5)
	_, dy := MSE(dec.Forward(x, true), tensor.New(2, 5), nil)
	dec.Backward(dy)
	want := make([][]float32, len(group))
	for i, p := range group {
		want[i] = make([]float32, len(p.W.Data))
		if p.Grad != nil {
			copy(want[i], p.Grad.Data)
		}
	}
	if !hasGradient(dec) || hasGradient(enc) {
		t.Fatal("only the decoder has a gradient so far")
	}

	slab := GradSlab(group)
	if len(slab) != numWeights(enc)+numWeights(dec) {
		t.Fatalf("slab of %d floats for %d weights", len(slab), numWeights(enc)+numWeights(dec))
	}
	off := 0
	for i, p := range group {
		g := p.Grad
		if g == nil || g.Rows != p.W.Rows || g.Cols != p.W.Cols || &g.Data[0] != &slab[off] || !slices.Equal(g.Data, want[i]) {
			t.Fatalf("%s: gradient is not the slab at %d holding what it held", p.Name, off)
		}
		off += len(g.Data)
	}
	if again := GradSlab(group); &again[0] != &slab[0] {
		t.Fatal("a laid-out group was laid out again")
	}
	if sub := GradSlab(dec.Params()); &sub[0] != &slab[numWeights(enc)] || len(sub) != numWeights(dec) {
		t.Fatal("a network's run of the group's slab is not its own slab")
	}
	if got := testing.AllocsPerRun(10, func() { GradSlab(group) }); got != 0 {
		t.Fatalf("GradSlab on a laid-out group makes %v allocations", got)
	}
	ZeroGrad(dec.Params())
	if hasGradient(dec) || &GradSlab(group)[0] != &slab[0] {
		t.Fatal("ZeroGrad of a network's run of the slab must clear it in place")
	}
	slab[0], slab[len(slab)-1] = 1, 1
	ZeroGrad(group)
	if hasGradient(enc) || hasGradient(dec) {
		t.Fatal("ZeroGrad must clear the whole slab")
	}
}

// TestBackwardInputSkipsParameterGradients: the input gradient of a network
// the loss only flows through is Backward's, bit for bit, and its parameters'
// gradients are left alone — absent if it never trained.
func TestBackwardInputSkipsParameterGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	net := MLP("through", []int{4, 6, 3}, ActLeakyReLU, ActSigmoid, rng)
	x := tensor.New(5, 4)
	tensor.FillUniform(x, rng, -1, 1)
	dy := tensor.New(5, 3)
	tensor.FillUniform(dy, rng, -1, 1)

	net.Forward(x, true)
	dx := net.BackwardInput(dy)
	for _, p := range net.Params() {
		if p.Grad != nil {
			t.Fatalf("%s: BackwardInput laid out a gradient", p.Name)
		}
	}
	mustPanic(t, "second BackwardInput", "Backward before Forward", func() { net.BackwardInput(dy) })
	net.Forward(x, true)
	if want := net.Backward(dy); !dx.Equal(want) {
		t.Fatal("BackwardInput and Backward disagree on dLoss/dInput")
	}
	held := append([]float32(nil), GradSlab(net.Params())...)
	net.Forward(x, true)
	net.BackwardInput(dy)
	if !slices.Equal(GradSlab(net.Params()), held) {
		t.Fatal("BackwardInput changed an accumulated gradient")
	}
}

// TestBackwardParamsSkipsTheInputGradient: a network whose input gradient
// nothing reads accumulates Backward's parameter gradients, bit for bit, uses
// up its forward pass, and does not form the first layer's dy·Wᵀ — it
// allocates one 5×7 matrix less than Backward — whether or not that layer
// has an activation to take dy back through first.
func TestBackwardParamsSkipsTheInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	net := MLP("first", []int{7, 6, 3}, ActLeakyReLU, ActSigmoid, rng)
	linear := MLP("linear-first", []int{7, 6, 3}, ActNone, ActSigmoid, rng)
	x := tensor.New(5, 7)
	tensor.FillUniform(x, rng, -1, 1)
	dy := tensor.New(5, 3)
	tensor.FillUniform(dy, rng, -1, 1)

	for _, n := range []*Network{net, linear} {
		ZeroGrad(n.Params())
		n.Forward(x, true)
		n.Backward(dy)
		n.Forward(x, true)
		n.Backward(dy) // twice, so the test sees accumulation too
		want := append([]float32(nil), GradSlab(n.Params())...)

		ZeroGrad(n.Params())
		n.Forward(x, true)
		n.BackwardParams(dy)
		n.Forward(x, true)
		n.BackwardParams(dy)
		if got := GradSlab(n.Params()); !slices.Equal(got, want) {
			t.Fatalf("%s: BackwardParams and Backward accumulate different gradients", n.Name)
		}
		mustPanic(t, n.Name+": second BackwardParams", "Backward before Forward", func() { n.BackwardParams(dy) })
	}

	allocs := func(f func()) float64 { return testing.AllocsPerRun(5, f) }
	full := allocs(func() { net.Forward(x, true); net.Backward(dy) })
	params := allocs(func() { net.Forward(x, true); net.BackwardParams(dy) })
	if dx := allocs(func() { tensor.New(5, 7) }); params != full-dx {
		t.Fatalf("BackwardParams allocates %v per pass, Backward %v: want the %v of a 5x7 dx fewer", params, full, dx)
	}
}

// failAfter is an io.Writer that accepts n bytes and then fails.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestStreamingCodecMatchesBuffers drives the one codec through its stream
// and byte-slice forms on a network wider than the conversion chunk: the
// same bytes come out of both, sizes are exact, a reader that trickles one
// byte at a time decodes to the same weights, and a failing writer's error
// comes back instead of being swallowed.
func TestStreamingCodecMatchesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	big := MLP("big", []int{150, 150, 3}, ActLeakyReLU, ActNone, rng) // 150×150×4 B > chunkBytes
	small := MLP("small", []int{3, 2}, ActNone, ActNone, rng)
	if big.WeightsSize() <= chunkBytes {
		t.Fatalf("test network of %d bytes does not span chunks of %d", big.WeightsSize(), chunkBytes)
	}

	var stream bytes.Buffer
	one := []*Network{big}
	if err := WriteNetworks(&stream, one); err != nil || stream.Len() != NetworksSize(one) {
		t.Fatalf("WriteNetworks: %v, %d bytes, want %d", err, stream.Len(), NetworksSize(one))
	}
	clone := MLP("clone", []int{150, 150, 3}, ActLeakyReLU, ActNone, rand.New(rand.NewSource(42)))
	if err := ReadNetworks(iotest.OneByteReader(bytes.NewReader(stream.Bytes())), []*Network{clone}); err != nil {
		t.Fatal(err)
	}
	for i, p := range big.Params() {
		if !p.W.Equal(clone.Params()[i].W) {
			t.Fatalf("param %d differs after the streamed round trip", i)
		}
	}

	nets := []*Network{big, small}
	stream.Reset()
	if err := WriteNetworks(&stream, nets); err != nil || stream.Len() != NetworksSize(nets) {
		t.Fatalf("WriteNetworks: %v, %d bytes, want %d", err, stream.Len(), NetworksSize(nets))
	}
	if !bytes.Equal(stream.Bytes(), MarshalNetworks(nets)) {
		t.Fatal("WriteNetworks and MarshalNetworks disagree")
	}
	into := []*Network{clone, MLP("s2", []int{3, 2}, ActNone, ActNone, rng)}
	if err := ReadNetworks(iotest.OneByteReader(bytes.NewReader(stream.Bytes())), into); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalNetworks(into), stream.Bytes()) {
		t.Fatal("network set differs after the streamed round trip")
	}

	for _, room := range []int{0, 6, 20, chunkBytes + 100} {
		if err := WriteNetworks(&failAfter{n: room}, one); err == nil || err.Error() != "disk full" {
			t.Fatalf("WriteNetworks of one network with room for %d bytes: %v", room, err)
		}
		if err := WriteNetworks(&failAfter{n: room}, nets); err == nil || err.Error() != "disk full" {
			t.Fatalf("WriteNetworks with room for %d bytes: %v", room, err)
		}
	}
	// A reader that fails for a reason other than ending is reported as
	// that reason, not as a truncated buffer.
	broken := io.MultiReader(bytes.NewReader(stream.Bytes()[:100]), iotest.ErrReader(errors.New("bad sector")))
	if err := ReadNetworks(broken, into); err == nil || !strings.Contains(err.Error(), "bad sector") {
		t.Fatalf("read error lost: %v", err)
	}
}

// TestUnmarshalNetworksErrors pins the network-set decoder's error for each
// way a buffer can be wrong. The strings are the ones the byte-slice decoder
// of PR 14 returned for the same buffers.
func TestUnmarshalNetworksErrors(t *testing.T) {
	mk := func(out int) []*Network {
		rng := rand.New(rand.NewSource(43))
		return []*Network{
			MLP("a", []int{3, 4, 2}, ActLeakyReLU, ActNone, rng),
			MLP("b", []int{2, out}, ActNone, ActSigmoid, rng),
		}
	}
	good := MarshalNetworks(mk(5))
	edit := func(off int, delta byte) []byte {
		b := bytes.Clone(good)
		b[off] += delta
		return b
	}
	aLen := mk(5)[0].WeightsSize()
	for _, c := range []struct {
		name string
		buf  []byte
		nets []*Network
		want string
	}{
		{"empty", nil, mk(5), "nn: network-set buffer missing magic"},
		{"short header", good[:7], mk(5), "nn: network-set buffer missing magic"},
		{"bad magic", edit(0, 1), mk(5), "nn: network-set buffer missing magic"},
		{"net count", good, mk(5)[:1], "nn: buffer holds 2 networks, want 1"},
		{"cut in a length", good[:10], mk(5), "nn: network-set buffer truncated at net 0"},
		{"cut after a length", good[:12], mk(5), "nn: network-set buffer truncated in net 0"},
		{"cut in a param header", good[:24], mk(5), "nn: network-set buffer truncated in net 0"},
		{"cut in param data", good[:60], mk(5), "nn: network-set buffer truncated in net 0"},
		{"cut between nets", good[:12+aLen], mk(5), "nn: network-set buffer truncated at net 1"},
		{"cut in the last float", good[:len(good)-1], mk(5), "nn: network-set buffer truncated in net 1"},
		{"trailing", append(bytes.Clone(good), 0, 0, 0), mk(5), "nn: network-set buffer has 3 trailing bytes"},
		{"shape", good, mk(6), `nn: net 1 (b): nn: param "linear_2x6.w" shape 2x5 in buffer, want 2x6`},
		{"net magic", edit(12, 1), mk(5), `nn: net 0 (a): nn: weight buffer missing "NNW1" magic`},
		{"param count", edit(16, 1), mk(5), "nn: net 0 (a): nn: weight buffer has 5 params, network has 4"},
		{"blob one byte short", edit(8, 0xff), mk(5), `nn: net 0 (a): nn: weight buffer truncated in param "linear_4x2.b" data`},
		{"blob four bytes long", edit(8, 4), mk(5), "nn: net 0 (a): nn: weight buffer has 4 trailing bytes"},
		// The last blob has nothing after it to find missing: the stream
		// ends before its declared length, which FuzzReadNetworks found
		// accepted.
		{"last blob four bytes long", edit(12+aLen, 4), mk(5), "nn: network-set buffer truncated in net 1"},
	} {
		err := UnmarshalNetworks(c.nets, c.buf)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
	if err := UnmarshalNetworks(mk(5), good); err != nil {
		t.Fatal(err)
	}
}

// TestCodecByteOrderPathsAgree runs the codec both ways this build has: the
// one-copy path of a little-endian host and the per-float conversion of a
// big-endian one, which writes and reads little-endian words on any host.
// Both write the bytes a reference encoder lays out word by word, for
// params longer than a conversion chunk and floats with NaN payloads, signed
// zeros, infinities and subnormals; both read them back bit for bit from a
// reader that returns short reads; and both refuse every cut of the stream
// with the same error.
func TestCodecByteOrderPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	nets := []*Network{
		MLP("big", []int{150, 150, 3}, ActLeakyReLU, ActNone, rng), // 150×150×4 B > chunkBytes
		MLP("small", []int{3, 2}, ActNone, ActNone, rng),
	}
	w := nets[0].Params()[0].W.Data
	for k, bits := range []uint32{0x7fc00001, 0xffa00000, 0x80000000, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff} {
		w[chunkBytes/4-3+k] = math.Float32frombits(bits)
	}
	want := binary.LittleEndian.AppendUint32([]byte(setMagic), uint32(len(nets)))
	for _, n := range nets {
		want = binary.LittleEndian.AppendUint32(want, uint32(n.WeightsSize()))
		want = binary.LittleEndian.AppendUint32(append(want, weightsMagic...), uint32(len(n.Params())))
		for _, p := range n.Params() {
			want = binary.LittleEndian.AppendUint32(want, uint32(p.W.Rows))
			want = binary.LittleEndian.AppendUint32(want, uint32(p.W.Cols))
			for _, v := range p.W.Data {
				want = binary.LittleEndian.AppendUint32(want, math.Float32bits(v))
			}
		}
	}
	cuts := []int{0, 7, 12, 30, 5000, chunkBytes + 3, len(want) - 1}
	run := func() (errs []string) {
		var stream bytes.Buffer
		if err := WriteNetworks(&stream, nets); err != nil || !bytes.Equal(stream.Bytes(), want) {
			t.Fatalf("NativeLE=%v: WriteNetworks (%v) wrote bytes other than the reference encoding", tensor.NativeLE, err)
		}
		into := []*Network{
			MLP("big", []int{150, 150, 3}, ActLeakyReLU, ActNone, nil),
			MLP("small", []int{3, 2}, ActNone, ActNone, nil),
		}
		if err := ReadNetworks(iotest.HalfReader(bytes.NewReader(want)), into); err != nil {
			t.Fatalf("NativeLE=%v: %v", tensor.NativeLE, err)
		}
		for i, n := range nets {
			for j, p := range n.Params() {
				for k, v := range p.W.Data {
					if got := into[i].Params()[j].W.Data[k]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("NativeLE=%v: net %d param %d float %d read as %#08x, want %#08x",
							tensor.NativeLE, i, j, k, math.Float32bits(got), math.Float32bits(v))
					}
				}
			}
		}
		for _, cut := range cuts {
			err := ReadNetworks(bytes.NewReader(want[:cut]), into)
			if err == nil {
				t.Fatalf("NativeLE=%v: a stream cut at %d bytes was accepted", tensor.NativeLE, cut)
			}
			errs = append(errs, err.Error())
		}
		if err := WriteNetworks(&failAfter{n: chunkBytes + 100}, nets); err == nil || err.Error() != "disk full" {
			t.Fatalf("NativeLE=%v: a failing writer's error came back as %v", tensor.NativeLE, err)
		}
		return errs
	}
	native := run()
	tensor.NativeLE = !tensor.NativeLE
	defer func() { tensor.NativeLE = !tensor.NativeLE }()
	flipped := run()
	for i, cut := range cuts {
		if native[i] != flipped[i] {
			t.Errorf("cut at %d: the byte-order paths refuse with %q and %q", cut, native[i], flipped[i])
		}
	}
}

// TestMLPWithoutRNGIsZero: an MLP built with a nil rng has the layout of a
// seeded one, names and shapes alike, with every weight zero.
func TestMLPWithoutRNGIsZero(t *testing.T) {
	dims := []int{5, 7, 3}
	seeded := MLP("m", dims, ActLeakyReLU, ActSigmoid, rand.New(rand.NewSource(9)))
	zero := MLP("m", dims, ActLeakyReLU, ActSigmoid, nil)
	ps, pz := seeded.Params(), zero.Params()
	if len(ps) != len(pz) || len(seeded.Layers) != len(zero.Layers) {
		t.Fatalf("nil-rng MLP has %d params and %d layers, want %d and %d", len(pz), len(zero.Layers), len(ps), len(seeded.Layers))
	}
	for i, p := range pz {
		if p.Name != ps[i].Name || p.W.Rows != ps[i].W.Rows || p.W.Cols != ps[i].W.Cols {
			t.Fatalf("param %d is %s %dx%d, want %s %dx%d", i, p.Name, p.W.Rows, p.W.Cols, ps[i].Name, ps[i].W.Rows, ps[i].W.Cols)
		}
		if slices.ContainsFunc(p.W.Data, nonZero) {
			t.Fatalf("param %s of a nil-rng MLP holds a non-zero weight", p.Name)
		}
	}
}
