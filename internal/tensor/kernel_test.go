package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// sameBits is the micro-kernel contract's equality (kernel.go): identical
// float32 bits, except that any NaN equals any NaN.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func firstBitDiff(got, want []float32) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// gemmRef is Gemm as it was before the grouped kernels and the tiles: each of
// the three variants one scalar axpy or dot at a time over whole rows,
// serially. It is the bit-level reference for Gemm (a tiling only cuts
// output rows and columns, never k, so each element's serial order is the
// same order).
func gemmRef(c *Matrix, alpha float32, a *Matrix, ta Op, b *Matrix, tb Op, beta float32) {
	m, n := c.Rows, c.Cols
	k := a.Cols
	if ta == Trans {
		k = a.Rows
	}
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		Scale(c, beta)
	}
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		if tb == Trans {
			for j := range ci {
				ci[j] += float32(alpha * dot(a.Data[i*k:(i+1)*k], b.Data[j*k:(j+1)*k]))
			}
			continue
		}
		for p := 0; p < k; p++ {
			aip := a.Data[i*k+p]
			if ta == Trans {
				aip = a.Data[p*m+i]
			}
			if s := alpha * aip; s != 0 {
				axpy(s, b.Data[p*n:(p+1)*n], ci)
			}
		}
	}
}

// Values that exercise everything the contract names: signed zeros (the
// zero skip), infinities and NaN (0·Inf, Inf−Inf), and denormals (no
// flush-to-zero).
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	math.MaxFloat32, 1,
}

// unalignedMatrix returns a rows×cols matrix whose Data starts off elements
// into its backing array, so kernels see pointers that are not 16- or
// 32-byte aligned, filled with Gaussian values.
func unalignedMatrix(rng *rand.Rand, rows, cols, off int) *Matrix {
	backing := make([]float32, off+rows*cols)
	m := &Matrix{Rows: rows, Cols: cols, Data: backing[off : off+rows*cols : off+rows*cols]}
	fillGaussian(m, rng)
	return m
}

// gemmCase is one comparison of Gemm against gemmRef.
type gemmCase struct {
	seed    int64
	m, k, n int
	ta, tb  Op
	alpha   float32
	beta    float32
	off     int // Data offset into the backing arrays, 0..7
	zeroPos int // 0..3: zero op(A)[i][p] where p%4 == zeroPos on every third row i; <0: none
	special int // number of special values scattered into each of A, B and C
	// cut, when its rows is not zero, replaces planTiles' cut of C: tiles of
	// any shape, aligned to nothing, so a shape this small spans many.
	cut tiling
	// dense makes the case Dense(C, A, B, bias, act) against denseRef, with
	// a bias drawn after A, B and C; ta, tb, alpha and beta must then be
	// Dense's own (NoTrans, NoTrans, 1, 0), and specials come from
	// denseSpecials.
	dense bool
	act   Act
	// sched runs the tiles under one scheduler whatever the process's
	// traffic: "waves" or "pulled"; "" leaves the choice to pass.run.
	sched string
}

// schedulers are the values of gemmCase.sched that name a scheduler.
var schedulers = []string{"waves", "pulled"}

func (gc gemmCase) String() string {
	return fmt.Sprintf("seed=%d %dx%dx%d ta=%v tb=%v alpha=%v beta=%v off=%d zeroPos=%d special=%d cut=%+v dense=%v act=%d sched=%q",
		gc.seed, gc.m, gc.k, gc.n, gc.ta, gc.tb, gc.alpha, gc.beta, gc.off, gc.zeroPos, gc.special, gc.cut, gc.dense, gc.act, gc.sched)
}

// run runs p, cut by plan, under the case's scheduler.
func (gc gemmCase) run(p pass, plan func(m, n, cell, workers int) tiling) {
	m, n, cell := p.c.Rows, p.c.Cols, p.k+p.epi
	if gc.sched == "" || m == 0 || n == 0 {
		p.run(plan)
		return
	}
	t := plan(m, n, cell, parallel.Workers())
	if gc.sched == "pulled" {
		t.pulled(stopEvery(t, cell), p.tiles(t))
	} else {
		t.waves(p.tiles(t))
	}
}

// cutOf makes a cut of an m×n output from four arbitrary numbers: chunks of
// 1..m rows, blocks of 1..chunk rows, panels of 1..n columns, waves of 1..4.
func cutOf(m, n, chunk, rows, cols, width int) tiling {
	if m == 0 || n == 0 {
		return tiling{}
	}
	t := tiling{m: m, n: n, chunk: 1 + chunk%m, cols: 1 + cols%n, width: 1 + width%4}
	t.rows = 1 + rows%t.chunk
	return t
}

func (gc gemmCase) check(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(gc.seed))
	ar, ac := gc.m, gc.k
	if gc.ta == Trans {
		ar, ac = gc.k, gc.m
	}
	br, bc := gc.k, gc.n
	if gc.tb == Trans {
		br, bc = gc.n, gc.k
	}
	a := unalignedMatrix(rng, ar, ac, gc.off)
	b := unalignedMatrix(rng, br, bc, (gc.off+3)%8)
	c := unalignedMatrix(rng, gc.m, gc.n, (gc.off+5)%8)
	if gc.zeroPos >= 0 {
		for i := 0; i < gc.m; i += 3 {
			for p := gc.zeroPos; p < gc.k; p += 4 {
				if gc.ta == Trans {
					a.Data[p*gc.m+i] = 0
				} else {
					a.Data[i*gc.k+p] = 0
				}
			}
		}
	}
	spec := specials
	if gc.dense {
		spec = denseSpecials
	}
	for _, mat := range []*Matrix{a, b, c} {
		for s := 0; s < gc.special && len(mat.Data) > 0; s++ {
			mat.Data[rng.Intn(len(mat.Data))] = spec[rng.Intn(len(spec))]
		}
	}
	want := clone(c)
	plan := planTiles
	if gc.cut.rows != 0 {
		plan = func(int, int, int, int) tiling { return gc.cut }
	}
	if gc.dense {
		bias := make([]float32, gc.n)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}
		for s := 0; s < gc.special && len(bias) > 0; s++ {
			bias[rng.Intn(len(bias))] = spec[rng.Intn(len(spec))]
		}
		denseRef(want, a, b, bias, gc.act)
		gc.run(densePass(c, a, b, bias, gc.act), plan)
	} else {
		gemmRef(want, gc.alpha, a, gc.ta, b, gc.tb, gc.beta)
		gc.run(newPass(c, gc.alpha, a, gc.ta, b, gc.tb, gc.beta), plan)
	}
	if i := firstBitDiff(c.Data, want.Data); i >= 0 {
		t.Fatalf("%v: C[%d][%d] = %v (%#08x), scalar reference %v (%#08x)", gc, i/gc.n, i%gc.n,
			c.Data[i], math.Float32bits(c.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
	}
}

var (
	gemmAlphas = []float32{1, 0.5, -1}
	gemmBetas  = []float32{0, 1, 0.25}
	// gemmModes are the op pairs Gemm takes; it panics on Aᵀ·Bᵀ.
	gemmModes = [][2]Op{{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans}}
)

// TestGemmMatchesScalarReferenceBitwise is the property the whole kernel
// layer rests on: Gemm produces the bits of the one-update-at-a-time scalar
// loops, in every transpose mode.
func TestGemmMatchesScalarReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seed := int64(0)
	next := func(gc gemmCase) {
		seed++
		gc.seed = seed
		gc.check(t)
	}
	dim := func() int { return rng.Intn(68) }
	for _, mode := range gemmModes {
		// Every length 0..67 appears as each of m, k and n at least once.
		for l := 0; l <= 67; l++ {
			for which := 0; which < 3; which++ {
				d := [3]int{dim(), dim(), dim()}
				d[which] = l
				next(gemmCase{
					m: d[0], k: d[1], n: d[2], ta: mode[0], tb: mode[1],
					alpha: gemmAlphas[rng.Intn(3)], beta: gemmBetas[rng.Intn(3)],
					off: rng.Intn(8), zeroPos: rng.Intn(5) - 1, special: rng.Intn(2) * rng.Intn(6),
				})
			}
		}
		// Every alpha × beta × zero position, with and without specials.
		for _, alpha := range gemmAlphas {
			for _, beta := range gemmBetas {
				for zeroPos := -1; zeroPos < 4; zeroPos++ {
					for _, special := range []int{0, 7} {
						next(gemmCase{
							m: 9 + dim()/4, k: 16 + dim(), n: 8 + dim(), ta: mode[0], tb: mode[1],
							alpha: alpha, beta: beta, off: rng.Intn(8), zeroPos: zeroPos, special: special,
						})
					}
				}
			}
		}
		// The same shapes cut into many tiles: every block height and panel
		// width 1..12 and a ragged last one of each, waves of 1..4, with a
		// zero multiplier at each position of the four-update groups, which
		// therefore falls on a panel's first and last columns too.
		for size := 1; size <= 12; size++ {
			for zeroPos := -1; zeroPos < 4; zeroPos++ {
				m, n := 9+dim()/4, 8+dim()
				chunk := 1 + rng.Intn(m)
				next(gemmCase{
					m: m, k: 16 + dim(), n: n, ta: mode[0], tb: mode[1],
					alpha: gemmAlphas[rng.Intn(3)], beta: gemmBetas[rng.Intn(3)],
					off: rng.Intn(8), zeroPos: zeroPos, special: rng.Intn(2) * 7,
					cut: tiling{m: m, n: n, chunk: chunk, rows: min(size, chunk), cols: min(size, n), width: 1 + size%4},
				})
			}
		}
		// And arbitrary cuts of arbitrary shapes.
		for i := 0; i < 200; i++ {
			m, n := dim(), dim()
			next(gemmCase{
				m: m, k: dim(), n: n, ta: mode[0], tb: mode[1],
				alpha: gemmAlphas[rng.Intn(3)], beta: gemmBetas[rng.Intn(3)],
				off: rng.Intn(8), zeroPos: rng.Intn(5) - 1, special: rng.Intn(2) * rng.Intn(6),
				cut: cutOf(m, n, rng.Int(), rng.Int(), rng.Int(), rng.Int()),
			})
		}
	}
}

// TestGemmLayerShapesMatchScalarReference runs the backward-pass GEMMs of
// every Linear layer of the Tiny8 and Default64 surrogates (dW = Xᵀ·dY into
// an accumulating gradient, dX = dY·Wᵀ) plus the forward GEMM, at the
// per-rank batch sizes training uses.
func TestGemmLayerShapesMatchScalarReference(t *testing.T) {
	type layer struct{ in, out int }
	tiny8 := []layer{
		{399, 128}, {128, 64}, {64, 20}, // encoder
		{20, 64}, {64, 128}, {128, 399}, // decoder
		{5, 32}, {32, 32}, {32, 20}, // forward
		{20, 32}, {32, 5}, // inverse
		{32, 16}, {16, 1}, // discriminator (20→32 as inverse)
	}
	default64 := []layer{{49167, 128}, {128, 49167}}
	seed := int64(1000)
	run := func(batch int, layers []layer) {
		for _, l := range layers {
			for _, gc := range []gemmCase{
				{m: batch, k: l.in, n: l.out, ta: NoTrans, tb: NoTrans, alpha: 1, beta: 0},
				{m: l.in, k: batch, n: l.out, ta: Trans, tb: NoTrans, alpha: 1, beta: 1},
				{m: batch, k: l.out, n: l.in, ta: NoTrans, tb: Trans, alpha: 1, beta: 0},
			} {
				seed++
				gc.seed, gc.zeroPos = seed, -1
				gc.check(t)
			}
		}
	}
	run(16, tiny8)
	run(7, tiny8)
	if !testing.Short() {
		run(5, default64)
	}
}

// FuzzGemmMatchesReference lets the fuzzer pick the shape, mode, scalars,
// alignment, zero pattern, special-value density and the cut of C into tiles
// (rows 0: planTiles' own cut, which for shapes this small is one wave), and
// runs the case under each scheduler.
func FuzzGemmMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(64), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(16), uint8(67), uint8(33), uint8(2), uint8(1), uint8(0), uint8(3), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(9), uint8(13), uint8(31), uint8(1), uint8(2), uint8(2), uint8(5), uint8(3), uint8(9), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(4), uint8(0), uint8(4), uint8(8), uint8(0), uint8(0), uint8(0), uint8(7), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(5), uint8(5), uint8(3), uint8(7), uint8(3), uint8(1), uint8(1), uint8(2), uint8(4), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0))
	// Many tiles (cutOf of the last four): blocks of a few rows by panels
	// of a few columns in waves of 2–4, one-cell tiles, single-row blocks
	// whose panel edges fall inside an axpy4 group, a panel one short of n.
	f.Add(int64(6), uint8(16), uint8(16), uint8(64), uint8(1), uint8(0), uint8(1), uint8(0), uint8(2), uint8(0), uint8(8), uint8(4), uint8(16), uint8(2))
	f.Add(int64(7), uint8(16), uint8(67), uint8(33), uint8(2), uint8(1), uint8(0), uint8(3), uint8(0), uint8(4), uint8(5), uint8(3), uint8(5), uint8(3))
	f.Add(int64(8), uint8(9), uint8(13), uint8(31), uint8(0), uint8(2), uint8(2), uint8(5), uint8(3), uint8(9), uint8(9), uint8(1), uint8(1), uint8(4))
	f.Add(int64(9), uint8(33), uint8(21), uint8(50), uint8(1), uint8(0), uint8(1), uint8(1), uint8(4), uint8(3), uint8(17), uint8(1), uint8(18), uint8(2))
	f.Add(int64(10), uint8(20), uint8(40), uint8(67), uint8(3), uint8(1), uint8(2), uint8(6), uint8(1), uint8(15), uint8(7), uint8(7), uint8(66), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, mode, alpha, beta, off, zero, special, chunk, rows, cols, width uint8) {
		md := gemmModes[int(mode)%len(gemmModes)]
		gc := gemmCase{
			seed: seed, m: int(m % 68), k: int(k % 68), n: int(n % 68), ta: md[0], tb: md[1],
			alpha: gemmAlphas[alpha%3], beta: gemmBetas[beta%3],
			off: int(off % 8), zeroPos: int(zero%5) - 1, special: int(special % 16),
		}
		if rows != 0 {
			gc.cut = cutOf(gc.m, gc.n, int(chunk), int(rows)-1, int(cols), int(width))
		}
		for _, gc.sched = range schedulers {
			gc.check(t)
		}
	})
}

// denseSpecials are specials plus pre-activations beyond ±708, where the
// AVX2 sigmoid leaves a group of four to the scalar loop, and values whose
// product with 0.2 underflows to a signed zero.
var denseSpecials = append(append([]float32(nil), specials...), 800, -800, 709, -710, -1e-45, 3e-45)

// denseRef is Dense as the three passes it replaced: the product (gemmRef,
// MatMul's bit reference), then the scalar bias loop over every row, then
// the scalar activation loop over every element.
func denseRef(y, x, w *Matrix, bias []float32, act Act) {
	gemmRef(y, 1, x, NoTrans, w, NoTrans, 0)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
	for i, v := range y.Data {
		switch act {
		case ActLeakyReLU:
			if !(v > 0) {
				y.Data[i] = float32(0.2) * v
			}
		case ActSigmoid:
			y.Data[i] = sigmoidRef(v)
		}
	}
}

// denseActs are the activations a dense pass takes.
var denseActs = []Act{ActNone, ActLeakyReLU, ActSigmoid}

// TestDenseMatchesReference: the one-pass dense layer gives, bit for bit,
// the product, the bias loop and the activation loop run one after the
// other, for every activation: every length 0..67 as each of m, k and n
// under planTiles' cut, then arbitrary cuts of arbitrary shapes, with zero
// multipliers and special values in x, W, the bias and the garbage y holds
// before the pass. The cuts planTiles makes of the serving shapes are in
// TestTiledElementwiseOpsMatchPlainLoops.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seed := int64(5000)
	dim := func() int { return rng.Intn(68) }
	for _, act := range denseActs {
		next := func(m, k, n int, cut tiling) {
			seed++
			gemmCase{
				seed: seed, m: m, k: k, n: n, alpha: 1, off: rng.Intn(8),
				zeroPos: rng.Intn(5) - 1, special: rng.Intn(2) * rng.Intn(9), cut: cut,
				dense: true, act: act,
			}.check(t)
		}
		for l := 0; l <= 67; l++ {
			for which := 0; which < 3; which++ {
				d := [3]int{dim(), dim(), dim()}
				d[which] = l
				next(d[0], d[1], d[2], tiling{})
			}
		}
		for i := 0; i < 200; i++ {
			m, n := dim(), dim()
			next(m, dim(), n, cutOf(m, n, rng.Int(), rng.Int(), rng.Int(), rng.Int()))
		}
	}
	for _, bad := range []func(){
		func() { Dense(New(2, 3), New(2, 4), New(4, 3), make([]float32, 2), ActNone) },
		func() { Dense(New(2, 3), New(2, 4), New(4, 3), make([]float32, 3), Act(7)) },
		func() { y := New(2, 3); Dense(y, New(2, 4), New(4, 3), y.Data[:3], ActNone) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Dense took a short bias, an unknown activation or a bias inside y")
				}
			}()
			bad()
		}()
	}
}

// FuzzDenseMatchesReference is FuzzGemmMatchesReference for the dense pass:
// the fuzzer picks the shape, activation, alignment, zero pattern,
// special-value density and the cut (rows 0: planTiles' own).
func FuzzDenseMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(16), uint8(64), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(16), uint8(67), uint8(33), uint8(1), uint8(3), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(9), uint8(0), uint8(31), uint8(2), uint8(5), uint8(3), uint8(9), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(4), uint8(16), uint8(16), uint8(64), uint8(2), uint8(0), uint8(2), uint8(12), uint8(8), uint8(4), uint8(16), uint8(2))
	f.Add(int64(5), uint8(33), uint8(21), uint8(50), uint8(1), uint8(1), uint8(4), uint8(15), uint8(17), uint8(1), uint8(18), uint8(2))
	f.Add(int64(6), uint8(20), uint8(40), uint8(67), uint8(0), uint8(6), uint8(1), uint8(7), uint8(7), uint8(7), uint8(66), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, act, off, zero, special, chunk, rows, cols, width uint8) {
		gc := gemmCase{
			seed: seed, m: int(m % 68), k: int(k % 68), n: int(n % 68), alpha: 1,
			off: int(off % 8), zeroPos: int(zero%5) - 1, special: int(special % 16),
			dense: true, act: denseActs[int(act)%len(denseActs)],
		}
		if rows != 0 {
			gc.cut = cutOf(gc.m, gc.n, int(chunk), int(rows)-1, int(cols), int(width))
		}
		gc.check(t)
	})
}

// TestMicroKernelsMatchScalar compares the grouped kernels the build
// selected (SIMD on amd64) against four calls of the scalar kernel, over
// every length 0..67, strides equal to and larger than the row length,
// unaligned starts, and special values.
func TestMicroKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fill := func(v []float32, special bool) {
		for i := range v {
			v[i] = float32(rng.NormFloat64())
			if special && rng.Intn(6) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for _, pad := range []int{0, 1, 5} {
			for off := 0; off < 4; off++ {
				for _, special := range []bool{false, true} {
					stride := n + pad
					rows := make([]float32, off+3*stride+n)[off:]
					vec := make([]float32, off+1+n)[off+1:]
					fill(rows, special)
					fill(vec, special)
					var s [4]float32
					fill(s[:], special)
					name := fmt.Sprintf("n=%d stride=%d off=%d special=%v", n, stride, off, special)

					got, want := append([]float32(nil), vec...), append([]float32(nil), vec...)
					axpy4(&s, rows, stride, got)
					axpy4Scalar(&s, rows, stride, want)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("axpy4 %s: y[%d] = %v (%#08x), scalar %v (%#08x)", name, i,
							got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}

					var dGot, dWant [4]float32
					dot4(&dGot, vec, rows, stride)
					dot4Scalar(&dWant, vec, rows, stride)
					if i := firstBitDiff(dGot[:], dWant[:]); i >= 0 {
						t.Fatalf("dot4 %s: out[%d] = %v (%#08x), scalar %v (%#08x)", name, i,
							dGot[i], math.Float32bits(dGot[i]), dWant[i], math.Float32bits(dWant[i]))
					}
				}
			}
		}
	}
}

// TestAdamStepMatchesScalar compares the AdamStep the build selected (AVX2
// on amd64) with the scalar loop over every length 0..67, unaligned starts,
// several steps in a row so the moments carry, gradients from denormal to
// huge, and special values in every operand; the elements beyond the length
// stay untouched.
func TestAdamStepMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const b1, b2, eps = float32(0.9), float32(0.999), float32(1e-8)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for _, special := range []bool{false, true} {
				mk := func(nonneg bool) (got, want []float32) {
					got = make([]float32, off+n+3)
					for i := range got {
						got[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
						if special && rng.Intn(6) == 0 {
							got[i] = specials[rng.Intn(len(specials))]
						}
						if nonneg && got[i] < 0 {
							got[i] = -got[i]
						}
					}
					return got, append([]float32(nil), got...)
				}
				w, wRef := mk(false)
				m, mRef := mk(false)
				v, vRef := mk(true)
				for step := 1; step <= 3; step++ {
					g, _ := mk(false)
					lr := float32(0.001 * math.Sqrt(1-math.Pow(float64(b2), float64(step))) / (1 - math.Pow(float64(b1), float64(step))))
					AdamStep(w[off:off+n], g[off:off+n], m[off:off+n], v[off:off+n], b1, b2, eps, lr)
					adamScalar(wRef[off:off+n], g[off:off+n], mRef[off:off+n], vRef[off:off+n], b1, 1-b1, b2, 1-b2, lr, eps)
					for name, pair := range map[string][2][]float32{"w": {w, wRef}, "m": {m, mRef}, "v": {v, vRef}} {
						if i := firstBitDiff(pair[0], pair[1]); i >= 0 {
							t.Fatalf("n=%d off=%d special=%v step %d: %s[%d] = %v (%#08x), scalar %v (%#08x)", n, off, special, step, name, i-off,
								pair[0][i], math.Float32bits(pair[0][i]), pair[1][i], math.Float32bits(pair[1][i]))
						}
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdamStep must refuse operands of different lengths")
		}
	}()
	AdamStep(make([]float32, 8), make([]float32, 8), make([]float32, 7), make([]float32, 8), b1, b2, eps, 0.001)
}

// TestMicroKernelBounds checks the Go wrappers in front of the assembly:
// they refuse rows that do not fit, and the kernels touch nothing outside
// the lengths they were given.
func TestMicroKernelBounds(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var s, out [4]float32
	mustPanic("axpy4 short x", func() { axpy4(&s, make([]float32, 4*16-1), 16, make([]float32, 16)) })
	mustPanic("axpy4 negative stride", func() { axpy4(&s, make([]float32, 64), -1, make([]float32, 16)) })
	mustPanic("axpy4 overflowing stride", func() { axpy4(&s, make([]float32, 64), math.MaxInt/3+1, make([]float32, 16)) })
	mustPanic("dot4 overflowing stride", func() { dot4(&out, make([]float32, 16), make([]float32, 64), math.MaxInt/3+1) })
	mustPanic("axpy4 empty x", func() { axpy4(&s, nil, 0, make([]float32, 8)) })
	mustPanic("dot4 short y", func() { dot4(&out, make([]float32, 16), make([]float32, 4*16-1), 16) })
	mustPanic("dot4 negative stride", func() { dot4(&out, make([]float32, 16), make([]float32, 64), -1) })
	mustPanic("axpy4Scalar short x", func() { axpy4Scalar(&s, make([]float32, 4*16-1), 16, make([]float32, 16)) })
	mustPanic("dot4Scalar short y", func() { dot4Scalar(&out, make([]float32, 16), make([]float32, 4*16-1), 16) })

	// Zero-length rows are legal and leave everything alone.
	axpy4(&s, nil, 0, nil)
	out = [4]float32{1, 2, 3, 4}
	dot4(&out, nil, nil, 0)
	if out != [4]float32{} {
		t.Errorf("dot4 of empty rows = %v, want zeros", out)
	}

	// Guard elements around the destination and after the sources survive.
	const guard = float32(-12345)
	for n := 1; n <= 67; n++ {
		s = [4]float32{1, 2, 3, 4}
		ybuf := make([]float32, n+2)
		ybuf[0], ybuf[n+1] = guard, guard
		x := make([]float32, 4*n)
		for i := range x {
			x[i] = 1
		}
		axpy4(&s, x, n, ybuf[1:n+1:n+1])
		if ybuf[0] != guard || ybuf[n+1] != guard {
			t.Fatalf("axpy4 n=%d wrote outside y: %v %v", n, ybuf[0], ybuf[n+1])
		}
		for i, v := range ybuf[1 : n+1] {
			if v != 10 {
				t.Fatalf("axpy4 n=%d: y[%d] = %v, want 10", n, i, v)
			}
		}
		// dot4 reads exactly n elements per row: a NaN just past each row
		// must not reach the result.
		ycat := make([]float32, 4*(n+1))
		for i := range ycat {
			ycat[i] = 1
			if i%(n+1) == n {
				ycat[i] = float32(math.NaN())
			}
		}
		dot4(&out, x[:n], ycat[:4*(n+1)-1], n+1)
		for j, v := range out {
			if v != float32(n) {
				t.Fatalf("dot4 n=%d: out[%d] = %v, want %d", n, j, v, n)
			}
		}
	}
}

// sigmoidRef is the Sigmoid rule's reference (kernel.go): the float64
// expression through math.Exp as this binary computes it, rounded once.
func sigmoidRef(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

// checkSigmoid runs sigmoid from src into a fresh slice and holds every
// element to sigmoidRef.
func checkSigmoid(t *testing.T, what string, src []float32) {
	t.Helper()
	dst := make([]float32, len(src))
	sigmoid(dst, src)
	for i, v := range src {
		if want := sigmoidRef(v); !sameBits(dst[i], want) {
			t.Fatalf("%s: element %d: sigmoid(%g = %#08x) = %#08x, want %#08x", what, i, v,
				math.Float32bits(v), math.Float32bits(dst[i]), math.Float32bits(want))
		}
	}
}

// TestSigmoidMatchesMathExp holds the sigmoid the build selected (the AVX2
// kernel where math.Exp takes its FMA path) to the scalar expression, bit
// for bit: across the whole float32 space, at the edges of the kernel's and
// math's ranges, with an out-of-range lane in each position of a group, at
// every length and offset the tail handling sees, and in place. On amd64,
// TestSigmoidExpLanesMatchMathExp checks the kernel's float64 exponential on
// its own, where a change the float32 rounding hides still shows.
func TestSigmoidMatchesMathExp(t *testing.T) {
	// About 2^20 bit patterns strided across all 2^32, NaNs and infinities
	// included, so groups that leave the kernel sit among ones that do not.
	const stride = 4093
	sweep := make([]float32, 0, 1<<32/stride+1)
	for b := uint64(0); b < 1<<32; b += stride {
		sweep = append(sweep, math.Float32frombits(uint32(b)))
	}
	checkSigmoid(t, "strided sweep", sweep)

	// Signed zeros, infinities, quiet and signalling NaNs of both signs,
	// denormals, the extremes; then the float32 neighbours of 708 (the
	// kernel's range), 709.78 (where math.Exp overflows), 103.97 (where the
	// sigmoid leaves the float32 denormals) and 88.7 (where it leaves the
	// normals), on both sides of zero.
	edges := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32}
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff, 0x7fffffff,
		0x00000001, 0x80000003, 0x007fffff, 0x807fffff, 0x00800000, 0x80800000} {
		edges = append(edges, math.Float32frombits(bits))
	}
	for _, c := range []float64{708, 709.78, 103.97, 88.7} {
		for _, v := range []float32{float32(c), float32(-c)} {
			edges = append(edges, v)
			lo, hi := v, v
			for range 3 {
				lo = math.Nextafter32(lo, float32(math.Inf(-1)))
				hi = math.Nextafter32(hi, float32(math.Inf(1)))
				edges = append(edges, lo, hi)
			}
		}
	}
	checkSigmoid(t, "edges", edges)

	// One lane out of the kernel's range in each position of the middle
	// group: that group goes to the scalar loop, its neighbours do not.
	for pos := 0; pos < 4; pos++ {
		for _, out := range []float32{float32(math.NaN()), float32(math.Inf(1)), math.Nextafter32(708, 709), -1e30} {
			src := make([]float32, 12)
			for i := range src {
				src[i] = float32(i)/2 - 3
			}
			src[4+pos] = out
			checkSigmoid(t, fmt.Sprintf("lane %d = %g", pos, out), src)
		}
	}

	// Every length 0..67 at offsets 0..3; the elements around the slice
	// keep their guard value.
	rng := rand.New(rand.NewSource(28))
	buf := make([]float32, 72)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64() * 8)
	}
	buf[37] = float32(math.NaN())
	const guard = float32(-12345)
	for off := 0; off < 4; off++ {
		for n := 0; n <= 67; n++ {
			dst := make([]float32, len(buf))
			for i := range dst {
				dst[i] = guard
			}
			sigmoid(dst[off:off+n], buf[off:off+n])
			for i, got := range dst {
				want := guard
				if i >= off && i < off+n {
					want = sigmoidRef(buf[i])
				}
				if !sameBits(got, want) {
					t.Fatalf("off=%d n=%d: dst[%d] = %#08x, want %#08x", off, n, i, math.Float32bits(got), math.Float32bits(want))
				}
			}
		}
	}

	// dst aliasing src.
	inPlace := append([]float32(nil), sweep...)
	sigmoid(inPlace, inPlace)
	for i, v := range sweep {
		if want := sigmoidRef(v); !sameBits(inPlace[i], want) {
			t.Fatalf("in place: element %d: sigmoid(%#08x) = %#08x, want %#08x", i, math.Float32bits(v), math.Float32bits(inPlace[i]), math.Float32bits(want))
		}
	}
}
