package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference implementation Gemm is tested against.
func naiveGemm(c *Matrix, alpha float32, a *Matrix, ta Op, b *Matrix, tb Op, beta float32) {
	get := func(m *Matrix, t Op, i, j int) float32 {
		if t == Trans {
			return m.At(j, i)
		}
		return m.At(i, j)
	}
	mRows, k := a.Rows, a.Cols
	if ta == Trans {
		mRows, k = a.Cols, a.Rows
	}
	n := b.Cols
	if tb == Trans {
		n = b.Rows
	}
	for i := 0; i < mRows; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				sum += float64(get(a, ta, i, p)) * float64(get(b, tb, p, j))
			}
			c.Data[i*n+j] = beta*c.At(i, j) + alpha*float32(sum)
		}
	}
}

// fillGaussian fills m with standard-normal samples from rng.
func fillGaussian(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	fillGaussian(m, rng)
	return m
}

// clone returns a copy of m that shares no memory with it.
func clone(m *Matrix) *Matrix { return FromSlice(m.Rows, m.Cols, slices.Clone(m.Data)) }

func TestGemmAllVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 5}, {8, 8, 8}, {17, 31, 13}, {64, 20, 48}, {5, 1, 9},
	}
	for _, mode := range gemmModes {
		ta, tb := mode[0], mode[1]
		for _, sh := range shapes {
			a := randomMatrix(rng, sh.m, sh.k)
			if ta == Trans {
				a = randomMatrix(rng, sh.k, sh.m)
			}
			b := randomMatrix(rng, sh.k, sh.n)
			if tb == Trans {
				b = randomMatrix(rng, sh.n, sh.k)
			}
			c := randomMatrix(rng, sh.m, sh.n)
			want := clone(c)
			alpha, beta := float32(0.7), float32(-0.3)
			Gemm(c, alpha, a, ta, b, tb, beta)
			naiveGemm(want, alpha, a, ta, b, tb, beta)
			if !c.ApproxEqual(want, 1e-3) {
				t.Fatalf("Gemm(ta=%v tb=%v %dx%dx%d) diverges from naive", ta, tb, sh.m, sh.k, sh.n)
			}
		}
	}
}

func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 3)
	c := New(4, 3)
	for i := range c.Data {
		c.Data[i] = float32(math.NaN())
	}
	Gemm(c, 1, a, NoTrans, b, NoTrans, 0)
	want := New(4, 3)
	Gemm(want, 1, a, NoTrans, b, NoTrans, 0)
	if !c.Equal(want) {
		t.Fatal("beta=0 must overwrite prior contents, including NaN")
	}
}

func TestGemmAlphaZeroScalesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 3)
	c := randomMatrix(rng, 4, 3)
	want := clone(c)
	Scale(want, 0.5)
	Gemm(c, 0, a, NoTrans, b, NoTrans, 0.5)
	if !c.ApproxEqual(want, 1e-6) {
		t.Fatal("alpha=0 should reduce Gemm to C *= beta")
	}
}

func TestGemmShapePanics(t *testing.T) {
	cases := []func(){
		func() { Gemm(New(2, 2), 1, New(2, 3), NoTrans, New(4, 2), NoTrans, 0) }, // inner mismatch
		func() { Gemm(New(3, 2), 1, New(2, 3), NoTrans, New(3, 2), NoTrans, 0) }, // bad output
		func() { Gemm(New(2, 2), 1, New(2, 2), Trans, New(2, 2), Trans, 0) },     // Aᵀ·Bᵀ
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestGemmRejectsOutputSharingAnInput: for every op pair Gemm takes, C over the
// memory of A or of B panics — the same *Matrix, a second Matrix over the same
// slice, and row views that overlap by one element — while views that only
// touch, and A and B being one matrix, stay legal.
func TestGemmRejectsOutputSharingAnInput(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	rng := rand.New(rand.NewSource(77))
	for _, mode := range gemmModes {
		ta, tb := mode[0], mode[1]
		for _, beta := range []float32{0, 1} {
			sq := randomMatrix(rng, 4, 4)
			other := randomMatrix(rng, 4, 4)
			twin := &Matrix{Rows: 4, Cols: 4, Data: sq.Data}
			if !panics(func() { Gemm(sq, 1, sq, ta, other, tb, beta) }) {
				t.Errorf("ta=%v tb=%v beta=%v: C == A accepted", ta, tb, beta)
			}
			if !panics(func() { Gemm(sq, 1, other, ta, sq, tb, beta) }) {
				t.Errorf("ta=%v tb=%v beta=%v: C == B accepted", ta, tb, beta)
			}
			if !panics(func() { Gemm(twin, 1, sq, ta, other, tb, beta) }) {
				t.Errorf("ta=%v tb=%v beta=%v: a second Matrix over A's slice accepted as C", ta, tb, beta)
			}
			// Rows 0–3 and 3–6 of one 8×4 array share row 3; rows 0–3
			// and 4–7 share nothing.
			big := randomMatrix(rng, 8, 4)
			if !panics(func() { Gemm(big.SliceRows(0, 4), 1, other, ta, big.SliceRows(3, 7), tb, beta) }) {
				t.Errorf("ta=%v tb=%v beta=%v: overlapping row views accepted", ta, tb, beta)
			}
			got, want := big.SliceRows(0, 4), New(4, 4)
			want.CopyFrom(got)
			in := clone(big.SliceRows(4, 8))
			naiveGemm(want, 1, in, ta, other, tb, beta)
			Gemm(got, 1, big.SliceRows(4, 8), ta, other, tb, beta)
			if !got.ApproxEqual(want, 1e-5) {
				t.Errorf("ta=%v tb=%v beta=%v: adjacent row views gave a wrong product", ta, tb, beta)
			}
			// Shared inputs are plain reads.
			c, ref := New(4, 4), New(4, 4)
			Gemm(c, 1, sq, ta, sq, tb, 0)
			naiveGemm(ref, 1, sq, ta, sq, tb, 0)
			if !c.ApproxEqual(ref, 1e-5) {
				t.Errorf("ta=%v tb=%v: Gemm(c, a, a) gave a wrong product", ta, tb)
			}
		}
	}
	a := randomMatrix(rng, 3, 3)
	if !panics(func() { MatMul(a, a, a) }) {
		t.Error("MatMul(a, a, a) accepted")
	}
	c := New(3, 3)
	MatMul(c, a, a) // squares a matrix
	// Empty operands share no element, whatever their addresses.
	Gemm(New(0, 3), 1, New(0, 2), NoTrans, New(2, 3), NoTrans, 0)
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Data[i*7+i] = 1
	}
	c := New(7, 7)
	MatMul(c, a, id)
	if !c.ApproxEqual(a, 1e-6) {
		t.Fatal("A*I != A")
	}
}

// Property: Gemm distributes over addition in A: (A1+A2)*B == A1*B + A2*B.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		m, k, n := int(seed%5)+1, int(seed%7)+1, int(seed%3)+1
		a1 := randomMatrix(rng, m, k)
		a2 := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		sum := New(m, k)
		Add(sum, a1, a2)
		left := New(m, n)
		MatMul(left, sum, b)
		right := New(m, n)
		tmp := New(m, n)
		MatMul(right, a1, b)
		MatMul(tmp, a2, b)
		Add(right, right, tmp)
		return left.ApproxEqual(right, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	dst := New(2, 2)
	Add(dst, a, b)
	if !dst.Equal(FromSlice(2, 2, []float32{11, 22, 33, 44})) {
		t.Fatalf("Add = %v", dst)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, -2, 3, -4, 5, -6})
	cs := []float32{9, 9, 9} // overwritten, not added to
	ColSums(cs, m)
	want := []float32{-3, 3, -3}
	for i := range cs {
		if cs[i] != want[i] {
			t.Fatalf("ColSums = %v, want %v", cs, want)
		}
	}
}

// TestAddRowVectorAndColSumsRoundTrip: a dense pass over a zero input is its
// bias in every row, whatever the output held, and the column sums give it
// back once per row.
func TestAddRowVectorAndColSumsRoundTrip(t *testing.T) {
	m := New(3, 4)
	m.Fill(float32(math.NaN()))
	Dense(m, New(3, 2), New(2, 4), []float32{1, 2, 3, 4}, ActNone)
	cs := make([]float32, 4)
	ColSums(cs, m)
	for j, v := range cs {
		if v != float32(3*(j+1)) {
			t.Fatalf("col %d sum = %v, want %v", j, v, 3*(j+1))
		}
	}
}

func TestSliceRowsAliases(t *testing.T) {
	m := FromSlice(4, 2, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	s := m.SliceRows(1, 3)
	if s.Rows != 2 || s.At(0, 0) != 3 || s.At(1, 1) != 6 {
		t.Fatalf("SliceRows gave %v", s)
	}
	s.Data[0] = 99
	if m.At(1, 0) != 99 {
		t.Fatal("SliceRows must alias parent storage")
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := New(50, 50)
	FillUniform(m, rng, -2, 5)
	for _, v := range m.Data {
		if v < -2 || v >= 5 {
			t.Fatalf("uniform sample %v outside [-2,5)", v)
		}
	}
}

func BenchmarkGemmNN128(b *testing.B) { benchGemm(b, 128, 128, 128, NoTrans, NoTrans) }
func BenchmarkGemmTN128(b *testing.B) { benchGemm(b, 128, 128, 128, Trans, NoTrans) }
func BenchmarkGemmNT128(b *testing.B) { benchGemm(b, 128, 128, 128, NoTrans, Trans) }

// The forward GEMMs serving runs: the paper64 decoder at sweep_paper's 16-row
// frames and at a batch of one, and the small16 decoder at fleet_mixed's
// 64-row frames.
func BenchmarkGemmNN16x128x49167(b *testing.B) { benchGemm(b, 16, 128, 49167, NoTrans, NoTrans) }
func BenchmarkGemmNN64x128x3087(b *testing.B)  { benchGemm(b, 64, 128, 3087, NoTrans, NoTrans) }
func BenchmarkGemmNN1x128x49167(b *testing.B)  { benchGemm(b, 1, 128, 49167, NoTrans, NoTrans) }

func benchGemm(b *testing.B, m, k, n int, ta, tb Op) {
	rng := rand.New(rand.NewSource(9))
	ar, ac := m, k
	if ta == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb == Trans {
		br, bc = n, k
	}
	a := randomMatrix(rng, ar, ac)
	bm := randomMatrix(rng, br, bc)
	c := New(m, n)
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c, 1, a, ta, bm, tb, 0)
	}
}

// BenchmarkSigmoid16x49167 is the sigmoid micro-kernel over the paper64
// decoder's output on sweep_paper's 16-row frame, 786 432 floats, on one
// goroutine. It writes a second slice, so every pass sees the same
// standard-normal pre-activations.
func BenchmarkSigmoid16x49167(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randomMatrix(rng, 16, 49167)
	y := New(16, 49167)
	b.SetBytes(int64(8 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigmoid(y.Data, x.Data)
	}
}

// The decoder heads serving runs, product, bias and sigmoid in one pass: the
// paper64 model's at sweep_paper's 16-row frames and the small16 model's at
// fleet_mixed's 64-row frames. Beside GemmNN of the same shape they read what
// the epilogue costs.
func BenchmarkDense16x128x49167(b *testing.B) { benchDense(b, 16, 128, 49167) }
func BenchmarkDense64x128x3087(b *testing.B)  { benchDense(b, 64, 128, 3087) }

func benchDense(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(12))
	x := randomMatrix(rng, m, k)
	w := randomMatrix(rng, k, n)
	bias := randomMatrix(rng, 1, n).Data
	y := New(m, n)
	b.SetBytes(int64(4 * (m*k + k*n + n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dense(y, x, w, bias, ActSigmoid)
	}
}

// BenchmarkGemmNaive128 is the ablation baseline: the textbook triple loop.
func BenchmarkGemmNaive128(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	a := randomMatrix(rng, 128, 128)
	bm := randomMatrix(rng, 128, 128)
	c := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveGemm(c, 1, a, NoTrans, bm, NoTrans, 0)
	}
}
