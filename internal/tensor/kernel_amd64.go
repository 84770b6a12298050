package tensor

import "math"

// useAVX2 reports whether the CPU and the OS support 256-bit AVX2 code. It
// is read once at init and there is no override: without AVX2, axpy4 is the
// scalar loop. dot4 needs only SSE, which every amd64 has.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state on context switch.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// useSigmoidAVX2 reports whether sigmoid runs sigmoidAVX2. The kernel
// follows math.Exp's FMA path, which math takes only when the CPU has AVX
// and FMA and GODEBUG has not switched either off; so besides AVX2 and FMA
// on the CPU, math.Exp itself must agree with that path where it differs
// from the plain one. Read once at init; otherwise the scalar loop runs.
var useSigmoidAVX2 = useAVX2 && detectFMA() && mathExpUsesFMA()

func detectFMA() bool {
	const fma = 1 << 12
	_, _, c, _ := cpuid(1, 0)
	return c&fma != 0
}

// expProbes are inputs on which math.Exp's FMA and plain amd64 paths round
// differently (to the last bit), in both directions.
var expProbes = [...]float64{-9.98, -9.96, -8.81, -8.6}

// mathExpUsesFMA reports whether math.Exp, in this process, is its amd64
// FMA path: whether it agrees with expFMA on every probe.
func mathExpUsesFMA() bool {
	for _, x := range expProbes {
		if math.Float64bits(math.Exp(x)) != math.Float64bits(expFMA(x)) {
			return false
		}
	}
	return true
}

// The constants of math's amd64 exp (src/math/exp_amd64.s): log2(e), ln 2
// split into upper and lower parts, and the polynomial coefficients,
// highest first.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1,
}

// expFMA is math.Exp's amd64 FMA path (src/math/exp_amd64.s, label avxfma)
// for |x| ≤ 708, operation for operation, with the same constants. The
// float64() conversions keep the compiler from fusing what that path rounds
// separately.
func expFMA(x float64) float64 {
	n := int64(math.RoundToEven(expLog2e * x)) // CVTSD2SL, default rounding
	fn := float64(n)
	x = math.FMA(-fn, expLn2U, x)
	x = math.FMA(-fn, expLn2L, x)
	x *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, x, c)
	}
	x = float64(x * p)
	for range 3 {
		x = float64(x * (x + 2))
	}
	x = math.FMA(x, x+2, 1)
	return x * math.Float64frombits(uint64(n+1023)<<52)
}

// axpy4 computes y += s[0]·x0, then s[1]·x1, s[2]·x2, s[3]·x3, where row xj
// is x[j*stride : j*stride+len(y)] — bit for bit what four axpy calls in
// that order produce, but loading and storing y once. See kernel.go for the
// contract. It panics if the four rows do not fit x.
func axpy4(s *[4]float32, x []float32, stride int, y []float32) {
	if !useAVX2 {
		axpy4Scalar(s, x, stride, y)
		return
	}
	n := len(y)
	checkGroup("axpy4", x, stride, n)
	n8 := n &^ 7
	if n8 > 0 {
		axpy4AVX2(&y[0], &x[0], uintptr(stride), uintptr(n8), s)
	}
	if n8 == n {
		return
	}
	x0, x1, x2, x3 := x[:n], x[stride:stride+n], x[2*stride:2*stride+n], x[3*stride:3*stride+n]
	for i := n8; i < n; i++ {
		v := y[i]
		v += float32(s[0] * x0[i])
		v += float32(s[1] * x1[i])
		v += float32(s[2] * x2[i])
		v += float32(s[3] * x3[i])
		y[i] = v
	}
}

// dot4 sets out[j] = dot(x, yj) for the four rows yj = y[j*stride :
// j*stride+len(x)], bit for bit what four dot calls produce, sharing the
// loads of x. See kernel.go for the contract. It panics if the four rows do
// not fit y.
func dot4(out *[4]float32, x, y []float32, stride int) {
	n := len(x)
	checkGroup("dot4", y, stride, n)
	n4 := n &^ 3
	if n4 == 0 {
		*out = [4]float32{}
	} else {
		dot4SSE(out, &x[0], &y[0], uintptr(stride), uintptr(n4))
	}
	if n4 == n {
		return
	}
	for j := range out {
		yj := y[j*stride : j*stride+n]
		for i := n4; i < n; i++ {
			out[j] += float32(x[i] * yj[i])
		}
	}
}

// adamSIMD applies AdamStep's update, with k holding b1, 1−b1, b2, 1−b2,
// step, eps, to the longest prefix the AVX2 body covers and returns its
// length: a multiple of eight, zero without AVX2.
func adamSIMD(w, g, m, v []float32, k *[6]float32) int {
	n8 := len(w) &^ 7
	if !useAVX2 || n8 == 0 {
		return 0
	}
	adamAVX2(&w[0], &g[0], &m[0], &v[0], uintptr(n8), k)
	return n8
}

// sigmoid sets dst[i] to sigmoidScalar's value for src[i]. With the kernel
// selected, sigmoidAVX2 takes the groups of four; a group holding a lane it
// leaves (|src[i]| > 708 or NaN, where math.Exp leaves its straight-line
// path) and the last len%4 elements go through the scalar loop.
func sigmoid(dst, src []float32) {
	dst = dst[:len(src)]
	for useSigmoidAVX2 && len(src) >= 4 {
		n := int(sigmoidAVX2(&dst[0], &src[0], uintptr(len(src)&^3)))
		if n < len(src)&^3 {
			n += 4
			sigmoidScalar(dst[n-4:n], src[n-4:n])
		}
		dst, src = dst[n:], src[n:]
	}
	sigmoidScalar(dst, src)
}

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// axpy4AVX2 is the body of axpy4 for the first n elements of y; n must be a
// positive multiple of 8 and stride is in elements.
//
//go:noescape
func axpy4AVX2(y, x *float32, stride, n uintptr, s *[4]float32)

// dot4SSE is the body of dot4 for the first n elements of each row: out[j]
// receives ((s0+s1)+s2)+s3 of row j's four lane sums. n must be a positive
// multiple of 4 and stride is in elements.
//
//go:noescape
func dot4SSE(out *[4]float32, x, y *float32, stride, n uintptr)

// adamAVX2 is adamSIMD for the first n elements; n must be a positive
// multiple of 8.
//
//go:noescape
func adamAVX2(w, grad, m, v *float32, n uintptr, k *[6]float32)

// sigmoidAVX2 is sigmoid for the groups of four from the start of src up to
// the first that holds a lane out of its range; it returns how many
// elements it did. n must be a multiple of 4.
//
//go:noescape
func sigmoidAVX2(dst, src *float32, n uintptr) uintptr

// expAVX2 sets dst[i] = math.Exp(src[i]) with sigmoidAVX2's exponential;
// n must be a positive multiple of 4 and every |src[i]| ≤ 708. Tests only.
//
//go:noescape
func expAVX2(dst, src *float64, n uintptr)
