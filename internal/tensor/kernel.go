package tensor

import "math"

// Micro-kernels: the inner loops every GEMM variant is built from.
//
// There are two scalar kernels, axpy (y += s·x) and dot, and two grouped
// kernels built to be bit-identical to four calls of them: axpy4 (four
// consecutive axpy updates of one destination) and dot4 (four dot products
// sharing their left operand). On amd64 the grouped kernels run SIMD code
// (kernel_amd64.s) chosen once at init from CPUID; everywhere else, and for
// every tail the SIMD code does not cover, they run the scalar loops in this
// file, which are also the reference the SIMD code is tested against
// (TestMicroKernelsMatchScalar, FuzzGemmMatchesReference). AdamStep, the
// optimizer's elementwise update, and sigmoid, the decoder's output
// activation in a dense pass's epilogue, are the kernels here that are not
// GEMM loops; AdamStep keeps the same rules (adamScalar is its reference),
// sigmoid the rule of its own below (sigmoidScalar is its reference).
//
// The contract a kernel must keep, because every loss, tournament decision
// and checkpoint this repo has produced depends on the exact float32 bits:
//
//   - Ascending p. An output element sees its updates in the order the
//     scalar code applies them: y += s[0]·x0, then s[1]·x1, s[2]·x2,
//     s[3]·x3. A kernel may keep y in a register across the four updates; it
//     may not reassociate them.
//   - No FMA. Every product is rounded to float32 before it is added
//     (VMULPS then VADDPS, never VFMADD). The scalar loops spell the product
//     as float32(a*b) because the Go spec lets a compiler fuse a*b+c
//     otherwise (the arm64 port does, amd64 is free to at GOAMD64=v3), and
//     an explicit conversion forbids it — which is also what makes the
//     portable fallback agree with the amd64 kernels.
//   - Lane layout of dot. The sum over x[i]·y[i] is kept as four partial
//     sums, partial l taking the elements with i%4 == l of the longest
//     multiple-of-4 prefix; they are combined as ((s0+s1)+s2)+s3 and the
//     remaining elements are then added in ascending order. A SIMD dot keeps
//     the four partials as the four lanes of one 128-bit register; a wider
//     accumulator would change the association.
//   - Zero skip. The GEMM loops skip an update whose multiplier alpha·a is
//     exactly zero, which is observable: y + 0·x is not y when x is Inf or
//     NaN, or when y is −0. A grouped kernel is therefore only called with
//     four non-zero multipliers; a group containing a zero goes through
//     axpy one update at a time.
//   - Rounding mode and denormals are the process defaults (round to
//     nearest even, no flush-to-zero); kernels do not touch MXCSR.
//   - Whole k. A GEMM may cut C into tiles any way it likes (tile.go), and
//     run them in any order on any goroutines; it never cuts k. Every kernel
//     call covers all the updates of the elements it is given, so the cut
//     cannot show in the result.
//   - Epilogue. A dense pass (Dense) finishes every element in its tile,
//     after the whole k: the bias, as one float32 add, then the activation
//     (leakyReLU, or sigmoid under the rule below), each a function of that
//     element alone. So the cut cannot show: the bits are those of the
//     product, then a bias pass, then an activation pass (denseRef).
//   - Sigmoid. The reference is float32(1/(1+math.Exp(−float64(v)))) with
//     math.Exp as the running binary computes it. That is the one place FMA
//     appears: math's amd64 exp takes a path built on VFMADD when the CPU
//     has AVX and FMA (and GODEBUG leaves them on), and the SIMD sigmoid
//     follows that path lane by lane — same constants, same operations,
//     same order — in float64, then adds 1, divides and rounds once to
//     float32. It is selected at init only when the CPU has AVX2 and FMA and
//     math.Exp agrees with a Go transcription of the FMA path (expFMA) on
//     probes where the FMA and plain paths differ; anywhere else the scalar
//     loop runs. A group of four holding a lane with |v| > 708 or a NaN,
//     where math.Exp leaves its straight-line path, also goes through the
//     scalar loop.
//
// Results are bit-identical to the scalar loops for every non-NaN value,
// including ±0, ±Inf and denormals. A NaN result is a NaN in both, but its
// sign and payload are not part of the contract: x86 propagates the first
// operand's NaN, and the gc compiler already orders the operands of the
// scalar loops differently between the unrolled body and the tail.

// axpy computes y += s*x with 4-way unrolling. len(y) must be at least
// len(x).
func axpy(s float32, x, y []float32) {
	n := len(x)
	if n == 0 {
		return
	}
	_ = y[n-1] // hoist the bounds check out of the unrolled loop
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float32(s * x[i])
		y[i+1] += float32(s * x[i+1])
		y[i+2] += float32(s * x[i+2])
		y[i+3] += float32(s * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float32(s * x[i])
	}
}

// dot returns the inner product of x and y, which must have equal length.
func dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(x[i] * y[i])
		s1 += float32(x[i+1] * y[i+1])
		s2 += float32(x[i+2] * y[i+2])
		s3 += float32(x[i+3] * y[i+3])
	}
	s := s0 + s1 + s2 + s3
	for ; i < n; i++ {
		s += float32(x[i] * y[i])
	}
	return s
}

// adamScalar is one Adam update of w from gradient g, with moments m and v,
// all of one length: the portable AdamStep and the reference for the SIMD
// one. c1 and c2 are 1−b1 and 1−b2. Every product is rounded before it is
// added, and the operations on an element are, in this order,
//
//	m ← b1·m + c1·g
//	v ← b2·v + (c2·g)·g
//	w ← w − (step·m) / (√v + eps)
//
// with √ correctly rounded in float32 (through float64, which rounds the
// same).
func adamScalar(w, g, m, v []float32, b1, c1, b2, c2, step, eps float32) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, gi := range g {
		mi := float32(b1*m[i]) + float32(c1*gi)
		vi := float32(b2*v[i]) + float32(float32(c2*gi)*gi)
		m[i] = mi
		v[i] = vi
		w[i] -= float32(step*mi) / (float32(math.Sqrt(float64(vi))) + eps)
	}
}

// AdamStep applies one Adam update to w in place from gradient g, advancing
// the moments m and v; b1, b2, eps are Adam's constants and step the
// bias-corrected learning rate. The four slices must be one length. See
// adamScalar for the arithmetic, which the SIMD body (adamSIMD: on amd64
// with AVX2, the longest prefix that is a multiple of eight) reproduces bit
// for bit.
func AdamStep(w, g, m, v []float32, b1, b2, eps, step float32) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("tensor: AdamStep operands differ in length")
	}
	k := [6]float32{b1, 1 - b1, b2, 1 - b2, step, eps}
	n := adamSIMD(w, g, m, v, &k)
	adamScalar(w[n:], g[n:], m[n:], v[n:], k[0], k[1], k[2], k[3], k[4], k[5])
}

// sigmoidScalar sets dst[i] = 1/(1+e^−src[i]), computed in float64 through
// math.Exp and rounded once to float32: the portable sigmoid, and the
// reference for the SIMD one.
func sigmoidScalar(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// checkGroup panics unless x holds four rows of n elements, row j starting
// at x[j*stride]. Rows may overlap or coincide (stride < n) but not run
// backwards. The comparison is arranged so that no stride can overflow it:
// the assembly kernels trust it with raw pointers.
func checkGroup(kernel string, x []float32, stride, n int) {
	if stride < 0 || len(x) < n || (len(x)-n)/3 < stride {
		panic("tensor: " + kernel + ": four rows of the given length and stride do not fit the slice")
	}
}

// axpy4Scalar is axpy4 on the scalar kernel: the portable fallback and the
// reference for the SIMD one.
func axpy4Scalar(s *[4]float32, x []float32, stride int, y []float32) {
	n := len(y)
	checkGroup("axpy4", x, stride, n)
	for j, sj := range s {
		axpy(sj, x[j*stride:j*stride+n], y)
	}
}

// dot4Scalar is dot4 on the scalar kernel: the portable fallback and the
// reference for the SIMD one.
func dot4Scalar(out *[4]float32, x, y []float32, stride int) {
	n := len(x)
	checkGroup("dot4", y, stride, n)
	for j := range out {
		out[j] = dot(x, y[j*stride:j*stride+n])
	}
}
