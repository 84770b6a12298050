package tensor

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
