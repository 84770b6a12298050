//go:build !amd64

package tensor

// axpy4 computes y += s[0]·x0, then s[1]·x1, s[2]·x2, s[3]·x3, where row xj
// is x[j*stride : j*stride+len(y)]. See kernel.go for the contract.
func axpy4(s *[4]float32, x []float32, stride int, y []float32) {
	axpy4Scalar(s, x, stride, y)
}

// dot4 sets out[j] = dot(x, yj) for the four rows yj = y[j*stride :
// j*stride+len(x)]. See kernel.go for the contract.
func dot4(out *[4]float32, x, y []float32, stride int) {
	dot4Scalar(out, x, y, stride)
}

// adamSIMD updates no element: adamScalar does them all.
func adamSIMD(w, g, m, v []float32, k *[6]float32) int { return 0 }

// sigmoid is sigmoidScalar.
func sigmoid(dst, src []float32) { sigmoidScalar(dst, src) }
