package tensor

import "math/rand"

// Add computes dst = a + b elementwise. All shapes must match; dst may alias
// a or b.
func Add(dst, a, b *Matrix) {
	dst.mustSameShape(a, "Add")
	dst.mustSameShape(b, "Add")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds the 1×Cols row vector v to every row of m in place,
// implementing bias addition.
func AddRowVector(m *Matrix, v []float32) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	if oneTile(m, 1) {
		addRowVector(m.Data, v)
		return
	}
	forRowBlocks(m, 1, func(lo, hi int) { addRowVector(m.Data[lo:hi], v) })
}

// addRowVector adds v to each of the len(v)-long rows of x.
func addRowVector(x, v []float32) {
	for len(x) > 0 {
		row := x[:len(v)]
		for j := range row {
			row[j] += v[j]
		}
		x = x[len(v):]
	}
}

// expWork is what one exp costs, in the multiply-adds tile.go's bounds count:
// the activation built on it is tiled at this rate. It charges the scalar
// exp; the AVX2 Sigmoid costs about a fifth of that, but charging it so
// gained nothing measurable (EXPERIMENTS.md, "Long passes in short tiles").
const expWork = 16

// Sigmoid sets dst[i] = 1/(1+e^−src[i]) for every element, computed in
// float64 through math.Exp and rounded once (kernel.go, sigmoidScalar). dst
// may alias src.
func Sigmoid(dst, src *Matrix) {
	dst.mustSameShape(src, "Sigmoid")
	if oneTile(src, expWork) {
		sigmoid(dst.Data, src.Data)
		return
	}
	forRowBlocks(src, expWork, func(lo, hi int) { sigmoid(dst.Data[lo:hi], src.Data[lo:hi]) })
}

// LeakyReLU sets dst[i] = src[i] where that is positive and alpha·src[i]
// elsewhere. dst may alias src.
func LeakyReLU(dst, src *Matrix, alpha float32) {
	dst.mustSameShape(src, "LeakyReLU")
	if oneTile(src, 1) {
		leakyReLU(dst.Data, src.Data, alpha)
		return
	}
	forRowBlocks(src, 1, func(lo, hi int) { leakyReLU(dst.Data[lo:hi], src.Data[lo:hi], alpha) })
}

func leakyReLU(dst, src []float32, alpha float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = alpha * v
		}
	}
}

// ColSums sets dst, of length m.Cols, to the per-column sums of m,
// implementing bias gradients.
func ColSums(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	clear(dst)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// FillUniform fills m with samples drawn uniformly from [lo, hi).
func FillUniform(m *Matrix, rng *rand.Rand, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}
