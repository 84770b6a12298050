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

// Act is the activation a dense pass (Dense) applies to every element of its
// output, after the bias.
type Act uint8

// The activations: the identity; v where v > 0 and leakyAlpha·v elsewhere,
// the paper-standard GAN activation; and 1/(1+e^−v) under kernel.go's
// Sigmoid rule.
const (
	ActNone Act = iota
	ActLeakyReLU
	ActSigmoid
)

const leakyAlpha = 0.2 // ActLeakyReLU's slope below zero

// actWork is what the epilogue of a dense pass costs an element, in the
// multiply-adds tile.go's bounds count: the bias add, then the activation. An
// exp is charged 16, what the scalar one costs; the AVX2 sigmoid costs about
// a fifth of that, but charging it so gained nothing measurable
// (EXPERIMENTS.md, "Long passes in short tiles"). Looking an Act up here is
// also what refuses one that is not an activation, before any tile runs.
var actWork = [...]int{ActNone: 1, ActLeakyReLU: 2, ActSigmoid: 1 + 16}

// apply sets every element of row to act of itself.
func (act Act) apply(row []float32) {
	switch act {
	case ActLeakyReLU:
		leakyReLU(row, row, leakyAlpha)
	case ActSigmoid:
		sigmoid(row, row)
	}
}

// Grad returns dLoss/dv for y = act(v), given dLoss/dy and the output y:
// dy itself for ActNone, otherwise a new matrix from a. ActLeakyReLU reads
// the sign of y, not of v; for leakyAlpha > 0 they agree everywhere — at ±0,
// at NaN, and where leakyAlpha·v underflows to −0 — so the bits are those of
// the rule on v.
func (act Act) Grad(dy, y *Matrix, a *Arena) *Matrix {
	if act == ActNone {
		return dy
	}
	g := a.New(dy.Rows, dy.Cols)
	y.mustSameShape(g, "Act.Grad")
	if act == ActSigmoid {
		for i, v := range y.Data {
			g.Data[i] = dy.Data[i] * v * (1 - v)
		}
		return g
	}
	for i, v := range y.Data {
		if v > 0 {
			g.Data[i] = dy.Data[i]
		} else {
			g.Data[i] = leakyAlpha * dy.Data[i]
		}
	}
	return g
}

// addRowVector adds v to x, element by element: the bias of one row.
func addRowVector(x, v []float32) {
	x = x[:len(v)]
	for j := range x {
		x[j] += v[j]
	}
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
