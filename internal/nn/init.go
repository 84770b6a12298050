package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// GlorotUniform fills w with samples from U(-L, L) where L = sqrt(6/(in+out))
// and in/out are the matrix dimensions. This is the standard initializer for
// tanh/sigmoid stacks and the default for Linear layers here.
func GlorotUniform(w *tensor.Matrix, rng *rand.Rand) {
	limit := math.Sqrt(6 / float64(w.Rows+w.Cols))
	tensor.FillUniform(w, rng, -limit, limit)
}
