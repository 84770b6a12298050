package jag

// The paper used a spectral design-of-experiments approach (Kailkhura et al.)
// to place 10M+1M simulations densely in the 5-D parameter space. We
// substitute the Halton low-discrepancy sequence: like the spectral design
// it covers the space far more uniformly than i.i.d. sampling, it is
// deterministic, and any prefix is itself well spread — which matters
// because the dataset is written to bundle files in generation order and
// partitioned contiguously across trainers.

// haltonBases are the first five primes, one radical-inverse base per input
// dimension.
var haltonBases = [InputDim]int{2, 3, 5, 7, 11}

// haltonSkip discards the first few sequence points, which are degenerate
// (0, 1/2, ...) and would cluster early samples.
const haltonSkip = 20

// RadicalInverse returns the base-b radical inverse of i, the Halton
// coordinate in [0,1).
func RadicalInverse(i, b int) float64 {
	inv := 1.0 / float64(b)
	f := inv
	var r float64
	for i > 0 {
		r += f * float64(i%b)
		i /= b
		f *= inv
	}
	return r
}

// InputAt returns the i-th point of the 5-D sampling plan. Points are
// deterministic, dense, and any contiguous range is roughly uniform over the
// cube.
func InputAt(i int) [InputDim]float64 {
	var x [InputDim]float64
	for d := 0; d < InputDim; d++ {
		x[d] = RadicalInverse(i+1+haltonSkip, haltonBases[d])
	}
	return x
}

// SimulateAt runs the simulator on the i-th plan point.
func SimulateAt(cfg Config, i int) *Sample { return Simulate(cfg, InputAt(i)) }
