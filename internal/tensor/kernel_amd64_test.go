package tensor

import (
	"math"
	"testing"
)

// expPlain is math.Exp's amd64 path without FMA (src/math/exp_amd64.s up to
// the avxfma label) for |x| ≤ 708: every product rounded before it is added.
func expPlain(x float64) float64 {
	n := int64(math.RoundToEven(expLog2e * x))
	fn := float64(n)
	x -= float64(fn * expLn2U)
	x -= float64(fn * expLn2L)
	x *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*x) + c
	}
	x = float64(x * p)
	for range 3 {
		x = float64(x * (x + 2))
	}
	x = float64(x*(x+2)) + 1
	return x * math.Float64frombits(uint64(n+1023)<<52)
}

// TestSigmoidKernelFollowsMath: the probes tell math.Exp's two amd64 paths
// apart, math.Exp is exactly one of them in this process, and the sigmoid
// kernel is selected exactly when it is the FMA one on a CPU that can run
// the kernel. Run it under GODEBUG=cpu.fma=off too: math then takes the
// plain path and the kernel must stand down.
func TestSigmoidKernelFollowsMath(t *testing.T) {
	fma, plain := true, true
	for _, x := range expProbes {
		e := math.Float64bits(math.Exp(x))
		fma = fma && e == math.Float64bits(expFMA(x))
		plain = plain && e == math.Float64bits(expPlain(x))
	}
	if fma == plain {
		t.Fatalf("the probes do not tell math.Exp's paths apart: matches FMA path %v, plain path %v", fma, plain)
	}
	if want := useAVX2 && detectFMA() && fma; useSigmoidAVX2 != want {
		t.Fatalf("sigmoid kernel selected = %v, want %v (AVX2 %v, FMA %v, math.Exp on its FMA path %v)",
			useSigmoidAVX2, want, useAVX2, detectFMA(), fma)
	}
	t.Logf("math.Exp takes its FMA path: %v; sigmoid kernel selected: %v", fma, useSigmoidAVX2)
}

// TestSigmoidExpLanesMatchMathExp holds the kernel's float64 exponential
// (expAVX2, the EXP4 sigmoidAVX2 runs) and the Go transcription expFMA that
// selects it to math.Exp, bit for bit, on 2^20 points across [−708, 708]
// and at the places where n = round(x·log2 e) changes. Small changes to the
// chain change few float32 sigmoids or none: rounding n by truncation or
// rounding each product before its add changes none of the 2^32, two
// Horner steps swapped 260. Here each changes a large share of the lanes.
func TestSigmoidExpLanesMatchMathExp(t *testing.T) {
	if !useSigmoidAVX2 {
		t.Skip("sigmoid kernel not selected: math.Exp is not on its FMA path, or the CPU lacks AVX2/FMA")
	}
	const n = 1 << 20
	src := make([]float64, 0, n+64)
	for i := 0; i < n; i++ {
		src = append(src, -708+1416*float64(i)/n)
	}
	src = append(src, expProbes[:]...)
	src = append(src, 0, math.Copysign(0, -1), 708, -708, math.Nextafter(708, 0), math.Nextafter(-708, 0),
		5e-324, -5e-324, 1e-300, -1e-300)
	for k := 1; k <= 41; k += 2 { // x·log2 e within an ulp of k/2
		h := float64(k) / 2 * math.Ln2
		src = append(src, h, -h, math.Nextafter(h, 0), math.Nextafter(-h, 0))
	}
	for len(src)%4 != 0 {
		src = append(src, 1)
	}
	dst := make([]float64, len(src))
	expAVX2(&dst[0], &src[0], uintptr(len(src)))
	for i, x := range src {
		want := math.Float64bits(math.Exp(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("expAVX2(%v) = %#016x, math.Exp %#016x", x, got, want)
		}
		if got := math.Float64bits(expFMA(x)); got != want {
			t.Fatalf("expFMA(%v) = %#016x, math.Exp %#016x", x, got, want)
		}
	}
}
