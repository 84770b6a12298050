package jag

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestSimulateDeterministic(t *testing.T) {
	x := [InputDim]float64{0.3, 0.7, 0.1, 0.9, 0.5}
	a := Simulate(Tiny8, x)
	b := Simulate(Tiny8, x)
	for i := range a.Scalars {
		if a.Scalars[i] != b.Scalars[i] {
			t.Fatalf("scalar %d nondeterministic", i)
		}
	}
	for i := range a.Images {
		if a.Images[i] != b.Images[i] {
			t.Fatalf("pixel %d nondeterministic", i)
		}
	}
}

func TestSimulateShapesAndRanges(t *testing.T) {
	for _, cfg := range []Config{Tiny8, Small16, {ImageSize: 4, Views: 1, Channels: 1}} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		s := SimulateAt(cfg, 3)
		if len(s.X) != InputDim || len(s.Scalars) != ScalarDim || len(s.Images) != cfg.ImageDim() {
			t.Fatalf("cfg %+v: bad lengths %d/%d/%d", cfg, len(s.X), len(s.Scalars), len(s.Images))
		}
		for i, v := range s.Scalars {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("scalar %d = %v outside [0,1]", i, v)
			}
		}
		for i, v := range s.Images {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				t.Fatalf("pixel %d = %v outside [0,1]", i, v)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	for _, cfg := range []Config{{}, {ImageSize: 8, Views: 0, Channels: 1}, {ImageSize: -1, Views: 1, Channels: 1},
		// One pixel per side cannot span [-1,1]: its coordinate is 0/0.
		{ImageSize: 1, Views: 3, Channels: 2}} {
		if cfg.Validate() == nil {
			t.Fatalf("config %+v should be invalid", cfg)
		}
	}
	// The smallest valid grid renders finite pixels.
	g := Config{ImageSize: 2, Views: 3, Channels: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, v := range SimulateAt(g, 5).Images {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("2x2 pixel %d = %v", i, v)
		}
	}
}

// TestSimulateGolden pins the simulator's output bits on geometries beyond
// the Tiny8 that the ensemble golden covers: more channels per view, the
// paper's 64x64, a single view and channel, and a wiggled odd-sized grid.
// The digest is SHA-256 over the little-endian float32 bits of
// SimulateAt(g, i).Flatten() for i = 0..299, first 8 bytes in hex.
func TestSimulateGolden(t *testing.T) {
	for _, c := range []struct {
		g    Config
		want string
	}{
		{Tiny8, "e43d2368e4f2832a"},
		{Small16, "205e28b450f999c4"},
		{Default64, "9c02207e75d7af2f"},
		{Config{ImageSize: 5, Views: 1, Channels: 1}, "df13d4003c1ebb28"},
		{Config{ImageSize: 7, Views: 5, Channels: 3, Wiggle: 1}, "c44187c39688b188"},
	} {
		h := sha256.New()
		var b [4]byte
		for i := 0; i < 300; i++ {
			for _, v := range SimulateAt(c.g, i).Flatten() {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != c.want {
			t.Errorf("%+v: digest %s, want %s", c.g, got, c.want)
		}
	}
}

func TestInputClamping(t *testing.T) {
	inBounds := Simulate(Tiny8, [InputDim]float64{0, 1, 0, 1, 0})
	outBounds := Simulate(Tiny8, [InputDim]float64{-3, 7, -0.5, 2, -1})
	for i := range inBounds.Scalars {
		if inBounds.Scalars[i] != outBounds.Scalars[i] {
			t.Fatal("out-of-range inputs must clamp to the cube boundary")
		}
	}
}

// The paper observes that drive parameters move the scalars non-linearly
// while shape parameters mostly change the images. Verify both sensitivity
// directions.
func TestDriveMovesScalars(t *testing.T) {
	base := [InputDim]float64{0.2, 0.5, 0.5, 0.5, 0.3}
	hot := base
	hot[0] = 0.9
	a := Simulate(Tiny8, base)
	b := Simulate(Tiny8, hot)
	var diff float64
	for i := range a.Scalars {
		diff += math.Abs(float64(a.Scalars[i] - b.Scalars[i]))
	}
	if diff < 0.5 {
		t.Fatalf("drive change moved scalars only %v", diff)
	}
}

func TestShapeMovesImages(t *testing.T) {
	base := [InputDim]float64{0.6, 0.5, 0.5, 0.5, 0.2}
	warped := base
	warped[1] = 0.95
	a := Simulate(Small16, base)
	b := Simulate(Small16, warped)
	var imgDiff float64
	for i := range a.Images {
		imgDiff += math.Abs(float64(a.Images[i] - b.Images[i]))
	}
	imgDiff /= float64(len(a.Images))
	if imgDiff < 1e-3 {
		t.Fatalf("shape change barely moved images: %v", imgDiff)
	}
}

func TestViewsDiffer(t *testing.T) {
	s := Simulate(Small16, [InputDim]float64{0.7, 0.9, 0.3, 0.4, 0.1})
	px := Small16.ImageSize * Small16.ImageSize
	view0 := s.Images[0:px]
	view1 := s.Images[Small16.Channels*px : Small16.Channels*px+px]
	var diff float64
	for i := range view0 {
		diff += math.Abs(float64(view0[i] - view1[i]))
	}
	if diff == 0 {
		t.Fatal("different lines of sight must see different projections")
	}
}

func TestChannelsFollowEnergySpectrum(t *testing.T) {
	// For a cool implosion, harder channels must carry less total signal.
	s := Simulate(Small16, [InputDim]float64{0.25, 0.5, 0.5, 0.8, 0.6})
	px := Small16.ImageSize * Small16.ImageSize
	sum := func(c int) float64 {
		var v float64
		for _, p := range s.Images[c*px : (c+1)*px] {
			v += float64(p)
		}
		return v
	}
	if !(sum(0) > sum(1) && sum(1) > sum(2)) {
		t.Fatalf("channel energies not decreasing: %v %v %v", sum(0), sum(1), sum(2))
	}
}

func TestYieldCliff(t *testing.T) {
	// Yield (scalar 0) must respond super-linearly to drive: the jump from
	// 0.8→1.0 exceeds the jump from 0.0→0.2 at fixed shape.
	at := func(d float64) float64 {
		s := Simulate(Tiny8, [InputDim]float64{d, 0.5, 0.5, 0.3, 0.1})
		return float64(s.Scalars[0])
	}
	low := at(0.2) - at(0.0)
	high := at(1.0) - at(0.8)
	if high <= low {
		t.Fatalf("yield response not super-linear: low %v, high %v", low, high)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	s := SimulateAt(Tiny8, 11)
	buf := s.Flatten()
	if len(buf) != Tiny8.SampleDim() {
		t.Fatalf("flatten length %d, want %d", len(buf), Tiny8.SampleDim())
	}
	// The record layout every reader slices by: X | scalars | images. Each
	// field is a view of the flattened record itself, not a copy of it.
	for _, f := range []struct {
		name string
		got  []float32
		off  int
	}{{"X", s.X, 0}, {"Scalars", s.Scalars, InputDim}, {"Images", s.Images, InputDim + ScalarDim}} {
		if &f.got[0] != &buf[f.off] {
			t.Fatalf("%s is not Flatten()[%d:]", f.name, f.off)
		}
	}
	if len(s.X) != InputDim || len(s.Scalars) != ScalarDim || len(s.Images) != Tiny8.ImageDim() {
		t.Fatalf("field lengths %d/%d/%d", len(s.X), len(s.Scalars), len(s.Images))
	}
	// Two samples share no storage.
	other := SimulateAt(Tiny8, 11).Flatten()
	if &other[0] == &buf[0] || &other[len(other)-1] == &buf[len(buf)-1] {
		t.Fatal("two SimulateAt calls share storage")
	}
	// A sample and its record are one allocation, plus the Sample header
	// and the per-call channel weights.
	if n := testing.AllocsPerRun(20, func() { SimulateAt(Tiny8, 11).Flatten() }); n > 3 {
		t.Fatalf("SimulateAt(...).Flatten() makes %v allocations, want at most 3", n)
	}
}

func TestOutputLayout(t *testing.T) {
	s := SimulateAt(Tiny8, 5)
	out := s.Output()
	if len(out) != Tiny8.OutputDim() {
		t.Fatalf("output length %d, want %d", len(out), Tiny8.OutputDim())
	}
	if out[0] != s.Scalars[0] || out[ScalarDim] != s.Images[0] {
		t.Fatal("output layout must be scalars then images")
	}
	if &out[0] != &s.Flatten()[InputDim] {
		t.Fatal("Output() must be Flatten()[InputDim:]")
	}
}

func TestRadicalInverseKnownValues(t *testing.T) {
	cases := []struct {
		i, b int
		want float64
	}{{1, 2, 0.5}, {2, 2, 0.25}, {3, 2, 0.75}, {1, 3, 1.0 / 3}, {5, 3, 7.0 / 9}}
	for _, c := range cases {
		if got := RadicalInverse(c.i, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("RadicalInverse(%d,%d) = %v, want %v", c.i, c.b, got, c.want)
		}
	}
}

func TestRadicalInverseInUnitInterval(t *testing.T) {
	f := func(i uint16, bRaw uint8) bool {
		b := int(bRaw%9) + 2
		v := RadicalInverse(int(i), b)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Low-discrepancy property: over any dimension, the first n plan points
// fill each decile of [0,1] with roughly n/10 points.
func TestPlanUniformCoverage(t *testing.T) {
	const n = 1000
	for d := 0; d < InputDim; d++ {
		var bins [10]int
		for i := 0; i < n; i++ {
			b := int(InputAt(i)[d] * 10)
			if b == 10 {
				b = 9
			}
			bins[b]++
		}
		for b, c := range bins {
			if c < n/10-35 || c > n/10+35 {
				t.Fatalf("dim %d decile %d has %d of %d points", d, b, c, n)
			}
		}
	}
}

// Contiguous plan ranges must each cover the space (this is what lets LTFB
// partition the dataset by file ranges without starving any trainer of a
// whole region).
func TestPlanPrefixCoverage(t *testing.T) {
	for _, start := range []int{0, 500, 5000} {
		for d := 0; d < InputDim; d++ {
			lo, hi := 1.0, 0.0
			for i := start; i < start+200; i++ {
				p := InputAt(i)
				if p[d] < lo {
					lo = p[d]
				}
				if p[d] > hi {
					hi = p[d]
				}
			}
			if lo > 0.2 || hi < 0.8 {
				t.Fatalf("plan range starting %d leaves dim %d span [%v,%v]", start, d, lo, hi)
			}
		}
	}
}

func TestPlanDistinctPoints(t *testing.T) {
	seen := map[[InputDim]float64]bool{}
	for i := 0; i < 500; i++ {
		p := InputAt(i)
		if seen[p] {
			t.Fatalf("duplicate plan point %v", p)
		}
		seen[p] = true
	}
}

func BenchmarkSimulateTiny8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateAt(Tiny8, i)
	}
}

func BenchmarkSimulate64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateAt(Default64, i)
	}
}

func TestWiggleStaysBoundedAndDeterministic(t *testing.T) {
	cfg := Tiny8
	cfg.Wiggle = 1
	for i := 0; i < 50; i++ {
		a := SimulateAt(cfg, i)
		b := SimulateAt(cfg, i)
		for j := range a.Scalars {
			if a.Scalars[j] != b.Scalars[j] {
				t.Fatal("wiggled simulation nondeterministic")
			}
			if a.Scalars[j] < 0 || a.Scalars[j] > 1 {
				t.Fatalf("wiggled scalar %d = %v outside [0,1]", j, a.Scalars[j])
			}
		}
		for j, v := range a.Images {
			if v < 0 || v > 1 {
				t.Fatalf("wiggled pixel %d = %v outside [0,1]", j, v)
			}
		}
	}
}

func TestWiggleChangesOutputs(t *testing.T) {
	smooth := Tiny8
	rough := Tiny8
	rough.Wiggle = 1
	x := InputAt(7)
	a := Simulate(smooth, x)
	b := Simulate(rough, x)
	same := true
	for j := range a.Scalars {
		if a.Scalars[j] != b.Scalars[j] {
			same = false
		}
	}
	if same {
		t.Fatal("wiggle had no effect on scalars")
	}
}

// The high-frequency term must make nearby inputs diverge more than the
// smooth model — the aliasing property Figure 13 relies on.
func TestWiggleRaisesLocalVariation(t *testing.T) {
	variation := func(cfg Config) float64 {
		var total float64
		for i := 0; i < 30; i++ {
			x := InputAt(i)
			y := x
			y[0] += 0.05
			a := Simulate(cfg, x)
			b := Simulate(cfg, y)
			for j := range a.Scalars {
				d := float64(a.Scalars[j] - b.Scalars[j])
				if d < 0 {
					d = -d
				}
				total += d
			}
		}
		return total
	}
	rough := Tiny8
	rough.Wiggle = 1
	if !(variation(rough) > variation(Tiny8)*1.1) {
		t.Fatalf("wiggle did not raise local variation: %v vs %v", variation(rough), variation(Tiny8))
	}
}
