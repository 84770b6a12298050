package perfmodel

import (
	"testing"

	"repro/internal/datastore"
)

func TestArchParamCounts(t *testing.T) {
	a := PaperArch()
	enc, dec, fwd, inv, disc := a.Params()
	// Encoder/decoder dominate: ~37.8M parameters each at 49167×768.
	if enc < 35e6 || enc > 40e6 {
		t.Fatalf("encoder params = %d", enc)
	}
	if dec < 35e6 || dec > 40e6 {
		t.Fatalf("decoder params = %d", dec)
	}
	if fwd > 1e6 || inv > 1e6 || disc > 1e6 {
		t.Fatalf("small nets too big: %d %d %d", fwd, inv, disc)
	}
	ae, dsc, gen := a.PhaseGradBytes()
	if ae != 4*float64(enc+dec) || dsc != 4*float64(disc) || gen != 4*float64(fwd+inv+dec) {
		t.Fatal("phase grad bytes inconsistent with param counts")
	}
	if a.FlopsPerSample() < 6*float64(enc+dec) {
		t.Fatal("flops must at least cover the autoencoder phase")
	}
}

func TestMLPParamsKnownValue(t *testing.T) {
	// 3→4→2: 3·4+4 + 4·2+2 = 26.
	if got := mlpParams([]int{3, 4, 2}); got != 26 {
		t.Fatalf("mlpParams = %d, want 26", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	s := PaperScenario(1000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := s
	bad.Trainers = 0
	if bad.Validate() == nil {
		t.Fatal("0 trainers must be invalid")
	}
	bad = s
	bad.SerializationBW = 0
	if bad.Validate() == nil {
		t.Fatal("0 serialization bandwidth must be invalid")
	}
}

func assertWindow(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Fatalf("%s = %.3f outside calibration window [%.3f, %.3f]", name, got, lo, hi)
	}
}

// Figure 9 calibration: 9.36× speedup at 16 GPUs with ~58% parallel
// efficiency, near-linear at low GPU counts, monotone throughout.
func TestFigure9Calibration(t *testing.T) {
	pts := Figure9()
	if len(pts) != 5 || pts[0].GPUs != 1 || pts[4].GPUs != 16 {
		t.Fatalf("unexpected x-axis: %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].SteadyEpoch >= pts[i-1].SteadyEpoch {
			t.Fatalf("epoch time not monotone: %+v", pts)
		}
	}
	base := pts[0].SteadyEpoch
	sp16 := base / pts[4].SteadyEpoch
	assertWindow(t, "fig9 speedup@16", sp16, 8.8, 10.0)
	assertWindow(t, "fig9 efficiency@16", sp16/16, 0.55, 0.63)
	assertWindow(t, "fig9 speedup@4", base/pts[2].SteadyEpoch, 3.3, 4.0)
}

// Figure 10 calibration: the data-store benefit ratios the paper reports —
// 7.73× at 1 GPU, 1.31× (dynamic) and 1.43× (preloaded) at 16 GPUs, with
// preload 1.10× over dynamic; preload infeasible at 1–2 GPUs.
func TestFigure10Calibration(t *testing.T) {
	pts := Figure10()
	get := func(g int, m datastore.Mode) Figure10Point {
		for _, p := range pts {
			if p.GPUs == g && p.Mode == m {
				return p
			}
		}
		t.Fatalf("missing point g=%d mode=%v", g, m)
		return Figure10Point{}
	}
	// Feasibility matches the paper: preload OOMs at 1 and 2 GPUs only.
	for _, g := range []int{1, 2} {
		if get(g, datastore.ModePreload).Feasible {
			t.Fatalf("preload at %d GPUs should be infeasible", g)
		}
	}
	for _, g := range []int{4, 8, 16} {
		if !get(g, datastore.ModePreload).Feasible {
			t.Fatalf("preload at %d GPUs should be feasible", g)
		}
	}
	assertWindow(t, "store benefit@1GPU",
		get(1, datastore.ModeNone).SteadyEpoch/get(1, datastore.ModeDynamic).SteadyEpoch, 7.0, 8.6)
	naive16 := get(16, datastore.ModeNone).SteadyEpoch
	dyn16 := get(16, datastore.ModeDynamic).SteadyEpoch
	pre16 := get(16, datastore.ModePreload).SteadyEpoch
	assertWindow(t, "naive/dynamic@16", naive16/dyn16, 1.24, 1.38)
	assertWindow(t, "naive/preload@16", naive16/pre16, 1.36, 1.50)
	assertWindow(t, "dynamic/preload@16", dyn16/pre16, 1.05, 1.15)
	// First-epoch ordering: preload initial beats both other initials at 16
	// GPUs; the dynamic store's first epoch costs slightly more than naive.
	if !(get(16, datastore.ModePreload).InitialEpoch < naive16) {
		t.Fatal("preload initial epoch should beat naive")
	}
	if !(get(16, datastore.ModeDynamic).InitialEpoch > naive16) {
		t.Fatal("dynamic-store first epoch should cost slightly more than naive")
	}
}

// Figure 11 calibration: 70.2× speedup at 64 trainers (≈109% efficiency),
// superlinear throughout, preload time dipping with trainer count then
// rising at 64 from file-system interference, and the 4-packed-node
// single-trainer baseline infeasible.
func TestFigure11Calibration(t *testing.T) {
	pts := Figure11()
	if len(pts) != 5 || pts[0].Trainers != 1 || pts[4].Trainers != 64 {
		t.Fatalf("unexpected x-axis: %+v", pts)
	}
	sp64 := pts[4].Speedup
	assertWindow(t, "fig11 speedup@64", sp64, 66, 75)
	assertWindow(t, "fig11 efficiency@64", pts[4].Efficiency, 1.03, 1.17)
	for _, p := range pts[1:] {
		if p.Efficiency < 1.0 {
			t.Fatalf("LTFB point lost superlinearity: %+v", p)
		}
	}
	// Preload: monotone decrease until 32 trainers, then interference rise.
	for i := 1; i < 4; i++ {
		if pts[i].PreloadTime >= pts[i-1].PreloadTime {
			t.Fatalf("preload should decrease until 32 trainers: %+v", pts)
		}
	}
	if !(pts[4].PreloadTime > pts[3].PreloadTime*1.2) {
		t.Fatalf("preload at 64 trainers should degrade: %v vs %v", pts[4].PreloadTime, pts[3].PreloadTime)
	}
	base := Fig11Infeasible4NodeBaseline()
	if base.Feasible {
		t.Fatal("10M samples on a 4-packed-node trainer must be infeasible")
	}
	if base.Reason == "" {
		t.Fatal("infeasibility must carry a reason")
	}
}

// The sparse 16-node baseline mechanism: its per-step time must exceed the
// packed 4-node configuration's by the ~10% that makes LTFB superlinear.
func TestSparseBaselinePenaltyWindow(t *testing.T) {
	sparse := fig11Scenario(1).Epoch()
	dense := fig11Scenario(64).Epoch()
	ratio := sparse.StepTime / dense.StepTime
	assertWindow(t, "sparse/dense step ratio", ratio, 1.03, 1.17)
}

func TestNaiveIngestScalesDownWithRanks(t *testing.T) {
	s := PaperScenario(1_000_000)
	s.Mode = datastore.ModeNone
	densePlacement(&s, 1)
	i1 := s.NaiveIngestPerStep()
	densePlacement(&s, 16)
	i16 := s.NaiveIngestPerStep()
	if !(i16 < i1/8) {
		t.Fatalf("ingest should parallelize: %v vs %v", i1, i16)
	}
	if !(i16 > i1/32) {
		t.Fatalf("ingest cannot super-scale: %v vs %v", i1, i16)
	}
}

func TestPreloadMakespanDeterministic(t *testing.T) {
	s := fig11Scenario(8)
	a := s.PreloadMakespan()
	b := s.PreloadMakespan()
	if a != b {
		t.Fatalf("preload makespan nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("preload makespan = %v", a)
	}
}

func TestEpochReportBreakdownConsistent(t *testing.T) {
	s := PaperScenario(1_000_000)
	s.Mode = datastore.ModePreload
	densePlacement(&s, 16)
	r := s.Epoch()
	if !r.Feasible {
		t.Fatalf("unexpected infeasible: %s", r.Reason)
	}
	if r.StepsPerEpoch != 1_000_000/128 {
		t.Fatalf("steps per epoch = %d", r.StepsPerEpoch)
	}
	sum := r.Compute + r.Allreduce + r.Shuffle
	if diff := r.StepTime - sum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("step time %v != breakdown sum %v", r.StepTime, sum)
	}
	if r.InitialEpoch <= r.SteadyEpoch {
		t.Fatal("preload initial epoch must include the preload time")
	}
}

func TestPressureGrowsWithOccupancy(t *testing.T) {
	s := fig11Scenario(1) // sparse baseline: high occupancy
	high := s.pressure()
	s2 := fig11Scenario(64)
	low := s2.pressure()
	if low != 1 {
		t.Fatalf("64-trainer occupancy should be pressure-free, got %v", low)
	}
	if !(high > 1) {
		t.Fatalf("sparse baseline should see memory pressure, got %v", high)
	}

	// Pressure raises the shuffle's cost.
	relieved := s
	relieved.Fabric.MemoryPressure = 0
	if !(s.shuffleTime() > relieved.shuffleTime()) {
		t.Fatalf("memory pressure should slow the shuffle: %v vs %v", s.shuffleTime(), relieved.shuffleTime())
	}

	// One rank pays host staging only, at its pressure.
	one := PaperScenario(1_000_000)
	densePlacement(&one, 1)
	if got, want := one.shuffleTime(), float64(one.BatchSize)*one.SampleBytes/one.Fabric.HostBandwidth*one.pressure(); got != want || one.pressure() <= 1 {
		t.Fatalf("one-rank shuffle %v, want host staging alone %v (pressure %v)", got, want, one.pressure())
	}

	// A trainer on one node (NVLink) shuffles cheaper than one spread over
	// nodes (IB), at equal rank count and no pressure on either.
	intra := PaperScenario(100_000)
	densePlacement(&intra, 4)
	inter := intra
	inter.GPUsPerNode = 1
	if intra.pressure() != 1 || inter.pressure() != 1 || !(inter.shuffleTime() > intra.shuffleTime()) {
		t.Fatalf("cross-node shuffle %v should exceed intra-node %v", inter.shuffleTime(), intra.shuffleTime())
	}
}

func BenchmarkFigure11Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Figure11()
	}
}

func TestSweepHeadline(t *testing.T) {
	pts := SweepHeadline(3)
	if len(pts) != 12 {
		t.Fatalf("sweep produced %d points, want 12", len(pts))
	}
	knobs := map[string][]SensitivityPoint{}
	for _, p := range pts {
		if p.Speedup <= 0 {
			t.Fatalf("degenerate speedup in %+v", p)
		}
		knobs[p.Knob] = append(knobs[p.Knob], p)
	}
	// The sparse-NIC penalty is the dominant superlinearity lever: speedup
	// must increase monotonically with it.
	nic := knobs["sparse_nic_penalty"]
	for i := 1; i < len(nic); i++ {
		if nic[i].Speedup <= nic[i-1].Speedup {
			t.Fatalf("speedup not monotone in NIC penalty: %+v", nic)
		}
	}
	// With zero penalty and zero step overhead, the 64-trainer run should
	// lose most of its superlinearity (close to linear scaling).
	sp, _ := headlineUnder(func(s *Scenario) {
		s.Fabric.SparseNICPenalty = 0
		s.Fabric.StepOverhead = 0
		s.Fabric.MemoryPressure = 0
	})
	if sp > 67 {
		t.Fatalf("without the modelled mechanisms speedup should be ~linear, got %v", sp)
	}
	// File-system interference moves preload time, not speedup.
	fs := knobs["fs_interference"]
	if !(fs[len(fs)-1].Preload > fs[0].Preload) {
		t.Fatalf("interference should raise preload time: %+v", fs)
	}
	if SensitivitySummary(pts) == "" {
		t.Fatal("summary empty")
	}
}
