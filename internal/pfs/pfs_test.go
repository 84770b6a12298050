package pfs

import (
	"math"
	"testing"

	"repro/internal/des"
)

func testParams() Params {
	return Params{
		NumOSTs:            4,
		OSTBandwidth:       100,
		OSTChannels:        1,
		OpenLatency:        1,
		SeekLatency:        0.5,
		ClientBandwidth:    100,
		SaturationInFlight: 2,
		Interference:       1,
	}
}

func TestValidate(t *testing.T) {
	if err := GPFSLike().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testParams()
	bad.NumOSTs = 0
	if bad.Validate() == nil {
		t.Fatal("zero OSTs must be invalid")
	}
	bad = testParams()
	bad.Interference = -1
	if bad.Validate() == nil {
		t.Fatal("negative interference must be invalid")
	}
}

func TestOpenChargesLatency(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	var done float64
	fs.Open(0, func(tm float64) { done = tm })
	sim.Run()
	if done != 1 {
		t.Fatalf("open completed at %v, want 1", done)
	}
}

func TestSequentialReadBandwidth(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	var done float64
	fs.ReadSequential(1, 200, func(tm float64) { done = tm })
	sim.Run()
	if math.Abs(done-2) > 1e-9 { // 200 bytes at 100 B/s
		t.Fatalf("read completed at %v, want 2", done)
	}
}

func TestRandomReadAddsSeek(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	var done float64
	fs.ReadRandom(1, 100, func(tm float64) { done = tm })
	sim.Run()
	if math.Abs(done-1.5) > 1e-9 { // 0.5 seek + 1s transfer
		t.Fatalf("random read completed at %v, want 1.5", done)
	}
}

func TestClientBandwidthFloors(t *testing.T) {
	p := testParams()
	p.ClientBandwidth = 50 // slower than the OST
	sim := des.New()
	fs := New(sim, p)
	var done float64
	fs.ReadSequential(0, 100, func(tm float64) { done = tm })
	sim.Run()
	if math.Abs(done-2) > 1e-9 {
		t.Fatalf("client-capped read completed at %v, want 2", done)
	}
}

func TestSameOSTQueues(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	var ends []float64
	// Files 0 and 4 map to OST 0 with 4 OSTs.
	fs.ReadSequential(0, 100, func(tm float64) { ends = append(ends, tm) })
	fs.ReadSequential(4, 100, func(tm float64) { ends = append(ends, tm) })
	sim.Run()
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 2 {
		t.Fatalf("same-OST reads did not serialize: %v", ends)
	}
}

func TestDifferentOSTsParallel(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	var ends []float64
	fs.ReadSequential(0, 100, func(tm float64) { ends = append(ends, tm) })
	fs.ReadSequential(1, 100, func(tm float64) { ends = append(ends, tm) })
	sim.Run()
	if len(ends) != 2 || ends[0] != 1 || ends[1] != 1 {
		t.Fatalf("different OSTs should serve in parallel: %v", ends)
	}
}

func TestInterferenceDegradesBandwidth(t *testing.T) {
	// Submit many concurrent reads to one OST: the later ones (submitted
	// while the queue is past saturation) must be served slower, so the
	// makespan exceeds the no-interference sum.
	p := testParams()
	sim := des.New()
	fs := New(sim, p)
	const n = 8
	for i := 0; i < n; i++ {
		fs.ReadSequential(0, 100, nil)
	}
	end := sim.Run()
	noInterference := float64(n) * 1.0
	if end <= noInterference+0.5 {
		t.Fatalf("makespan %v shows no interference (baseline %v)", end, noInterference)
	}

	// With the interference slope at zero, the makespan is exactly the sum.
	p.Interference = 0
	sim2 := des.New()
	fs2 := New(sim2, p)
	for i := 0; i < n; i++ {
		fs2.ReadSequential(0, 100, nil)
	}
	if end2 := sim2.Run(); math.Abs(end2-noInterference) > 1e-9 {
		t.Fatalf("zero-interference makespan %v, want %v", end2, noInterference)
	}
}

func TestAggregateScalingThenSaturation(t *testing.T) {
	// Total time for clients spread over all OSTs: doubling clients on
	// distinct OSTs up to NumOSTs should not increase makespan; far beyond
	// it, makespan grows.
	p := testParams()
	run := func(clients int) float64 {
		sim := des.New()
		fs := New(sim, p)
		for c := 0; c < clients; c++ {
			fs.ReadSequential(c, 100, nil)
		}
		return sim.Run()
	}
	if t4, t1 := run(4), run(1); t4 > t1+1e-9 {
		t.Fatalf("4 clients on 4 OSTs (%v) slower than 1 (%v)", t4, t1)
	}
	if t32, t4 := run(32), run(4); t32 <= t4 {
		t.Fatalf("32 clients (%v) should exceed 4 clients (%v)", t32, t4)
	}
}

func TestOSTForNegativeAndModulo(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	if fs.OSTFor(5) != 1 || fs.OSTFor(-5) != 1 {
		t.Fatalf("OSTFor mapping wrong: %d %d", fs.OSTFor(5), fs.OSTFor(-5))
	}
}

func TestNegativeReadPanics(t *testing.T) {
	sim := des.New()
	fs := New(sim, testParams())
	defer func() {
		if recover() == nil {
			t.Fatal("negative byte count must panic")
		}
	}()
	fs.ReadSequential(0, -1, nil)
}
