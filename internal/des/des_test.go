package des

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	end := s.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("order = %v", order)
	}
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []string
	s.At(5, func() { order = append(order, "a") })
	s.At(5, func() { order = append(order, "b") })
	s.At(5, func() { order = append(order, "c") })
	s.Run()
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	s.At(1, func() {
		times = append(times, s.Now())
		s.At(s.Now()+2, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if !reflect.DeepEqual(times, []float64{1, 3}) {
		t.Fatalf("times = %v", times)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past must panic")
		}
	}()
	s.At(5, func() {})
}

func TestServerSingleChannelFIFO(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	var spans [][2]float64
	for i := 0; i < 3; i++ {
		sv.Submit(10, func(start, end float64) { spans = append(spans, [2]float64{start, end}) })
	}
	s.Run()
	want := [][2]float64{{0, 10}, {10, 20}, {20, 30}}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %v", spans)
	}
}

func TestServerParallelChannels(t *testing.T) {
	s := New()
	sv := NewServer(s, 2)
	var ends []float64
	for i := 0; i < 4; i++ {
		sv.Submit(10, func(_, end float64) { ends = append(ends, end) })
	}
	s.Run()
	// Two channels: jobs finish at 10,10,20,20.
	if !reflect.DeepEqual(ends, []float64{10, 10, 20, 20}) {
		t.Fatalf("ends = %v", ends)
	}
}

func TestServerSubmitAfterIdle(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	var end2 float64
	sv.Submit(5, nil)
	s.At(100, func() {
		sv.Submit(5, func(start, end float64) {
			if start != 100 {
				t.Errorf("start = %v, want 100 (no service in idle gap)", start)
			}
			end2 = end
		})
	})
	s.Run()
	if end2 != 105 {
		t.Fatalf("end = %v, want 105", end2)
	}
}

func TestServerInFlight(t *testing.T) {
	s := New()
	sv := NewServer(s, 1)
	sv.Submit(10, nil)
	sv.Submit(10, nil)
	if sv.InFlight != 2 {
		t.Fatalf("InFlight = %d, want 2", sv.InFlight)
	}
	var between int
	s.At(15, func() { between = sv.InFlight })
	s.Run()
	if between != 1 {
		t.Fatalf("InFlight after first completion = %d, want 1", between)
	}
	if sv.InFlight != 0 {
		t.Fatalf("InFlight at end = %d", sv.InFlight)
	}
}

func TestServerCapacityValidation(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 must panic")
		}
	}()
	NewServer(s, 0)
}

// Property: with a single channel, total makespan equals the sum of service
// durations regardless of how submissions interleave with time.
func TestServerWorkConservationProperty(t *testing.T) {
	f := func(dursRaw []uint8) bool {
		s := New()
		sv := NewServer(s, 1)
		var total float64
		for _, d := range dursRaw {
			dur := float64(d)
			total += dur
			sv.Submit(dur, nil)
		}
		end := s.Run()
		return math.Abs(end-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Determinism: the same program produces the same trace twice.
func TestSimulationDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New()
		sv := NewServer(s, 3)
		var ends []float64
		for i := 0; i < 20; i++ {
			dur := float64((i*7)%5 + 1)
			s.At(float64(i%4), func() {
				sv.Submit(dur, func(_, end float64) { ends = append(ends, end) })
			})
		}
		s.Run()
		return ends
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(float64(j%17), func() {})
		}
		s.Run()
	}
}
