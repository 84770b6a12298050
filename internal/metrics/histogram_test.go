package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", b)
		}
	}
	for _, bad := range []func(){
		func() { ExpBuckets(0, 2, 4) },
		func() { ExpBuckets(1, 1, 4) },
		func() { ExpBuckets(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad layout must panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{-5, 0.5, 1, 1.5, 9, 50, 1000, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// NaN dropped; -5 and 0.5 and 1 in (≤1]; 1.5 and 9 in (1,10]; 50 in
	// (10,100]; 1000 in +Inf.
	wantCounts := []uint64{3, 2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket counts = %v, want %v", s.Counts, wantCounts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if got := s.Sum; math.Abs(got-(-5+0.5+1+1.5+9+50+1000)) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 1000 observations uniform over (0, 1]: quantile(q) ≈ q.
	h := NewHistogram(ExpBuckets(0.001, 1.3, 40))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		// Exponential buckets at factor 1.3 bound the relative error by
		// the bucket width.
		if got < q/1.3 || got > q*1.3 {
			t.Fatalf("quantile(%v) = %v, want within 1.3x", q, got)
		}
	}
	if p0 := s.Quantile(0); p0 < 0 || p0 > 0.01 {
		t.Fatalf("quantile(0) = %v", p0)
	}
	if m := s.Mean(); math.Abs(m-0.5005) > 1e-6 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram([]float64{1})
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram not zero-valued: %+v", s)
	}
}

func TestHistogramOverflowSaturates(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(1e9) // all in +Inf bucket
	}
	if got := h.Snapshot().Quantile(0.5); got != 2 {
		t.Fatalf("+Inf-bucket quantile = %v, want last bound 2", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	// Sum of 0..N-1 µs, exact in float64 at this size.
	n := float64(goroutines * per)
	if want := n * (n - 1) / 2 * 1e-6; math.Abs(s.Sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}
