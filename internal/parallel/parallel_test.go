package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	const n = 1000
	var marks [n]int32
	For(0, n, 7, func(start, end int) {
		for i := start; i < end; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, m)
		}
	}
}

func TestForEmptyRange(t *testing.T) {
	called := false
	For(5, 5, 1, func(start, end int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
	For(9, 3, 1, func(start, end int) { called = true })
	if called {
		t.Fatal("fn called for inverted range")
	}
}

func TestForSmallRangeRunsInline(t *testing.T) {
	var calls int32
	For(0, 3, 100, func(start, end int) {
		atomic.AddInt32(&calls, 1)
		if start != 0 || end != 3 {
			t.Errorf("got sub-range [%d,%d), want [0,3)", start, end)
		}
	})
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

func TestForNonPositiveGrain(t *testing.T) {
	var sum int64
	For(0, 100, 0, func(start, end int) {
		var local int64
		for i := start; i < end; i++ {
			local += int64(i)
		}
		atomic.AddInt64(&sum, local)
	})
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

// Property: for any range offset and size, every index is visited exactly once
// regardless of grain.
func TestForPartitionProperty(t *testing.T) {
	f := func(loRaw, nRaw, grainRaw uint8) bool {
		lo := int(loRaw)
		n := int(nRaw)
		grain := int(grainRaw)
		hi := lo + n
		visited := make([]int32, n)
		For(lo, hi, grain, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&visited[i-lo], 1)
			}
		})
		for _, v := range visited {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	sink := make([]float32, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(0, len(sink), 1024, func(start, end int) {
			for j := start; j < end; j++ {
				sink[j] += 1
			}
		})
	}
}

// TestWorkersIsTheRanksShare: Workers is GOMAXPROCS divided among the ranks
// AddRanks has been told of, rounded down and never below one, and For forks
// accordingly.
func TestWorkersIsTheRanksShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct{ ranks, want int }{{0, 8}, {1, 8}, {2, 4}, {3, 2}, {8, 1}, {20, 1}} {
		AddRanks(c.ranks)
		got := Workers()
		var chunks atomic.Int32
		For(0, 64, 1, func(start, end int) { chunks.Add(1) })
		AddRanks(-c.ranks)
		if got != c.want || int(chunks.Load()) != c.want {
			t.Fatalf("%d ranks on 8 Ps: Workers() = %d, For ran %d chunks, want %d", c.ranks, got, chunks.Load(), c.want)
		}
	}
}

// TestYieldReturns: Yield comes back, from many goroutines at once. Each
// caller's byte may be read by another caller, but every caller writes one and
// reads one, so none waits for ever.
func TestYieldReturns(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Yield()
			}
		}()
	}
	wg.Wait()
}
