package comm

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/parallel"
)

// runWithTimeout fails the test if the parallel section deadlocks.
func runWithTimeout(t *testing.T, w *World, fn func(c *Comm)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		w.Run(fn)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: world did not finish in 30s")
	}
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if !reflect.DeepEqual(got, []float32{1, 2, 3}) {
				t.Errorf("got %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			data := []float32{1, 2, 3}
			c.Send(1, 0, data)
			data[0] = 99 // must not affect the in-flight message
		} else {
			time.Sleep(10 * time.Millisecond)
			if got := c.Recv(0, 0); got[0] != 1 {
				t.Errorf("send aliased caller buffer: got %v", got)
			}
		}
	})
}

func TestNonOvertakingOrder(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []float32{float32(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				got := c.Recv(0, 3)
				if got[0] != float32(i) {
					t.Errorf("message %d arrived as %v", i, got)
					return
				}
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float32{5})
			c.Send(1, 4, []float32{4})
		} else {
			// Receive in the opposite order of sending.
			if got := c.Recv(0, 4); got[0] != 4 {
				t.Errorf("tag 4 got %v", got)
			}
			if got := c.Recv(0, 5); got[0] != 5 {
				t.Errorf("tag 5 got %v", got)
			}
		}
	})
}

func TestBytesAndFloatsSeparateTypes(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendBytes(1, 1, []byte("hello"))
			c.Send(1, 2, []float32{42})
		} else {
			if got := string(c.RecvBytes(0, 1)); got != "hello" {
				t.Errorf("bytes got %q", got)
			}
			if got := c.Recv(0, 2); got[0] != 42 {
				t.Errorf("floats got %v", got)
			}
		}
	})
}

func TestSendrecvSymmetricExchangeNoDeadlock(t *testing.T) {
	// The LTFB pattern: both partners send then receive with the same tag.
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		peer := 1 - c.Rank()
		gotB := c.SendrecvBytes(peer, []byte{byte(c.Rank())}, peer, 14)
		if gotB[0] != byte(peer) {
			t.Errorf("rank %d bytes got %v", c.Rank(), gotB)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(4)
	var before, after int32
	runWithTimeout(t, w, func(c *Comm) {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if v := atomic.LoadInt32(&before); v != 4 {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), v)
		}
		atomic.AddInt32(&after, 1)
		c.Barrier()
		if v := atomic.LoadInt32(&after); v != 4 {
			t.Errorf("second barrier leaked: %d", v)
		}
	})
}

func TestAllreduceSumMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, m := range []int{1, 3, 16, 100} {
			w := NewWorld(n)
			rng := rand.New(rand.NewSource(int64(n*1000 + m)))
			inputs := make([][]float32, n)
			want := make([]float32, m)
			for r := range inputs {
				inputs[r] = make([]float32, m)
				for i := range inputs[r] {
					inputs[r][i] = float32(rng.NormFloat64())
					want[i] += inputs[r][i]
				}
			}
			results := make([][]float32, n)
			runWithTimeout(t, w, func(c *Comm) {
				buf := append([]float32(nil), inputs[c.Rank()]...)
				c.AllreduceSum(buf)
				results[c.Rank()] = buf
			})
			for r := 0; r < n; r++ {
				for i := range want {
					d := results[r][i] - want[i]
					if d < 0 {
						d = -d
					}
					if d > 1e-4 {
						t.Fatalf("n=%d m=%d rank %d elem %d: got %v want %v", n, m, r, i, results[r][i], want[i])
					}
				}
			}
			// Bitwise identity across ranks (critical for replica consistency).
			for r := 1; r < n; r++ {
				if !reflect.DeepEqual(results[0], results[r]) {
					t.Fatalf("n=%d m=%d: rank %d result differs bitwise from rank 0", n, m, r)
				}
			}
		}
	}
}

func TestAllreduceNaiveMatchesRing(t *testing.T) {
	const n, m = 5, 37
	w := NewWorld(n)
	rng := rand.New(rand.NewSource(77))
	inputs := make([][]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, m)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.NormFloat64())
		}
	}
	ring := make([][]float32, n)
	naive := make([][]float32, n)
	runWithTimeout(t, w, func(c *Comm) {
		buf := append([]float32(nil), inputs[c.Rank()]...)
		c.AllreduceSum(buf)
		ring[c.Rank()] = buf
		buf2 := append([]float32(nil), inputs[c.Rank()]...)
		c.AllreduceSumNaive(buf2)
		naive[c.Rank()] = buf2
	})
	for r := 0; r < n; r++ {
		for i := 0; i < m; i++ {
			d := ring[r][i] - naive[r][i]
			if d < 0 {
				d = -d
			}
			if d > 1e-4 {
				t.Fatalf("rank %d elem %d: ring %v vs naive %v", r, i, ring[r][i], naive[r][i])
			}
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root++ {
			w := NewWorld(n)
			results := make([][]byte, n)
			runWithTimeout(t, w, func(c *Comm) {
				buf := make([]byte, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = byte(10*root + i)
					}
				}
				c.BcastBytes(root, buf)
				results[c.Rank()] = buf
			})
			for r := 0; r < n; r++ {
				for i := 0; i < 4; i++ {
					if results[r][i] != byte(10*root+i) {
						t.Fatalf("n=%d root=%d rank=%d: got %v", n, root, r, results[r])
					}
				}
			}
		}
	}
}

func TestBcastBytes(t *testing.T) {
	w := NewWorld(6)
	results := make([][]byte, 6)
	runWithTimeout(t, w, func(c *Comm) {
		buf := make([]byte, 5)
		if c.Rank() == 2 {
			copy(buf, "model")
		}
		c.BcastBytes(2, buf)
		results[c.Rank()] = buf
	})
	for r, got := range results {
		if string(got) != "model" {
			t.Fatalf("rank %d got %q", r, got)
		}
	}
}

func TestAllgatherFloat64(t *testing.T) {
	w := NewWorld(5)
	runWithTimeout(t, w, func(c *Comm) {
		vals := c.AllgatherFloat64(float64(c.Rank()) * 1.5)
		for r, v := range vals {
			if v != float64(r)*1.5 {
				t.Errorf("rank %d: vals[%d] = %v", c.Rank(), r, v)
			}
		}
	})
}

func TestSplitSemantics(t *testing.T) {
	// 6 ranks → colors {0,1} by parity; keys reverse the order within color.
	w := NewWorld(6)
	type res struct {
		size, rank, global int
	}
	results := make([]res, 6)
	runWithTimeout(t, w, func(c *Comm) {
		color := c.Rank() % 2
		key := -c.Rank() // reversed order
		sub := c.Split(color, key)
		results[c.Rank()] = res{size: sub.Size(), rank: sub.Rank(), global: sub.group[sub.Rank()]}
		// The sub-communicator must be fully functional.
		buf := []float32{1}
		sub.AllreduceSum(buf)
		if buf[0] != 3 {
			t.Errorf("rank %d: sub allreduce got %v, want 3", c.Rank(), buf[0])
		}
	})
	for g, r := range results {
		if r.size != 3 {
			t.Fatalf("rank %d sub size %d", g, r.size)
		}
		if r.global != g {
			t.Fatalf("rank %d global mapping broken: %d", g, r.global)
		}
	}
	// Keys were negated ranks, so the highest global rank gets local rank 0.
	if results[4].rank != 0 || results[0].rank != 2 {
		t.Fatalf("key ordering wrong: %+v", results)
	}
}

func TestSplitThenWorldStillWorks(t *testing.T) {
	w := NewWorld(4)
	runWithTimeout(t, w, func(c *Comm) {
		sub := c.Split(c.Rank()/2, 0)
		buf := []float32{1}
		sub.AllreduceSum(buf)
		c.Barrier()
		buf2 := []float32{1}
		c.AllreduceSum(buf2)
		if buf2[0] != 4 {
			t.Errorf("world allreduce after split got %v", buf2[0])
		}
	})
}

// Property: ring allreduce sums match float64 serial reduction within
// float32 tolerance for arbitrary rank counts and payloads.
func TestAllreduceProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%6) + 1
		m := int(mRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float32, n)
		want := make([]float64, m)
		for r := range inputs {
			inputs[r] = make([]float32, m)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Float64()*2 - 1)
				want[i] += float64(inputs[r][i])
			}
		}
		w := NewWorld(n)
		results := make([][]float32, n)
		w.Run(func(c *Comm) {
			buf := append([]float32(nil), inputs[c.Rank()]...)
			c.AllreduceSum(buf)
			results[c.Rank()] = buf
		})
		for r := 0; r < n; r++ {
			for i := 0; i < m; i++ {
				d := float64(results[r][i]) - want[i]
				if d < 0 {
					d = -d
				}
				if d > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSegBoundsPartition(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		m := int(mRaw)
		n := int(nRaw%16) + 1
		prev := 0
		for i := 0; i < n; i++ {
			lo, hi := segBounds(m, n, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUserTagValidation(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("negative user tag must panic")
			}
		}()
		c.Send(1, -5, []float32{1})
	})
}

func TestWorldRunPropagatesPanic(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Run must propagate rank panics")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

// TestPanickingRankAbortsItsPeers: a rank that panics will never send what
// its peers are blocked waiting for — in a ring step, at a barrier, in a
// receive — so Run wakes them, and returns promptly with the panic of the rank
// that failed first, not with one of the aborts it caused. (At the parent of
// PR 22 the peers waited for ever and so did Run.)
func TestPanickingRankAbortsItsPeers(t *testing.T) {
	blocked := map[string]func(c *Comm){
		"allreduce": func(c *Comm) { c.AllreduceSum(make([]float32, 64)) },
		"barrier":   func(c *Comm) { c.Barrier() },
		"irecv":     func(c *Comm) { c.Recv((c.Rank()+1)%c.Size(), 7) }, // a blocked Recv; the row's name is its test ID

		"split": func(c *Comm) { c.Split(c.Rank()%2, 0).Barrier() },
	}
	for name, wait := range blocked {
		t.Run(name, func(t *testing.T) {
			got := make(chan any, 1)
			start := time.Now()
			go func() {
				defer func() { got <- recover() }()
				NewWorld(4).Run(func(c *Comm) {
					c.AllreduceSum(make([]float32, 8)) // the world works before the fault
					if c.Rank() == 2 {
						panic("rank two is out of memory")
					}
					wait(c)
				})
			}()
			select {
			case p := <-got:
				if msg, _ := p.(string); msg != "comm: rank 2 panicked: rank two is out of memory" {
					t.Fatalf("Run panicked with %v, want rank 2's panic", p)
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("Run took %v to report the panic", d)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Run hangs: the panicking rank's peers were not woken")
			}
		})
	}
}

// TestAbortEndsTheWorld: a rank that cannot go on calls Abort and returns;
// its peers, waiting for it in a receive, a barrier or an allgather, are
// released, and Run returns the aborting rank's error (not a panic) in good
// time, with the ranks' share of the cores given back.
func TestAbortEndsTheWorld(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	errFull := errors.New("rank two's disk is full")
	got := make(chan error, 1)
	start := time.Now()
	go func() {
		got <- NewWorld(4).Run(func(c *Comm) {
			c.AllreduceSum(make([]float32, 8)) // the world works before the fault
			switch c.Rank() {
			case 0:
				c.Recv(2, 7)
			case 1:
				c.Barrier()
			case 2:
				c.Abort(errFull)
				return
			case 3:
				c.AllgatherFloat64(1) // meets rank 1's barrier; neither completes without rank 2
			}
			t.Errorf("rank %d went on past a rank that aborted", c.Rank())
		})
	}()
	select {
	case err := <-got:
		if err != errFull {
			t.Fatalf("Run returned %v, want rank 2's error", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Run took %v to return the abort", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hangs: the aborting rank's peers were not woken")
	}
	if got := parallel.Workers(); got != 2 {
		t.Fatalf("Workers() = %d after an aborted world returned, want GOMAXPROCS = 2", got)
	}
}

// TestWorldSharesWorkers: for as long as a World runs, its ranks count as
// sharing the process's Ps, so a rank's parallel loops get GOMAXPROCS/ranks
// workers — one, when the ranks fill the cores. Worlds running side by side
// add up; the share is returned when Run returns, by panic too.
func TestWorldSharesWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	inside := func(ranks int) []int {
		seen := make([]int, ranks)
		NewWorld(ranks).Run(func(c *Comm) {
			c.Barrier() // every rank is running
			seen[c.Rank()] = parallel.Workers()
			c.Barrier()
		})
		return seen
	}
	if got := parallel.Workers(); got != 2 {
		t.Fatalf("Workers() = %d outside any world, want GOMAXPROCS = 2", got)
	}
	if got := inside(4); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Fatalf("Workers() inside a 4-rank world on 2 Ps = %v, want 1 everywhere", got)
	}
	if got := inside(1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("Workers() inside a 1-rank world on 2 Ps = %v, want 2", got)
	}
	runtime.GOMAXPROCS(8)
	if got := inside(2); !reflect.DeepEqual(got, []int{4, 4}) {
		t.Fatalf("Workers() inside a 2-rank world on 8 Ps = %v, want 4", got)
	}
	// Two worlds of two ranks at once are four ranks.
	var both [2][]int
	var wg sync.WaitGroup
	var running, read sync.WaitGroup
	running.Add(4)
	read.Add(4)
	for i := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[i] = make([]int, 2)
			NewWorld(2).Run(func(c *Comm) {
				running.Done()
				running.Wait() // all four ranks of both worlds are inside Run
				both[i][c.Rank()] = parallel.Workers()
				read.Done()
				read.Wait() // and stay there until all four have looked
			})
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(both, [2][]int{{2, 2}, {2, 2}}) {
		t.Fatalf("Workers() inside two concurrent 2-rank worlds on 8 Ps = %v, want 2 everywhere", both)
	}
	func() {
		defer func() { _ = recover() }()
		NewWorld(3).Run(func(c *Comm) { panic("boom") })
	}()
	if got := parallel.Workers(); got != 8 {
		t.Fatalf("Workers() = %d after every world returned, one by panic; want 8", got)
	}
}

func BenchmarkAllreduceRing8(b *testing.B)  { benchAllreduce(b, 8, 1<<14, false) }
func BenchmarkAllreduceNaive8(b *testing.B) { benchAllreduce(b, 8, 1<<14, true) }

func benchAllreduce(b *testing.B, n, m int, naive bool) {
	w := NewWorld(n)
	b.SetBytes(int64(4 * m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			buf := make([]float32, m)
			if naive {
				c.AllreduceSumNaive(buf)
			} else {
				c.AllreduceSum(buf)
			}
		})
	}
}

func TestNestedSplit(t *testing.T) {
	// Split twice: 8 ranks -> 2 groups of 4 -> 4 groups of 2; all levels
	// remain functional.
	w := NewWorld(8)
	runWithTimeout(t, w, func(c *Comm) {
		half := c.Split(c.Rank()/4, 0)
		quarter := half.Split(half.Rank()/2, 0)
		if quarter.Size() != 2 {
			t.Errorf("nested split size = %d", quarter.Size())
			return
		}
		buf := []float32{1}
		quarter.AllreduceSum(buf)
		if buf[0] != 2 {
			t.Errorf("nested allreduce = %v", buf[0])
		}
		buf2 := []float32{1}
		half.AllreduceSum(buf2)
		if buf2[0] != 4 {
			t.Errorf("mid-level allreduce = %v", buf2[0])
		}
		vals := quarter.AllgatherFloat64(float64(quarter.Rank()))
		if len(vals) != 2 || vals[0] != 0 || vals[1] != 1 {
			t.Errorf("nested allgather = %v", vals)
		}
	})
}

func TestSendToSelf(t *testing.T) {
	w := NewWorld(2)
	runWithTimeout(t, w, func(c *Comm) {
		c.Send(c.Rank(), 5, []float32{float32(c.Rank())})
		got := c.Recv(c.Rank(), 5)
		if got[0] != float32(c.Rank()) {
			t.Errorf("self-send got %v", got)
		}
	})
}
