package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/tensor"
)

// testModelCfg is a tiny architecture that predicts instantly.
func testModelCfg() cyclegan.Config {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{16}
	cfg.ForwardHidden = []int{8}
	cfg.InverseHidden = []int{8}
	cfg.DiscHidden = []int{8}
	return cfg
}

// newTestServer builds a single-replica server over a fresh surrogate.
func newTestServer(t *testing.T, cfg Config) (*Server, *cyclegan.Surrogate) {
	t.Helper()
	model := cyclegan.New(testModelCfg(), 42)
	pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, cfg)
	t.Cleanup(s.Close)
	return s, model
}

// predict submits one row to the predict method at Interactive priority
// with no deadline — the shape most pipeline tests drive.
func predict(s *Server, x []float32) ([]float32, error) {
	return s.Call(context.Background(), MethodPredict, x, Interactive)
}

// newSpinServer starts a server over a spinModel (probe_test.go) whose
// every pass costs pass: the kernel-launch / accelerator-RPC overhead a
// production deployment pays once per batch, spent busy, as a launch is.
// spinRow is a valid input to it.
func newSpinServer(t *testing.T, pass time.Duration, cfg Config) *Server {
	t.Helper()
	s := NewServer(&spinModel{passCost: pass}, cfg)
	t.Cleanup(s.Close)
	return s
}

func spinRow(i int) []float32 { return []float32{float32(i), 0, 0} }

// testInput returns a deterministic in-cube input distinct per i.
func testInput(i int) []float32 {
	x := make([]float32, jag.InputDim)
	for d := range x {
		x[d] = float32((i*7+d*13)%101) / 101
	}
	return x
}

// TestPredictMatchesModel checks that a served prediction equals a
// direct forward pass of an identically-seeded reference model. With
// MaxBatch 1 the served batch has the same shape as the reference
// batch, so equality is bitwise.
func TestPredictMatchesModel(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 1})
	ref := cyclegan.New(testModelCfg(), 42)

	x := testInput(3)
	got, err := predict(s, x)
	if err != nil {
		t.Fatal(err)
	}
	xm := tensor.New(1, jag.InputDim)
	copy(xm.Row(0), x)
	want := ref.Predict(xm)
	if len(got) != want.Cols {
		t.Fatalf("output dim %d, want %d", len(got), want.Cols)
	}
	for j, v := range got {
		if v != want.At(0, j) {
			t.Fatalf("output[%d] = %v, want %v", j, v, want.At(0, j))
		}
	}
}

// TestCallInvert checks that the invert method is dispatched to the
// model's inverse pass: with MaxBatch 1 the served row is bitwise equal
// to a direct G(F(x)) pass of an identically-seeded reference model.
func TestCallInvert(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 1})
	ref := cyclegan.New(testModelCfg(), 42)

	x := testInput(4)
	got, err := s.Call(context.Background(), MethodInvert, x, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != jag.InputDim {
		t.Fatalf("invert output dim %d, want %d", len(got), jag.InputDim)
	}
	xm := tensor.New(1, jag.InputDim)
	copy(xm.Row(0), x)
	want := ref.Invert(xm)
	for j, v := range got {
		if v != want.At(0, j) {
			t.Fatalf("invert[%d] = %v, want %v", j, v, want.At(0, j))
		}
	}
}

// TestCallUnknownMethod checks admission-time method validation.
func TestCallUnknownMethod(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.Call(context.Background(), "embed", testInput(0), Interactive); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method error = %v, want ErrUnknownMethod", err)
	}
}

// TestMethodsNeverShareBatch floods predict and invert concurrently
// with MaxBatch far above the row count: every reply must have its own
// method's width (a mixed batch would scatter rows of the wrong shape)
// and the per-method stats must account for both streams.
func TestMethodsNeverShareBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 64, MaxDelay: time.Millisecond})
	outDim := jag.Tiny8.OutputDim()

	const per = 24
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, err := predict(s, testInput(i))
			if err != nil {
				t.Error(err)
				return
			}
			if len(y) != outDim {
				t.Errorf("predict row width %d, want %d", len(y), outDim)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, err := s.Call(context.Background(), MethodInvert, testInput(i), Interactive)
			if err != nil {
				t.Error(err)
				return
			}
			if len(y) != jag.InputDim {
				t.Errorf("invert row width %d, want %d", len(y), jag.InputDim)
			}
		}(i)
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Requests != 2*per {
		t.Fatalf("requests = %d, want %d", snap.Requests, 2*per)
	}
	if snap.MethodRequests[MethodPredict] != per || snap.MethodRequests[MethodInvert] != per {
		t.Fatalf("method split = %+v, want %d each", snap.MethodRequests, per)
	}
}

// TestInvertCacheIsolated pins the method prefix in cache keys: the
// same design point served through predict and invert must produce two
// distinct cache entries, never one method's answer for the other.
func TestInvertCacheIsolated(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 1, CacheSize: 8})
	x := testInput(6)
	fwd, err := predict(s, x)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := s.Call(context.Background(), MethodInvert, x, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd) == len(inv) {
		t.Fatalf("test geometry degenerate: predict and invert widths both %d", len(fwd))
	}
	inv2, err := s.Call(context.Background(), MethodInvert, x, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv2) != len(inv) {
		t.Fatal("cached invert row has the wrong method's width")
	}
	snap := s.Stats()
	if snap.CacheMisses != 2 || snap.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", snap.CacheHits, snap.CacheMisses)
	}
}

// failingModel is a non-Pool Model whose forward pass always errors —
// it exercises both the custom-Model path (worker count defaults to 1
// without a Replicas method) and the ErrModelFailure plumbing.
type failingModel struct{}

func (failingModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 2, Out: 3}}
}

func (failingModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	return nil, errors.New("synthetic pass failure")
}

// TestModelFailure checks that a Run error fails the batch's rows with
// ErrModelFailure — and is visible in the stats, so a failing model
// cannot masquerade as an idle one.
func TestModelFailure(t *testing.T) {
	s := NewServer(failingModel{}, Config{MaxBatch: 1})
	t.Cleanup(s.Close)
	_, err := predict(s, []float32{0.1, 0.2})
	if !errors.Is(err, ErrModelFailure) {
		t.Fatalf("Call error = %v, want ErrModelFailure", err)
	}
	snap := s.Stats()
	if snap.ModelFailures != 1 {
		t.Fatalf("model failures = %d, want 1", snap.ModelFailures)
	}
	if snap.Requests != 0 {
		t.Fatalf("failed row counted as a served request: %+v", snap)
	}
}

// TestFlushOnFull submits exactly MaxBatch concurrent requests under a
// long deadline: the batch must flush on occupancy, in one forward pass.
func TestFlushOnFull(t *testing.T) {
	const n = 8
	s, _ := newTestServer(t, Config{MaxBatch: n, MaxDelay: time.Minute})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := predict(s, testInput(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Requests != n {
		t.Fatalf("requests = %d, want %d", snap.Requests, n)
	}
	if snap.Batches != 1 || snap.MeanBatch != n {
		t.Fatalf("batches = %d (mean %v), want 1 full batch of %d",
			snap.Batches, snap.MeanBatch, n)
	}
}

// TestFlushOnDeadline submits fewer requests than MaxBatch: the partial
// batch must flush once MaxDelay elapses rather than waiting forever.
func TestFlushOnDeadline(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 64, MaxDelay: 5 * time.Millisecond})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := predict(s, testInput(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Requests != 3 {
		t.Fatalf("requests = %d, want 3", snap.Requests)
	}
	if snap.MaxBatch > 3 {
		t.Fatalf("max batch = %v, want <= 3", snap.MaxBatch)
	}
}

// TestBackpressure fills QueueDepth with requests parked behind a long
// flush deadline, then checks that the next caller fails fast with
// ErrOverloaded and that the parked requests still complete.
func TestBackpressure(t *testing.T) {
	const depth = 4
	s, _ := newTestServer(t, Config{
		MaxBatch:   64,
		MaxDelay:   300 * time.Millisecond,
		QueueDepth: depth,
	})

	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := predict(s, testInput(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Wait until all depth requests are in flight.
	deadline := time.Now().Add(2 * time.Second)
	for s.inflight.Load() < depth {
		if time.Now().After(deadline) {
			t.Fatal("requests never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := predict(s, testInput(99)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Predict error = %v, want ErrOverloaded", err)
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Overloads != 1 {
		t.Fatalf("overloads = %d, want 1", snap.Overloads)
	}
	if snap.Requests != depth {
		t.Fatalf("requests = %d, want %d", snap.Requests, depth)
	}
}

// TestConcurrentStress hammers the queue from many goroutines and
// verifies every response against an identically-seeded reference model
// (tolerance-based: batch shape affects nothing but is kept loose in
// case kernel blocking ever becomes shape-dependent).
func TestConcurrentStress(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 16, MaxDelay: time.Millisecond})
	// The reference model is shared across checker goroutines and
	// nn.Network is not concurrency-safe, so serialize its use.
	ref := cyclegan.New(testModelCfg(), 42)
	var refMu sync.Mutex

	const goroutines, perG = 32, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				x := testInput(g*perG + k)
				got, err := predict(s, x)
				if err != nil {
					t.Error(err)
					return
				}
				xm := tensor.New(1, jag.InputDim)
				copy(xm.Row(0), x)
				refMu.Lock()
				want := ref.Predict(xm)
				refMu.Unlock()
				for j, v := range got {
					d := v - want.At(0, j)
					if d < 0 {
						d = -d
					}
					if d > 1e-5 {
						t.Errorf("req %d output[%d] = %v, want %v", g*perG+k, j, v, want.At(0, j))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	snap := s.Stats()
	if snap.Requests != goroutines*perG {
		t.Fatalf("requests = %d, want %d", snap.Requests, goroutines*perG)
	}
	if snap.MeanBatch <= 1 && snap.Batches == goroutines*perG {
		t.Log("warning: no coalescing observed under stress (timing-dependent)")
	}
}

// TestPassOverheadLatency checks that a pass's dispatch overhead is paid
// once per batch and shows up in the latency meter.
func TestPassOverheadLatency(t *testing.T) {
	s := newSpinServer(t, 500*time.Microsecond, Config{MaxBatch: 4, MaxDelay: time.Minute})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := predict(s, spinRow(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	snap := s.Stats()
	if snap.Batches != 1 {
		t.Fatalf("batches = %d, want 1", snap.Batches)
	}
	if snap.MeanLatMs < 0.3 {
		t.Fatalf("mean latency %.3fms, want >= 0.3ms of modeled overhead", snap.MeanLatMs)
	}
}

// TestCacheAccounting checks hit/miss counters and that a cache hit
// returns the same prediction without another forward pass.
func TestCacheAccounting(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 1, CacheSize: 8})

	x := testInput(5)
	first, err := predict(s, x)
	if err != nil {
		t.Fatal(err)
	}
	second, err := predict(s, x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first {
		if first[j] != second[j] {
			t.Fatalf("cached output differs at %d", j)
		}
	}

	snap := s.Stats()
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.Requests != 1 {
		t.Fatalf("model requests = %d, want 1 (second served from cache)", snap.Requests)
	}
}

// TestBulkLaneIsLookupOnly pins the cache's admission rule: both lanes
// look the cache up, only Interactive rows enter it. A bulk sweep of
// fresh rows therefore neither grows the cache nor evicts what the
// interactive lane put there, a bulk row that repeats is a miss every
// time, a bulk lookup of a row the interactive lane admitted is a hit,
// and among interactive rows admission and LRU eviction work as they
// always did.
func TestBulkLaneIsLookupOnly(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 1, CacheSize: 2})
	ctx := context.Background()
	call := func(i int, class Priority) Trace {
		t.Helper()
		_, tr, err := s.CallTrace(ctx, MethodPredict, testInput(i), class)
		if err != nil {
			t.Fatalf("row %d on %v: %v", i, class, err)
		}
		return tr
	}
	holds := func(step string, entries int, hits, misses int64) {
		t.Helper()
		snap := s.Stats()
		wantBytes := int64(entries) * int64(s.Dims()[MethodPredict].Out) * 4
		if snap.CacheEntries != entries || snap.CacheBytes != wantBytes || snap.CacheHits != hits || snap.CacheMisses != misses {
			t.Fatalf("%s: cache holds %d entries / %d bytes after %d hits / %d misses; want %d / %d after %d / %d",
				step, snap.CacheEntries, snap.CacheBytes, snap.CacheHits, snap.CacheMisses, entries, wantBytes, hits, misses)
		}
	}
	const a, b, f = 1, 2, 3

	call(a, Interactive)
	call(b, Interactive)
	holds("two interactive rows", 2, 0, 2)

	// A sweep several times the cache's size, then the same sweep
	// again: every row is a counted miss, none is admitted.
	for pass := 0; pass < 2; pass++ {
		for i := 10; i < 16; i++ {
			if call(i, Bulk).CacheHit {
				t.Fatalf("pass %d: bulk row %d was served from the cache", pass, i)
			}
		}
	}
	holds("after the sweep", 2, 0, 14)

	// The interactive rows survived it, and the bulk lane is served
	// from them too. (Recency after these three: a, then b.)
	if !call(b, Interactive).CacheHit || !call(a, Bulk).CacheHit {
		t.Fatal("a row the interactive lane admitted was evicted by the bulk sweep")
	}
	holds("after the lookups", 2, 2, 14)

	// Interactive admission still evicts the least recently used row,
	// and a bulk hit counts as a use.
	call(f, Interactive)
	holds("a third interactive row", 2, 2, 15)
	if !call(a, Interactive).CacheHit || !call(f, Interactive).CacheHit {
		t.Fatal("the most recently used rows were evicted")
	}
	if call(b, Interactive).CacheHit {
		t.Fatal("the least recently used row survived a full cache")
	}
}

// TestLanesShareCacheUnderLoad sweeps fresh bulk rows while interactive
// clients revisit a few design points, for the race detector and for
// the rule's arithmetic under concurrency: when the dust settles the
// cache holds exactly the interactive design points, however many bulk
// rows went by.
func TestLanesShareCacheUnderLoad(t *testing.T) {
	s := NewServer(&scriptedModel{}, Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, CacheSize: 64})
	t.Cleanup(s.Close)
	const points, sweepers, perSweeper = 8, 2, 300
	var wg sync.WaitGroup
	for c := 0; c < sweepers; c++ {
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perSweeper; i++ {
				if _, err := s.Call(context.Background(), MethodPredict, []float32{float32(1000 + c), float32(i)}, Bulk); err != nil {
					t.Errorf("bulk client %d row %d: %v", c, i, err)
					return
				}
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perSweeper; i++ {
				y, err := s.Call(context.Background(), MethodPredict, []float32{0.5, float32(i % points)}, Interactive)
				if err != nil || y[1] != float32(i%points) {
					t.Errorf("interactive client %d row %d: %v, %v", c, i, y, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	snap := s.Stats()
	if snap.CacheEntries != points || snap.CacheBytes != points*2*4 {
		t.Fatalf("cache holds %d entries / %d bytes, want the %d interactive design points / %d bytes",
			snap.CacheEntries, snap.CacheBytes, points, points*2*4)
	}
	if lookups := snap.CacheHits + snap.CacheMisses; lookups != 2*sweepers*perSweeper {
		t.Fatalf("%d hits + %d misses, want %d lookups", snap.CacheHits, snap.CacheMisses, 2*sweepers*perSweeper)
	}
	if bulk := snap.LaneRequests[MethodPredict]["bulk"]; bulk != sweepers*perSweeper {
		t.Fatalf("%d bulk rows ran the model, want every one of %d (none can hit)", bulk, sweepers*perSweeper)
	}
}

// TestPredictAfterClose checks the ErrClosed path.
func TestPredictAfterClose(t *testing.T) {
	model := cyclegan.New(testModelCfg(), 1)
	pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(pool, Config{})
	s.Close()
	s.Close() // idempotent
	if _, err := predict(s, testInput(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
}

// TestExpiredRowDroppedAtFlush parks one request behind a long flush
// deadline with a context that expires first: the caller must get
// ErrExpired, and the worker that takes the stale row when its window
// ends must discard it without a forward pass — visible as expired=1
// with zero requests and batches.
func TestExpiredRowDroppedAtFlush(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 64, MaxDelay: 60 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.Call(ctx, MethodPredict, testInput(0), Interactive); !errors.Is(err, ErrExpired) {
		t.Fatalf("Call = %v, want ErrExpired", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Stats()
		if snap.Expired == 1 {
			if snap.Requests != 0 || snap.Batches != 0 {
				t.Fatalf("forward pass ran for an expired row: %+v", snap)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired row never dropped: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelledBeforeAdmission checks that a dead-on-arrival context is
// rejected at admission and counted in the cancelled bucket.
func TestCancelledBeforeAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Call(ctx, MethodPredict, testInput(1), Interactive); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Call = %v, want ErrCancelled", err)
	}
	snap := s.Stats()
	if snap.Cancelled != 1 || snap.Requests != 0 {
		t.Fatalf("cancelled/requests = %d/%d, want 1/0", snap.Cancelled, snap.Requests)
	}
}

// TestPriorityInteractiveFirst parks one bulk and one interactive request
// in their lanes behind a pass in progress, then checks the worker's next
// take is the interactive one. Sequencing uses queue introspection, not
// sleeps; the 250ms pass keeps the worker busy so the setup comfortably
// finishes inside it even under the race detector.
func TestPriorityInteractiveFirst(t *testing.T) {
	s := newSpinServer(t, 250*time.Millisecond, Config{MaxBatch: 1, MaxDelay: time.Millisecond, QueueDepth: 16})
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(name string, class Priority, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Call(context.Background(), MethodPredict, spinRow(i), class); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}()
	}

	// A occupies the single worker. Nothing leaves the lanes for the rest
	// of its pass, so C and D park there and the worker's next take must
	// be interactive D, not the bulk C that arrived first.
	submit("A", Bulk, 0)
	waitFor(t, "the worker to take A", func() bool { return s.Inflight() == 1 && queued(s) == 0 })
	submit("C", Bulk, 3)
	waitFor(t, "C to park in the bulk lane", func() bool { return s.LaneDepths()["bulk"] == 1 })
	submit("D", Interactive, 4)
	waitFor(t, "D to park in the interactive lane", func() bool { return s.LaneDepths()["interactive"] == 1 })
	wg.Wait()

	pos := make(map[string]int, len(order))
	for i, name := range order {
		pos[name] = i
	}
	if len(order) != 3 {
		t.Fatalf("completed %d requests, want 3 (%v)", len(order), order)
	}
	if pos["D"] > pos["C"] {
		t.Fatalf("bulk request served before interactive: %v", order)
	}
}

// TestCloseVsPredictRace hammers the queue-admission boundary from many
// goroutines while the server shuts down concurrently; run under -race.
// Every call must end with a definite outcome from the lifecycle
// vocabulary and Close must not hang on abandoned requests.
func TestCloseVsPredictRace(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		model := cyclegan.New(testModelCfg(), 42)
		pool, err := NewPool([]*cyclegan.Surrogate{model}, false)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(pool, Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond, QueueDepth: 8})

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					_, err := predict(s, testInput(g*4+k))
					if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrOverloaded) {
						t.Errorf("Predict during Close = %v", err)
					}
				}
			}(g)
		}
		s.Close()
		wg.Wait()

		if _, err := predict(s, testInput(0)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Predict after Close = %v, want ErrClosed", err)
		}
	}
}

// TestPredictPriorityInvalid rejects classes outside the lane set.
func TestPredictPriorityInvalid(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := s.Call(context.Background(), MethodPredict, testInput(0), Priority(9)); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

// TestParsePriority covers the wire names.
func TestParsePriority(t *testing.T) {
	for in, want := range map[string]Priority{
		"": Interactive, "interactive": Interactive, "Bulk": Bulk, "bulk": Bulk,
	} {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Fatal("unknown priority name accepted")
	}
	if Interactive.String() != "interactive" || Bulk.String() != "bulk" {
		t.Fatal("Priority.String mismatch")
	}
}

// TestPredictBadDim checks input validation.
func TestPredictBadDim(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if _, err := predict(s, []float32{1, 2}); err == nil {
		t.Fatal("short input accepted")
	}
	nan := float32(math.NaN())
	if _, err := predict(s, []float32{nan, 0, 0, 0, 0}); err == nil {
		t.Fatal("NaN input accepted")
	}
	inf := float32(math.Inf(1))
	if _, err := predict(s, []float32{0, inf, 0, 0, 0}); err == nil {
		t.Fatal("Inf input accepted")
	}
}
