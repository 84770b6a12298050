package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// Tests of the dispatch rule: a free worker takes what is due, and rows
// submitted together as a complete unit (as the HTTP handler submits a
// decoded request) are due at once, not after MaxDelay. Every server here
// that asserts the rule runs with MaxDelay: time.Minute, so a row that
// falls back to the window fails its test's unitTimeout instead of
// passing late; ordering is by gates and queue introspection, never by
// sleeping.

// unitTimeout bounds a unit that must not wait for the window.
const unitTimeout = 10 * time.Second

// submitUnit submits xs as one complete unit and returns the aligned
// per-row results.
func submitUnit(ctx context.Context, s *Server, method string, class Priority, xs [][]float32) ([][]float32, []Trace, []error) {
	ys := make([][]float32, len(xs))
	traces := make([]Trace, len(xs))
	errs := make([]error, len(xs))
	s.submit(ctx, method, class, true, xs, ys, traces, errs)
	return ys, traces, errs
}

// scriptedRows returns n scriptedModel rows whose first input — the id
// the model's pass log records — counts up from id.
func scriptedRows(id, n int) [][]float32 {
	xs := make([][]float32, n)
	for i := range xs {
		xs[i] = []float32{float32(id + i), 0.5}
	}
	return xs
}

// mustServe fails the test unless every row of a unit was served, and
// served as an echo of its input. (Errorf: units run on goroutines of
// their own.)
func mustServe(t *testing.T, what string, xs, ys [][]float32, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s row %d: %v", what, i, err)
		} else if len(ys[i]) != 2 || ys[i][0] != xs[i][0] {
			t.Errorf("%s row %d answered %v, want an echo of %v", what, i, ys[i], xs[i])
		}
	}
}

// goUnit submits n scriptedRows counting up from id as one complete unit
// from a goroutine of its own, which checks that every row was served.
func goUnit(t *testing.T, wg *sync.WaitGroup, s *Server, method string, class Priority, id, n int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
		defer cancel()
		xs := scriptedRows(id, n)
		ys, _, errs := submitUnit(ctx, s, method, class, xs)
		mustServe(t, fmt.Sprintf("%s %v unit %d", method, class, id), xs, ys, errs)
	}()
}

// waitFor polls cond, a read of server state the test cannot be told
// about any other way (a row reaching its lane, a worker taking it).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(unitTimeout); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// newScriptedServer starts a one-worker server over a scriptedModel that
// reports each pass it enters.
func newScriptedServer(t *testing.T, cfg Config) (*Server, *scriptedModel) {
	t.Helper()
	m := &scriptedModel{entered: make(chan struct{}, 4096)} // never blocks a pass
	s := NewServer(m, cfg)
	t.Cleanup(s.Close)
	return s, m
}

// holdWorker parks the server's single worker inside a forward pass of a
// one-row unit (id -1) and returns the function that lets it go and
// waits for that unit's reply. A test that wants the next pass held too
// stores its own gate before calling release.
func holdWorker(t *testing.T, s *Server, m *scriptedModel) (release func()) {
	t.Helper()
	for len(m.entered) > 0 { // passes already run
		<-m.entered
	}
	gate := make(chan struct{})
	m.gate.Store(&gate)
	held := make(chan error, 1)
	go func() {
		_, _, errs := submitUnit(context.Background(), s, MethodPredict, Interactive, scriptedRows(-1, 1))
		held <- errs[0]
	}()
	select {
	case <-m.entered:
	case <-time.After(unitTimeout):
		t.Fatal("the holding unit never reached the model")
	}
	return func() {
		t.Helper()
		m.gate.CompareAndSwap(&gate, nil)
		close(gate)
		if err := <-held; err != nil {
			t.Fatalf("holding unit: %v", err)
		}
	}
}

// queued is the number of rows waiting in s's lanes.
func queued(s *Server) (n int) {
	for _, depth := range s.LaneDepths() {
		n += depth
	}
	return n
}

// TestUnitDispatchedToIdleWorker is the rule itself: on an idle server a
// complete unit leaves at once as one batch of its own size, while a lone
// Call on the same server still waits for companions or the window.
func TestUnitDispatchedToIdleWorker(t *testing.T) {
	s, _ := newScriptedServer(t, Config{MaxBatch: 64, MaxDelay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	batches := 0
	for _, n := range []int{1, 16} {
		xs := scriptedRows(100*n, n)
		ys, traces, errs := submitUnit(ctx, s, MethodPredict, Interactive, xs)
		mustServe(t, "unit", xs, ys, errs)
		for i, tr := range traces {
			if tr.Batch != n {
				t.Fatalf("%d-row unit: row %d rode a batch of %d", n, i, tr.Batch)
			}
		}
		batches++
		if got := s.Stats().Batches; got != batches {
			t.Fatalf("after the %d-row unit: %d batches, want %d", n, got, batches)
		}
	}

	lone, cancelLone := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelLone()
	if _, err := s.Call(lone, MethodPredict, []float32{7, 0.5}, Interactive); !errors.Is(err, ErrExpired) {
		t.Fatalf("lone Call on an idle server = %v, want it still waiting for the window when its context expired", err)
	}
	if got := s.Stats().Batches; got != batches {
		t.Fatalf("the lone Call was dispatched: %d batches, want %d", got, batches)
	}
}

// TestUnitSplitsAtMaxBatch: a unit larger than MaxBatch becomes
// ceil(n/MaxBatch) batches of its own method's rows, and one larger than
// QueueDepth/2 is queued in chunks, so it never trips the backpressure it
// would itself be the only cause of.
func TestUnitSplitsAtMaxBatch(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 4, MaxDelay: time.Minute, QueueDepth: 64})
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	var other sync.WaitGroup
	goUnit(t, &other, s, MethodInvert, Interactive, 1000, 3)
	xs := scriptedRows(0, 10)
	ys, _, errs := submitUnit(ctx, s, MethodPredict, Interactive, xs)
	mustServe(t, "predict unit", xs, ys, errs)
	other.Wait()

	var predict []int
	for _, p := range m.log() {
		for _, id := range p.ids {
			if (id >= 1000) != (p.method == MethodInvert) {
				t.Fatalf("row %v rode a %s pass", id, p.method)
			}
		}
		if p.method == MethodPredict {
			predict = append(predict, len(p.ids))
		}
	}
	if len(predict) != 3 || predict[0] != 4 || predict[1] != 4 || predict[2] != 2 {
		t.Fatalf("10 rows at MaxBatch 4 ran as passes of %v, want [4 4 2]", predict)
	}

	small, _ := newScriptedServer(t, Config{MaxBatch: 4, MaxDelay: time.Minute, QueueDepth: 8})
	xs = scriptedRows(0, 30)
	ys, _, errs = submitUnit(ctx, small, MethodPredict, Bulk, xs)
	mustServe(t, "unit of 30 rows over a queue of 8", xs, ys, errs)
	if snap := small.Stats(); snap.Overloads != 0 || snap.Requests != 30 {
		t.Fatalf("overloads %d, requests %d; want 0 and 30", snap.Overloads, snap.Requests)
	}
	if small.Inflight() != 0 {
		t.Fatalf("inflight = %d after the unit returned", small.Inflight())
	}
}

// TestBacklogLeavesAsOneBatch: with the worker busy, complete units are
// not dispatched one by one — the queue keeps absorbing arrivals and the
// worker's next pass takes all of them.
func TestBacklogLeavesAsOneBatch(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 16, MaxDelay: time.Minute})
	release := holdWorker(t, s, m)
	var wg sync.WaitGroup
	goUnit(t, &wg, s, MethodPredict, Bulk, 10, 2)
	waitFor(t, "the bulk unit to be queued", func() bool { return queued(s) == 2 })
	goUnit(t, &wg, s, MethodPredict, Interactive, 20, 2)
	waitFor(t, "the interactive unit to be queued", func() bool { return queued(s) == 4 })
	if got := len(m.log()); got != 1 {
		t.Fatalf("%d passes while the worker was held, want only the holding one", got)
	}
	release()
	wg.Wait()
	if passes := m.log(); len(passes) != 2 || len(passes[1].ids) != 4 || s.Stats().Batches != 2 {
		t.Fatalf("passes %v, want 2 (the holding unit, then both queued units as one batch of 4)", passes)
	}
}

// TestUnitPriorityInteractiveFirst parks a bulk unit and then an
// interactive unit in their lanes behind a held worker: its next take has
// the interactive rows ahead of the bulk ones.
func TestUnitPriorityInteractiveFirst(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 4, MaxDelay: time.Minute, QueueDepth: 64})
	release := holdWorker(t, s, m)
	var wg sync.WaitGroup
	goUnit(t, &wg, s, MethodPredict, Bulk, 10, 2)
	waitFor(t, "the bulk unit to park in its lane", func() bool { return queued(s) == 2 })
	goUnit(t, &wg, s, MethodPredict, Interactive, 20, 2)
	waitFor(t, "the interactive unit to park in its lane", func() bool { return queued(s) == 4 })
	release()
	wg.Wait()

	passes := m.log()
	if got := passes[len(passes)-1].ids; len(passes) != 2 || len(got) != 4 || got[0] < 20 || got[1] < 20 || got[2] >= 20 || got[3] >= 20 {
		t.Fatalf("passes %v, want the holding one and then the interactive rows (20, 21) ahead of the bulk rows (10, 11) in one", passes)
	}
}

// TestInteractiveRidesNextPass: a bulk backlog delays interactive work by
// no more than the pass in progress. With three full batches of bulk rows
// queued behind a held worker, an interactive row that arrives last is in
// the first pass after the one that was running.
func TestInteractiveRidesNextPass(t *testing.T) {
	const maxBatch = 4
	s, m := newScriptedServer(t, Config{MaxBatch: maxBatch, MaxDelay: time.Minute, QueueDepth: 64})
	release := holdWorker(t, s, m)
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		goUnit(t, &wg, s, MethodPredict, Bulk, 100*(k+1), maxBatch)
	}
	waitFor(t, "the bulk backlog to be queued", func() bool { return queued(s) == 3*maxBatch })
	goUnit(t, &wg, s, MethodPredict, Interactive, 7, 1)
	waitFor(t, "the interactive row to be queued", func() bool { return queued(s) == 3*maxBatch+1 })
	release()
	wg.Wait()
	passes := m.log()
	if len(passes) != 5 || passes[1].ids[0] != 7 || len(passes[1].ids) != maxBatch {
		t.Fatalf("passes %v, want the interactive row 7 at the head of the first full pass after the holding one", passes)
	}
}

// TestLaneDepthsCountQueuedRows: the lane gauge reads every row that is
// admitted and not yet taken — under a held worker, exactly the backlog.
func TestLaneDepthsCountQueuedRows(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 16, MaxDelay: time.Minute})
	release := holdWorker(t, s, m)
	var wg sync.WaitGroup
	for class, n := range map[Priority]int{Interactive: 3, Bulk: 2} {
		goUnit(t, &wg, s, MethodInvert, class, 10*n, n)
	}
	waitFor(t, "five rows to be queued", func() bool { return queued(s) == 5 })
	if d := s.LaneDepths(); d["interactive"] != 3 || d["bulk"] != 2 || queued(s) != s.Inflight()-1 {
		t.Fatalf("lane depths %v with %d rows in flight, one of them in the model; want interactive 3, bulk 2", d, s.Inflight())
	}
	release()
	wg.Wait()
	if queued(s) != 0 {
		t.Fatalf("lane depths %v after every row was answered", s.LaneDepths())
	}
}

// TestDeadBulkRowsReleaseTheirSlots: strict priority can starve the bulk
// lane for as long as interactive traffic saturates the worker, so rows
// abandoned there are answered — counted cancelled, QueueDepth slots
// released — by the takes that serve the interactive rows, not when the
// lane's turn finally comes.
func TestDeadBulkRowsReleaseTheirSlots(t *testing.T) {
	const maxBatch = 2
	s, m := newScriptedServer(t, Config{MaxBatch: maxBatch, MaxDelay: time.Minute, QueueDepth: 16})
	release := holdWorker(t, s, m)
	doomed, abandon := context.WithCancel(context.Background())
	bulk := make(chan []error, 1)
	go func() {
		_, _, errs := submitUnit(doomed, s, MethodPredict, Bulk, scriptedRows(100, 3))
		bulk <- errs
	}()
	waitFor(t, "the bulk unit to be queued", func() bool { return queued(s) == 3 })
	var wg sync.WaitGroup
	goUnit(t, &wg, s, MethodPredict, Interactive, 10, 2*maxBatch)
	waitFor(t, "the interactive backlog to be queued", func() bool { return queued(s) == 3+2*maxBatch })
	abandon()
	for i, err := range <-bulk {
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("abandoned bulk row %d = %v, want ErrCancelled", i, err)
		}
	}

	// Hold the next pass too: it is full of interactive rows, with as
	// many again still queued ahead of the bulk lane.
	gate := make(chan struct{})
	m.gate.Store(&gate)
	release()
	<-m.entered
	if snap, d := s.Stats(), s.LaneDepths(); snap.Cancelled != 3 || d["bulk"] != 0 || d["interactive"] != maxBatch || s.Inflight() != 2*maxBatch {
		t.Fatalf("one take into the interactive backlog: cancelled %d, lanes %v, inflight %d; want the 3 dead bulk rows answered and only the %d interactive rows left",
			snap.Cancelled, d, s.Inflight(), 2*maxBatch)
	}
	m.gate.Store(nil)
	close(gate)
	wg.Wait()
	for _, p := range m.log() {
		for _, id := range p.ids {
			if id >= 100 {
				t.Fatalf("abandoned bulk row %v reached the model", id)
			}
		}
	}
}

// TestIdleWorkerServesEveryMethod: both method queues hold a complete
// unit when the single worker goes idle. It serves one, then the other;
// neither is left to wait out the window.
func TestIdleWorkerServesEveryMethod(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 16, MaxDelay: time.Minute})
	release := holdWorker(t, s, m)
	var wg sync.WaitGroup
	for k, method := range []string{MethodPredict, MethodInvert} {
		goUnit(t, &wg, s, method, Interactive, 10*(k+1), 2)
	}
	waitFor(t, "both units to be queued", func() bool { return queued(s) == 4 })
	release()
	wg.Wait()
	if got := s.Stats().Batches; got != 3 {
		t.Fatalf("%d batches, want 3 (the holding unit and one per method)", got)
	}
}

// TestCloseServesEveryChunk: a submission that began before Close
// finishes on its server. Its six rows go on the lane in three chunks
// (QueueDepth 4); Close arrives while the first is in the model, and the
// two chunks not yet queued are served all the same, not refused with
// ErrClosed. Close returns once they are; a submission after it is
// refused whole.
func TestCloseServesEveryChunk(t *testing.T) {
	s, m := newScriptedServer(t, Config{MaxBatch: 64, MaxDelay: time.Minute, QueueDepth: 4})
	gate := make(chan struct{})
	m.gate.Store(&gate)
	var wg sync.WaitGroup
	goUnit(t, &wg, s, MethodPredict, Interactive, 0, 6)
	select {
	case <-m.entered:
	case <-time.After(unitTimeout):
		t.Fatal("the first chunk never reached the model")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", s.Closed)
	select {
	case <-closed:
		t.Fatal("Close returned while a submission was in progress")
	default:
	}
	m.gate.CompareAndSwap(&gate, nil)
	close(gate)
	wg.Wait() // goUnit checked every row was served
	<-closed
	if n := len(m.log()); n != 3 {
		t.Fatalf("%d passes, want one per chunk", n)
	}
	_, _, errs := submitUnit(context.Background(), s, MethodPredict, Interactive, scriptedRows(10, 1))
	if !errors.Is(errs[0], ErrClosed) {
		t.Fatalf("submission after Close = %v, want ErrClosed", errs[0])
	}
}

// replicated gives a model a parallel width, as *Pool has.
type replicated struct {
	Model
	n int
}

func (r replicated) Replicas() int { return r.n }

// serverGoroutines counts the live goroutines NewServer started.
func serverGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/serve.NewServer")
}

// TestServerRunsOnlyItsWorkers: the workers are the whole server — one
// goroutine per replica however many methods the model has — and Close
// returns every one of them. Not parallel, and both baselines are taken
// here, so no other test's server is counted.
func TestServerRunsOnlyItsWorkers(t *testing.T) {
	const workers = 3
	all, ours := runtime.NumGoroutine(), serverGoroutines()
	m := &scriptedModel{}
	s := NewServer(replicated{m, workers}, Config{MaxDelay: time.Minute})
	if got := serverGoroutines() - ours; got != workers {
		t.Fatalf("NewServer on a %d-method model of %d replicas started %d goroutines, want %d", len(m.Dims()), workers, got, workers)
	}
	for _, method := range s.Methods() {
		xs := scriptedRows(0, 3)
		ys, _, errs := submitUnit(context.Background(), s, method, Interactive, xs)
		mustServe(t, method+" unit", xs, ys, errs)
	}
	if got := serverGoroutines() - ours; got != workers {
		t.Fatalf("%d server goroutines after traffic, want %d", got, workers)
	}
	s.Close()
	// Close waits for the workers' last statement, not for their exit.
	waitFor(t, "the workers to exit", func() bool { return serverGoroutines() == ours && runtime.NumGoroutine() <= all })
}

// TestWindowEndsWhileAWorkerIsHeld: with one of two workers held in a
// pass, a lone Call still leaves when its window ends — whichever worker
// went to sleep on the window, and whichever was woken for the unit, a
// timer is set for the row as long as anybody is asleep.
func TestWindowEndsWhileAWorkerIsHeld(t *testing.T) {
	m := &scriptedModel{entered: make(chan struct{}, 16)}
	s := NewServer(replicated{m, 2}, Config{MaxBatch: 16, MaxDelay: 20 * time.Millisecond})
	t.Cleanup(s.Close)
	for round := 0; round < 4; round++ {
		gate := make(chan struct{})
		m.gate.Store(&gate)
		lone := make(chan error, 1)
		go func() {
			_, err := s.Call(context.Background(), MethodPredict, []float32{1, 0.5}, Interactive)
			lone <- err
		}()
		waitFor(t, "the lone Call to be admitted", func() bool { return s.Inflight() == 1 })
		var wg sync.WaitGroup
		goUnit(t, &wg, s, MethodInvert, Interactive, 10, 1)
		// Both passes reach the gate: neither row waited for the other's.
		for range 2 {
			select {
			case <-m.entered:
			case <-time.After(unitTimeout):
				t.Fatal("a row waited for the held worker instead of its own due time")
			}
		}
		close(gate)
		wg.Wait()
		if err := <-lone; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPanickingPassFailsItsRows: a model that panics, or answers with a
// nil error and a matrix that is not one output row per input row, fails
// the rows of that pass with ErrModelFailure and nothing else — the worker
// takes the next batch, and the other model in the registry never notices.
func TestPanickingPassFailsItsRows(t *testing.T) {
	reg := NewRegistry()
	t.Cleanup(reg.Close)
	bad, good := &scriptedModel{}, &scriptedModel{}
	servers := map[string]*Server{}
	for name, m := range map[string]*scriptedModel{"bad": bad, "good": good} {
		servers[name] = NewServer(m, Config{MaxBatch: 4})
		if err := reg.Register(name, servers[name]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), unitTimeout)
	defer cancel()
	failing := func(what string) {
		t.Helper()
		_, _, errs := submitUnit(ctx, servers["bad"], MethodPredict, Interactive, scriptedRows(0, 3))
		for i, err := range errs {
			if !errors.Is(err, ErrModelFailure) {
				t.Fatalf("row %d of a pass that %s = %v, want ErrModelFailure", i, what, err)
			}
		}
	}
	bad.panics.Store(true)
	failing("panics")
	bad.panics.Store(false)
	replies := map[string]func(rows int) *tensor.Matrix{
		"returns nil":           func(int) *tensor.Matrix { return nil },
		"returns a row too few": func(rows int) *tensor.Matrix { return tensor.New(rows-1, 2) },
		"returns narrow rows":   func(rows int) *tensor.Matrix { return tensor.New(rows, 1) },
		"returns too few values": func(rows int) *tensor.Matrix {
			return &tensor.Matrix{Rows: rows, Cols: 2, Data: make([]float32, 2*rows-1)}
		},
	}
	for what, reply := range replies {
		bad.reply.Store(&reply)
		failing(what)
	}
	bad.reply.Store(nil)
	for name, s := range servers {
		xs := scriptedRows(10, 2)
		ys, _, errs := submitUnit(ctx, s, MethodPredict, Interactive, xs)
		mustServe(t, name+" model after the failures", xs, ys, errs)
		want := int64(0)
		if name == "bad" {
			want = int64(3 * (1 + len(replies)))
		}
		if snap := s.Stats(); snap.ModelFailures != want || snap.Requests != 2 || s.Inflight() != 0 {
			t.Fatalf("%s: %d failures, %d served, %d in flight; want %d, 2, 0", name, snap.ModelFailures, snap.Requests, s.Inflight(), want)
		}
	}
}

// callRows runs xs through s one CallTrace at a time: the reference the
// unit path must match row for row.
func callRows(ctx context.Context, s *Server, method string, class Priority, xs [][]float32) ([][]float32, []Trace, []error) {
	ys := make([][]float32, len(xs))
	traces := make([]Trace, len(xs))
	errs := make([]error, len(xs))
	for i, x := range xs {
		ys[i], traces[i], errs[i] = s.CallTrace(ctx, method, x, class)
	}
	return ys, traces, errs
}

// TestUnitMatchesCalls is the differential: a unit's outputs (bit for
// bit), per-row errors and cache behaviour are those of the same rows
// sent as N CallTrace calls to an identical server.
func TestUnitMatchesCalls(t *testing.T) {
	// MaxBatch 1 keeps every pass the same shape on both sides, so the
	// real model's outputs are comparable bitwise.
	cfg := Config{MaxBatch: 1, CacheSize: 8}
	unitSrv, _ := newTestServer(t, cfg)
	callSrv, _ := newTestServer(t, cfg)
	nan := float32(math.NaN())
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	steps := []struct {
		name  string
		ctx   context.Context
		class Priority
		xs    [][]float32
	}{
		{"fresh rows, a short row and a non-finite one", context.Background(), Interactive,
			[][]float32{testInput(0), {1, 2}, {nan, 0, 0, 0, 0}, testInput(1)}},
		{"two cached rows and a fresh one", context.Background(), Interactive,
			[][]float32{testInput(1), testInput(2), testInput(0)}},
		{"bulk: a cached row and a fresh one", context.Background(), Bulk,
			[][]float32{testInput(0), testInput(3)}},
		{"bulk again: the fresh row was not admitted", context.Background(), Bulk,
			[][]float32{testInput(3)}},
		{"dead context: validation still comes first", cancelled, Interactive,
			[][]float32{testInput(4), {1}, testInput(0)}},
	}
	for _, st := range steps {
		uy, ut, ue := submitUnit(st.ctx, unitSrv, MethodPredict, st.class, st.xs)
		cy, ct, ce := callRows(st.ctx, callSrv, MethodPredict, st.class, st.xs)
		for i := range st.xs {
			if (ue[i] == nil) != (ce[i] == nil) || (ue[i] != nil && ue[i].Error() != ce[i].Error()) {
				t.Fatalf("%s: row %d error %v as a unit, %v as a call", st.name, i, ue[i], ce[i])
			}
			if ut[i].CacheHit != ct[i].CacheHit {
				t.Fatalf("%s: row %d cache hit %t as a unit, %t as a call", st.name, i, ut[i].CacheHit, ct[i].CacheHit)
			}
			if len(uy[i]) != len(cy[i]) {
				t.Fatalf("%s: row %d has %d outputs as a unit, %d as a call", st.name, i, len(uy[i]), len(cy[i]))
			}
			for j := range uy[i] {
				if math.Float32bits(uy[i][j]) != math.Float32bits(cy[i][j]) {
					t.Fatalf("%s: row %d output %d differs: %v vs %v", st.name, i, j, uy[i][j], cy[i][j])
				}
			}
		}
		us, cs := unitSrv.Stats(), callSrv.Stats()
		if us.CacheHits != cs.CacheHits || us.CacheMisses != cs.CacheMisses || us.CacheEntries != cs.CacheEntries ||
			us.CacheBytes != cs.CacheBytes || us.Requests != cs.Requests || us.Cancelled != cs.Cancelled {
			t.Fatalf("%s: counters diverge:\nunit %+v\ncall %+v", st.name, us, cs)
		}
	}
	// The steps above must have exercised what they name.
	if snap := unitSrv.Stats(); snap.CacheHits != 3 || snap.CacheMisses != 5 || snap.CacheEntries != 3 || snap.Cancelled != 2 {
		t.Fatalf("scenario drifted: %+v", snap)
	}

	// Overload: a queue of 4 holding the worker's row and two parked lone
	// Calls has room for one more. A two-row unit gets its first row in
	// and its second refused, as two calls would.
	outcome := func(asUnit bool) (errs []error, overloads int64) {
		s, m := newScriptedServer(t, Config{MaxBatch: 16, MaxDelay: time.Minute, QueueDepth: 4})
		release := holdWorker(t, s, m)
		var parked sync.WaitGroup
		for k := 0; k < 2; k++ {
			parked.Add(1)
			go func() {
				defer parked.Done()
				if _, err := s.Call(context.Background(), MethodPredict, []float32{float32(50 + k), 0.5}, Interactive); err != nil {
					t.Errorf("parked call: %v", err)
				}
			}()
		}
		waitFor(t, "the parked calls to be admitted", func() bool { return s.Inflight() == 3 })
		xs := scriptedRows(10, 2)
		errs = make([]error, 2)
		first := make(chan struct{})
		if asUnit {
			go func() {
				defer close(first)
				_, _, errs = submitUnit(context.Background(), s, MethodPredict, Interactive, xs)
			}()
		} else {
			go func() {
				defer close(first)
				_, errs[0] = s.Call(context.Background(), MethodPredict, xs[0], Interactive)
			}()
			waitFor(t, "the first call to be admitted", func() bool { return s.Inflight() == 4 })
			_, errs[1] = s.Call(context.Background(), MethodPredict, xs[1], Interactive)
		}
		waitFor(t, "the refusal", func() bool { return s.Stats().Overloads == 1 })
		// The parked lone Calls ride out with the unit's admitted row: it
		// makes the queue they are waiting in due. On the call side
		// nothing does, so Close flushes them.
		release()
		if !asUnit {
			s.Close()
		}
		<-first
		parked.Wait()
		return errs, s.Stats().Overloads
	}
	ue, uo := outcome(true)
	ce, co := outcome(false)
	if ue[0] != nil || ce[0] != nil || !errors.Is(ue[1], ErrOverloaded) || !errors.Is(ce[1], ErrOverloaded) || uo != 1 || co != 1 {
		t.Fatalf("overload: unit %v (%d counted), calls %v (%d counted); want [nil, ErrOverloaded] and 1 on both", ue, uo, ce, co)
	}
}

// TestUnitConservation hammers the unit path while contexts are cancelled
// mid-unit and the server is closed mid-traffic. Every row must end with
// exactly one outcome, inflight must return to zero, and the counters
// must account for every row that reached admission: served + failed +
// dropped-as-stale on the server equals ok + failed + cancelled as the
// callers saw them (a row abandoned by its caller is still served or
// dropped exactly once by the pipeline).
func TestUnitConservation(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		m := &scriptedModel{}
		s := NewServer(m, Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueDepth: 32, CacheSize: 16})
		const clients, units = 6, 40
		var (
			mu                                            sync.Mutex
			ok, hit, overloaded, closed, cancelled, other int64
		)
		// The first third of the units run freely; the rest wait at a gate
		// that opens once Close has begun, so Close lands with units in
		// flight whatever the scheduler does with this goroutine — and no
		// sooner than it has refused to admit: the units behind the gate
		// meet a closing server, each one.
		const free = clients * units / 3
		var tickets atomic.Int64
		started := make(chan struct{}, free)
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(iter*100 + c)))
				for k := 0; k < units; k++ {
					n := 1 + rng.Intn(24) // up to three batches, more than one QueueDepth/2 chunk
					xs := make([][]float32, n)
					for i := range xs {
						xs[i] = []float32{float32(rng.Intn(64)), float32(c)}
					}
					method, class := MethodPredict, Priority(k%int(numLanes))
					if c%2 == 1 {
						method = MethodInvert
					}
					ctx, cancel := context.WithCancel(context.Background())
					if k%5 == 4 {
						// Cancel while the unit is in flight (or just
						// before, or just after: all three must conserve).
						go func(yields int) {
							for ; yields > 0; yields-- {
								runtime.Gosched()
							}
							cancel()
						}(rng.Intn(200))
					}
					if tickets.Add(1) <= free {
						started <- struct{}{}
					} else {
						<-gate
					}
					ys, traces, errs := submitUnit(ctx, s, method, class, xs)
					cancel()
					mu.Lock()
					for i, err := range errs {
						switch {
						case err == nil && ys[i] == nil:
							t.Errorf("client %d unit %d row %d has neither an output nor an error", c, k, i)
						case err == nil && traces[i].CacheHit:
							hit++
						case err == nil:
							ok++
						case errors.Is(err, ErrOverloaded):
							overloaded++
						case errors.Is(err, ErrClosed):
							closed++
						case errors.Is(err, ErrCancelled):
							cancelled++
						default:
							other++
							t.Errorf("client %d unit %d row %d: %v", c, k, i, err)
						}
					}
					mu.Unlock()
				}
			}(c)
		}
		// Close once the free third has started: some are queued, some
		// mid-chunk, and the rest arrive while Close drains.
		for i := 0; i < free; i++ {
			<-started
		}
		go func() {
			for !s.Closed() {
				runtime.Gosched()
			}
			close(gate)
		}()
		s.Close()
		wg.Wait()

		snap := s.Stats()
		if s.Inflight() != 0 {
			t.Fatalf("iter %d: inflight = %d after Close and every caller returned", iter, s.Inflight())
		}
		if snap.Overloads != overloaded || snap.CacheHits != hit {
			t.Fatalf("iter %d: overloads %d vs %d seen, cache hits %d vs %d seen", iter, snap.Overloads, overloaded, snap.CacheHits, hit)
		}
		if got, want := snap.Requests+snap.ModelFailures+snap.Expired+snap.Cancelled, ok+cancelled; got != want {
			t.Fatalf("iter %d: server accounts for %d rows (served %d, failed %d, expired %d, cancelled %d), callers for %d (ok %d, cancelled %d)",
				iter, got, snap.Requests, snap.ModelFailures, snap.Expired, snap.Cancelled, want, ok, cancelled)
		}
		if closed == 0 || ok == 0 {
			t.Fatalf("iter %d: Close did not land mid-traffic (ok %d, closed %d)", iter, ok, closed)
		}
	}
}
