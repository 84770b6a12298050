package serve

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// scriptedModel serves two echo methods and can be told to fail its
// passes, to panic in them, or to hold them at a gate, so one test can walk a server
// through every counter. It keeps a log of the passes it ran.
type scriptedModel struct {
	fail   atomic.Bool
	panics atomic.Bool
	reply  atomic.Pointer[func(rows int) *tensor.Matrix] // non-nil: what Run returns, with a nil error
	gate   atomic.Pointer[chan struct{}]                 // non-nil: Run waits for it to close
	// entered, when non-nil, receives once per Run before the gate: the
	// worker is now inside the model and will take nothing else.
	entered chan struct{}

	mu     sync.Mutex
	passes []scriptedPass
}

// scriptedPass is one Run call: its method and each row's first input.
type scriptedPass struct {
	method string
	ids    []float32
}

// log returns the passes run so far.
func (m *scriptedModel) log() []scriptedPass {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]scriptedPass(nil), m.passes...)
}

func (*scriptedModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 2, Out: 2}, MethodInvert: {In: 2, Out: 2}}
}

func (m *scriptedModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	p := scriptedPass{method: method, ids: make([]float32, x.Rows)}
	for i := range p.ids {
		p.ids[i] = x.At(i, 0)
	}
	m.mu.Lock()
	m.passes = append(m.passes, p)
	m.mu.Unlock()
	if m.entered != nil {
		m.entered <- struct{}{}
	}
	if g := m.gate.Load(); g != nil {
		<-*g
	}
	if m.panics.Load() {
		panic("scripted pass panic")
	}
	if m.fail.Load() {
		return nil, errors.New("scripted pass failure")
	}
	if reply := m.reply.Load(); reply != nil {
		return (*reply)(x.Rows), nil
	}
	y := tensor.New(x.Rows, 2)
	copy(y.Data, x.Data)
	return y, nil
}

// laneSum totals the per-(method, lane) view of a snapshot.
func laneSum(snap StatsSnapshot) (sum int64) {
	for _, lanes := range snap.LaneRequests {
		for _, n := range lanes {
			sum += n
		}
	}
	return sum
}

// methodSum totals the per-method view of a snapshot.
func methodSum(snap StatsSnapshot) (sum int64) {
	for _, n := range snap.MethodRequests {
		sum += n
	}
	return sum
}

// parseExposition maps every sample line of a Prometheus text page to
// its value, keyed by the series as rendered (name plus label set).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("bad exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// TestCountersConserve walks one server through every way a row can end
// — served on either method and lane, alone or as part of a unit,
// answered from cache, expired, cancelled while queued, shed, failed by
// the model — and checks that the views of the one
// instrument set agree: Requests is the sum of its per-method and
// per-lane splits, batches times mean batch is the rows served, and
// every /metrics counter equals its StatsSnapshot field.
func TestCountersConserve(t *testing.T) {
	model := &scriptedModel{entered: make(chan struct{}, 4096)}
	s := NewServer(model, Config{MaxBatch: 4, MaxDelay: time.Millisecond, QueueDepth: 2, CacheSize: 32})
	reg := NewRegistry()
	if err := reg.Register("m", s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	ctx := context.Background()
	row := func(i int) []float32 { return []float32{float32(i), 0.5} }
	call := func(method string, i int, class Priority) {
		t.Helper()
		if _, err := s.Call(ctx, method, row(i), class); err != nil {
			t.Fatalf("%s row %d on %v: %v", method, i, class, err)
		}
	}

	// Served rows: predict 3 interactive + 2 bulk, invert 1 + 2.
	for i := 0; i < 3; i++ {
		call(MethodPredict, i, Interactive)
	}
	for i := 3; i < 5; i++ {
		call(MethodPredict, i, Bulk)
	}
	call(MethodInvert, 0, Interactive)
	call(MethodInvert, 1, Bulk)
	call(MethodInvert, 2, Bulk)
	// A cache hit: a row already served.
	call(MethodPredict, 0, Interactive)
	// A unit: two fresh rows around one already served — two more served
	// rows and a second hit.
	if _, traces, errs := submitUnit(ctx, s, MethodPredict, Interactive, [][]float32{row(5), row(0), row(6)}); errs[0] != nil || errs[1] != nil || errs[2] != nil ||
		traces[0].CacheHit || !traces[1].CacheHit || traces[2].CacheHit {
		t.Fatalf("unit: errors %v, traces %+v; want three rows served, the middle one from cache", errs, traces)
	}
	// An expired row: dead on arrival.
	dead, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.Call(dead, MethodPredict, row(10), Interactive); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired call = %v, want ErrExpired", err)
	}
	// An overload: hold QueueDepth rows inside the model, then one more.
	gate := make(chan struct{})
	model.gate.Store(&gate)
	var held sync.WaitGroup
	for i := 20; i < 22; i++ {
		held.Add(1)
		go func(i int) {
			defer held.Done()
			if _, err := s.Call(ctx, MethodPredict, row(i), Interactive); err != nil {
				t.Errorf("held row %d: %v", i, err)
			}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Inflight() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("held rows never filled the queue")
		}
	}
	if _, err := s.Call(ctx, MethodPredict, row(30), Interactive); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call over a full queue = %v, want ErrOverloaded", err)
	}
	model.gate.Store(nil)
	close(gate)
	held.Wait()
	// A unit cancelled while queued behind a held worker: its caller gets
	// ErrCancelled at once, and the worker drops the row unserved when it
	// comes free. (The holding unit is one more served row.)
	release := holdWorker(t, s, model)
	doomed, cancelDoomed := context.WithCancel(ctx)
	abandoned := make(chan error, 1)
	go func() {
		_, _, errs := submitUnit(doomed, s, MethodInvert, Bulk, [][]float32{row(50)})
		abandoned <- errs[0]
	}()
	waitFor(t, "the doomed unit to be queued", func() bool { return s.Inflight() == 2 })
	cancelDoomed()
	if err := <-abandoned; !errors.Is(err, ErrCancelled) {
		t.Fatalf("unit cancelled while queued = %v, want ErrCancelled", err)
	}
	release()
	waitFor(t, "the worker to drop the cancelled row", func() bool { return s.Stats().Cancelled == 1 })
	// A model failure.
	model.fail.Store(true)
	if _, err := s.Call(ctx, MethodInvert, row(40), Bulk); !errors.Is(err, ErrModelFailure) {
		t.Fatalf("failing pass = %v, want ErrModelFailure", err)
	}

	snap := s.Stats()
	const served = 3 + 2 + 1 + 2 + 2 + 2 + 1 // then the unit's two fresh rows, the held rows, the worker-holding row
	if snap.Requests != served || methodSum(snap) != served || laneSum(snap) != served {
		t.Fatalf("requests %d, Σmethods %d, Σlanes %d; want all %d", snap.Requests, methodSum(snap), laneSum(snap), served)
	}
	if got := snap.LaneRequests[MethodPredict]["interactive"]; got != 8 {
		t.Fatalf("predict/interactive = %d, want 8", got)
	}
	if got := snap.LaneRequests[MethodInvert]["bulk"]; got != 2 {
		t.Fatalf("invert/bulk = %d, want 2", got)
	}
	if rows := math.Round(float64(snap.Batches) * snap.MeanBatch); rows != served {
		t.Fatalf("batches %d x mean batch %v = %v rows, want %d", snap.Batches, snap.MeanBatch, rows, served)
	}
	if snap.CacheHits != 2 || snap.CacheMisses != served || snap.Expired != 1 ||
		snap.Overloads != 1 || snap.ModelFailures != 1 || snap.Cancelled != 1 || s.Inflight() != 0 {
		t.Fatalf("outcome counters wrong: %+v", snap)
	}
	// Every served row was a lookup (CacheMisses above), but only the
	// interactive ones were admitted: predict 0-2, invert 0, the unit's
	// two, the two held rows and the worker-holding one, 2 floats each.
	if snap.CacheEntries != 9 || snap.CacheBytes != 9*2*4 {
		t.Fatalf("cache holds %d entries / %d bytes, want the 9 interactive rows / 72 bytes", snap.CacheEntries, snap.CacheBytes)
	}

	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	series := parseExposition(t, rec.Body.String())
	var exposedRows float64
	for method, lanes := range snap.LaneRequests {
		for lane, n := range lanes {
			key := `jag_requests_total{lane="` + lane + `",method="` + method + `",model="m"}`
			if series[key] != float64(n) {
				t.Errorf("%s = %v, want %d", key, series[key], n)
			}
			exposedRows += series[key]
		}
	}
	if exposedRows != served {
		t.Errorf("Σ jag_requests_total = %v, want %d", exposedRows, served)
	}
	for name, want := range map[string]int64{
		"jag_batches_total":                 int64(snap.Batches),
		"jag_overloads_total":               snap.Overloads,
		"jag_expired_total":                 snap.Expired,
		"jag_cancelled_total":               snap.Cancelled,
		"jag_model_failures_total":          snap.ModelFailures,
		"jag_cache_hits_total":              snap.CacheHits,
		"jag_cache_misses_total":            snap.CacheMisses,
		"jag_cache_entries":                 int64(snap.CacheEntries),
		"jag_cache_bytes":                   snap.CacheBytes,
		"jag_request_latency_seconds_count": snap.Requests,
	} {
		if got, ok := series[name+`{model="m"}`]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present %t), want %d", name, got, ok, want)
		}
	}
	// A bulk miss is counted and not cached; the help text must not
	// say otherwise.
	if help := "# HELP jag_cache_misses_total Rows looked up in the LRU response cache, not found, and answered by the model."; !strings.Contains(rec.Body.String(), help) {
		t.Errorf("exposition lacks %q", help)
	}
}

// TestViewsAgreeUnderLoad reads the stats and scrapes /metrics while
// both methods and both lanes are taking traffic, half of it row by row
// and half as four-row units. Requests and its two
// splits are derived from one set of per-lane counters in one view, so
// no reader may ever see them disagree; under -race this also proves
// the lock-free instruments are read without racing the request path.
func TestViewsAgreeUnderLoad(t *testing.T) {
	s := NewServer(&scriptedModel{}, Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond})
	reg := NewRegistry()
	if err := reg.Register("m", s); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	const clients, perClient = 4, 200
	var traffic sync.WaitGroup
	for c := 0; c < clients; c++ {
		traffic.Add(1)
		go func(c int) {
			defer traffic.Done()
			method, class := MethodPredict, Priority(c)%numLanes
			if c >= clients/2 {
				method = MethodInvert
			}
			for i := 0; i < perClient; i++ {
				if c == 1 || c == 2 { // predict/bulk and invert/interactive
					xs := [][]float32{{float32(c), float32(i)}, {float32(c), float32(i + 1)}, {float32(c), float32(i + 2)}, {float32(c), float32(i + 3)}}
					i += len(xs) - 1
					_, _, errs := submitUnit(context.Background(), s, method, class, xs)
					if err := errors.Join(errs...); err != nil {
						t.Errorf("client %d unit at row %d: %v", c, i, err)
						return
					}
					continue
				}
				if _, err := s.Call(context.Background(), method, []float32{float32(c), float32(i)}, class); err != nil {
					t.Errorf("client %d row %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		traffic.Wait()
		close(done)
	}()
	metricsH := MetricsHandler(reg)
	for reads := 0; ; reads++ {
		snap := s.Stats()
		if snap.Requests != methodSum(snap) || snap.Requests != laneSum(snap) {
			t.Fatalf("read %d: requests %d, Σmethods %d, Σlanes %d", reads, snap.Requests, methodSum(snap), laneSum(snap))
		}
		rec := httptest.NewRecorder()
		metricsH.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var rows float64
		for key, v := range parseExposition(t, rec.Body.String()) {
			if strings.HasPrefix(key, "jag_requests_total{") {
				rows += v
			}
		}
		if after := s.Stats().Requests; rows < float64(snap.Requests) || rows > float64(after) {
			t.Fatalf("read %d: Σ jag_requests_total %v outside [%d, %d]", reads, rows, snap.Requests, after)
		}
		select {
		case <-done:
			if got := s.Stats().Requests; got != clients*perClient {
				t.Fatalf("served %d rows, want %d", got, clients*perClient)
			}
			return
		default:
		}
	}
}
