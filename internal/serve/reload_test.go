package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/tensor"
)

// newSeedServer builds a single-replica server over a fresh surrogate
// with the given seed and cfg.
func newSeedServer(t *testing.T, seed int64, cfg Config) *Server {
	t.Helper()
	pool, err := NewPool([]*cyclegan.Surrogate{cyclegan.New(testModelCfg(), seed)}, false)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(pool, cfg)
}

// refPredict runs one row through a fresh reference surrogate.
func refPredict(seed int64, x []float32) []float32 {
	ref := cyclegan.New(testModelCfg(), seed)
	xm := tensor.New(1, jag.InputDim)
	copy(xm.Row(0), x)
	return append([]float32(nil), ref.Predict(xm).Row(0)...)
}

// TestReplaceUnderConcurrentTraffic is the swap-under-traffic race
// test (run with -race): Call traffic from both priority
// lanes hammers one registered name while the server behind it is
// replaced three times. Every admitted row must be served exactly once
// with zero errors — a drop would surface as an error or a hang, a
// double-serve as a corrupted reply — every reply must match one of
// the generations' reference models, each displaced server must be
// fully drained and closed by the time Replace returns, and the
// registry generation must be monotonic throughout.
func TestReplaceUnderConcurrentTraffic(t *testing.T) {
	const (
		seeds   = 4 // generations 1..4 use seeds 1..4
		inputs  = 6
		traffic = 8 // goroutines
	)
	cfg := Config{MaxBatch: 8, MaxDelay: 200 * time.Microsecond, QueueDepth: 256}

	// Reference outputs per generation, computed up front so checker
	// goroutines never share a reference model.
	refs := make([][][]float32, seeds+1)
	for seed := 1; seed <= seeds; seed++ {
		refs[seed] = make([][]float32, inputs)
		for i := 0; i < inputs; i++ {
			refs[seed][i] = refPredict(int64(seed), testInput(i))
		}
	}
	matchesSomeGeneration := func(i int, y []float32) bool {
		for seed := 1; seed <= seeds; seed++ {
			ok := true
			for j, v := range y {
				d := float64(v - refs[seed][i][j])
				if d > 1e-5 || d < -1e-5 {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}

	reg := NewRegistry()
	if err := reg.Register("m", newSeedServer(t, 1, cfg)); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var (
		stop   atomic.Bool
		served atomic.Int64
		wg     sync.WaitGroup
	)
	ctx := context.Background()
	for g := 0; g < traffic; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := Interactive
			if g%2 == 1 {
				lane = Bulk
			}
			for k := 0; !stop.Load(); k++ {
				i := (g + k) % inputs
				// The HTTP handler's protocol: look the name up, then
				// submit through the registry, which follows a swap that
				// closed the server in between to its successor.
				s, ok := reg.Get("m")
				if !ok {
					t.Error("model vanished from the registry")
					return
				}
				var (
					ys  [1][]float32
					tr  [1]Trace
					err [1]error
				)
				reg.submit(ctx, "m", s, MethodPredict, lane, false, [][]float32{testInput(i)}, ys[:], tr[:], err[:])
				if err := err[0]; err != nil {
					t.Errorf("row dropped during swap (lane %v): %v", lane, err)
					return
				}
				if !matchesSomeGeneration(i, ys[0]) {
					t.Errorf("reply for input %d matches no generation's reference", i)
					return
				}
				served.Add(1)
			}
		}(g)
	}

	// Swap through generations 2..4 under full traffic.
	for seed := int64(2); seed <= seeds; seed++ {
		time.Sleep(20 * time.Millisecond)
		old, _ := reg.Get("m")
		next := newSeedServer(t, seed, cfg)
		if err := reg.Replace("m", next); err != nil {
			t.Fatalf("Replace to seed %d: %v", seed, err)
		}
		if !old.Closed() {
			t.Fatalf("generation %d server not closed when Replace returned", seed-1)
		}
		if got, _ := reg.Get("m"); got != next {
			t.Fatalf("generation %d not routing to the new server", seed)
		}
		if gen := reg.Generation("m"); gen != int64(seed) {
			t.Fatalf("generation = %d after swap %d, want monotonic increments", gen, seed-1)
		}
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := served.Load(); n < seeds*traffic {
		t.Fatalf("only %d rows served across 3 swaps; traffic loop barely ran", n)
	}
}

// TestAcquirePinsAcrossReplace pins the hold in isolation: an
// in-progress submission holds its server across Replace. New lookups
// route to the replacement as soon as the swap lands, and a submission
// that starts on the displaced server after that follows the name to the
// replacement; Replace blocks until the held submission's row is
// answered, by the old model.
func TestAcquirePinsAcrossReplace(t *testing.T) {
	cfg := Config{MaxBatch: 1, MaxDelay: time.Minute}
	oldSrv, m := newGenerationServer(t, cfg, 1)
	next, _ := newGenerationServer(t, cfg, 2)
	reg := NewRegistry()
	if err := reg.Register("m", oldSrv); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	gate := make(chan struct{})
	m.gate.Store(&gate)
	type outcome struct {
		y   []float32
		err error
	}
	held := make(chan outcome, 1)
	go func() {
		ys, _, errs := submitUnit(context.Background(), oldSrv, MethodPredict, Interactive, scriptedRows(0, 1))
		held <- outcome{ys[0], errs[0]}
	}()
	select {
	case <-m.entered:
	case <-time.After(unitTimeout):
		t.Fatal("the held submission never reached the model")
	}

	done := make(chan error, 1)
	go func() { done <- reg.Replace("m", next) }()

	// New lookups route to the replacement as soon as the swap lands.
	waitFor(t, "the swap to route new lookups to the replacement", func() bool {
		got, _ := reg.Get("m")
		return got == next
	})

	// The displaced server is held: Replace has not returned while the
	// submission's row is in its pass...
	select {
	case err := <-done:
		t.Fatalf("Replace returned (%v) while a submission still holds the old server", err)
	case <-time.After(20 * time.Millisecond):
	}
	// ...but it takes nothing new: a submission that starts on it now is
	// answered by the replacement.
	waitFor(t, "Replace to close the displaced server", oldSrv.Closed)
	var (
		ys   [1][]float32
		tr   [1]Trace
		errs [1]error
	)
	if got := reg.submit(context.Background(), "m", oldSrv, MethodPredict, Interactive, true, scriptedRows(1, 1), ys[:], tr[:], errs[:]); got != next || errs[0] != nil || ys[0][0] != 2 {
		t.Fatalf("late submission: %v, %v; want the replacement's answer", ys[0], errs[0])
	}

	m.gate.CompareAndSwap(&gate, nil)
	close(gate)
	if r := <-held; r.err != nil || r.y[0] != 1 {
		t.Fatalf("held submission: %v, %v; want the old model's answer", r.y, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if !oldSrv.Closed() {
		t.Fatal("displaced server not closed when Replace returned")
	}
}

// TestReplaceValidation covers the error paths that must leave the
// registration untouched.
func TestReplaceValidation(t *testing.T) {
	reg := NewRegistry()
	a := newSeedServer(t, 1, Config{MaxBatch: 1})
	t.Cleanup(a.Close)
	if err := reg.Register("m", a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Replace("m", nil); err == nil {
		t.Fatal("nil replacement accepted")
	}
	if err := reg.Replace("ghost", newSeedServer(t, 2, Config{MaxBatch: 1})); err == nil {
		t.Fatal("replace of unregistered name accepted")
	}
	closed := newSeedServer(t, 3, Config{MaxBatch: 1})
	closed.Close()
	if err := reg.Replace("m", closed); err == nil {
		t.Fatal("closed replacement accepted")
	}
	if err := reg.Replace("m", a); err == nil {
		t.Fatal("self-replacement accepted")
	}
	if s, _ := reg.Get("m"); s != a || a.Closed() {
		t.Fatal("failed Replace disturbed the registration")
	}
	if gen := reg.Generation("m"); gen != 1 {
		t.Fatalf("failed Replace moved the generation to %d", gen)
	}
}

// TestReplaceAfterClose pins the shutdown race: a swap that loses the
// race against Registry.Close must be rejected (the caller closes its
// own server), never slipped live into a closed registry.
func TestReplaceAfterClose(t *testing.T) {
	reg := NewRegistry()
	a := newSeedServer(t, 1, Config{MaxBatch: 1})
	if err := reg.Register("m", a); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	late := newSeedServer(t, 2, Config{MaxBatch: 1})
	t.Cleanup(late.Close)
	if err := reg.Replace("m", late); err == nil {
		t.Fatal("Replace accepted into a closed registry")
	}
	if late.Closed() {
		t.Fatal("rejected server is the caller's to close, not the registry's")
	}
	if err := reg.Register("late", late); err == nil {
		t.Fatal("Register accepted into a closed registry")
	}
}

// saveTestCheckpoint writes surrogate m as a checkpoint + spec pair
// the reloader can resolve.
func saveTestCheckpoint(t *testing.T, path string, step int64, m *cyclegan.Surrogate) {
	t.Helper()
	if err := checkpoint.Save(path, step, m.Nets()); err != nil {
		t.Fatal(err)
	}
	spec := ModelSpec{Model: testModelCfg(), Step: step, Checkpoints: []string{filepath.Base(path)}}
	if err := SaveSpec(SpecPath(path), spec); err != nil {
		t.Fatal(err)
	}
}

// newWatchedServer builds a checkpoint on disk and a reloader that
// loads, registers and watches it; Check is driven explicitly by the
// tests for determinism.
func newWatchedServer(t *testing.T, cfg Config) (reg *Registry, rl *Reloader, ckpt string) {
	t.Helper()
	ckpt = filepath.Join(t.TempDir(), "model.ckpt")
	saveTestCheckpoint(t, ckpt, 1, cyclegan.New(testModelCfg(), 1))
	reg = NewRegistry()
	t.Cleanup(reg.Close)
	rl, err := NewReloader(reg, "m", ckpt, LoadConfig{Server: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return reg, rl, ckpt
}

// poisonedSurrogate is a structurally valid model whose weights are all
// NaN: it loads fine and must fail the canary.
func poisonedSurrogate() *cyclegan.Surrogate {
	m := cyclegan.New(testModelCfg(), 3)
	for _, net := range m.Nets() {
		for _, p := range net.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = float32(math.NaN())
			}
		}
	}
	return m
}

// TestReloaderSwapsOnNewCheckpoint drives the happy path: no change is
// a no-op, a rewrite with identical content is a no-op (fingerprint,
// not mtime, decides), and a new winner checkpoint hot-swaps the
// generation whose outputs then match the new model bitwise and which
// publishes its own probed capacity, not the displaced generation's.
func TestReloaderSwapsOnNewCheckpoint(t *testing.T) {
	reg, rl, ckpt := newWatchedServer(t, Config{MaxBatch: 1})

	if swapped, err := rl.Check(); err != nil || swapped {
		t.Fatalf("idle check = %v, %v; want no-op", swapped, err)
	}

	// Re-save the identical model: mtime moves, content does not.
	saveTestCheckpoint(t, ckpt, 1, cyclegan.New(testModelCfg(), 1))
	if swapped, err := rl.Check(); err != nil || swapped {
		t.Fatalf("identical rewrite check = %v, %v; want no-op", swapped, err)
	}
	if gen := reg.Generation("m"); gen != 1 {
		t.Fatalf("no-op checks moved generation to %d", gen)
	}

	// A new tournament winner lands.
	saveTestCheckpoint(t, ckpt, 2, cyclegan.New(testModelCfg(), 2))
	old, _ := reg.Get("m")
	old.SetCapacityQPS(1234) // a value no probe of the new generation returns
	swapped, err := rl.Check()
	if err != nil || !swapped {
		t.Fatalf("new checkpoint check = %v, %v; want swap", swapped, err)
	}
	if !old.Closed() {
		t.Fatal("displaced server not closed after the swap")
	}
	if gen := reg.Generation("m"); gen != 2 {
		t.Fatalf("generation = %d after swap, want 2", gen)
	}

	// MaxBatch 1: the served row is bitwise the new model's pass.
	s, _ := reg.Get("m")
	if got := s.CapacityQPS(); got <= 0 || got == 1234 {
		// 0 would drop a whole fleet of reloading backends from weighted
		// routing to P2C; 1234 would be the displaced generation's.
		t.Fatalf("capacity_qps = %v after the swap, want the replacement's own probe", got)
	}
	x := testInput(2)
	got, err := predict(s, x)
	if err != nil {
		t.Fatal(err)
	}
	want := refPredict(2, x)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("post-swap output[%d] = %v, want new model's %v", j, got[j], want[j])
		}
	}

	st := rl.State()
	if st.Reloads != 1 || st.Generation != 2 || st.LastError != "" || st.LastSwap.IsZero() || st.Fingerprint == "" {
		t.Fatalf("reloader state after swap: %+v", st)
	}
}

// TestReloaderRejectsCorruptCheckpoint covers both rollback paths: a
// garbage file that fails to load, and a structurally valid checkpoint
// whose NaN weights fail the canary forward pass. In both cases the
// old generation must keep serving and the failure must be visible in
// the reload state.
func TestReloaderRejectsCorruptCheckpoint(t *testing.T) {
	reg, rl, ckpt := newWatchedServer(t, Config{MaxBatch: 1})
	serving := func() {
		t.Helper()
		s, ok := reg.Get("m")
		if !ok {
			t.Fatal("model gone")
		}
		if _, err := predict(s, testInput(0)); err != nil {
			t.Fatalf("old generation stopped serving: %v", err)
		}
	}

	// Garbage bytes: fails checkpoint.Load.
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if swapped, err := rl.Check(); err == nil || swapped {
		t.Fatalf("garbage checkpoint check = %v, %v; want rejection", swapped, err)
	}
	if gen := reg.Generation("m"); gen != 1 {
		t.Fatalf("rejected reload moved generation to %d", gen)
	}
	serving()
	if st := rl.State(); st.LastError == "" || st.Reloads != 0 {
		t.Fatalf("rejection not recorded: %+v", st)
	}

	// A stable bad file is not re-attempted — the stat signature gates
	// the retry until the next actual write — and the no-change poll
	// must NOT wipe the recorded failure while the rejected content is
	// still what's on disk (healthz keeps showing the evidence).
	if swapped, err := rl.Check(); err != nil || swapped {
		t.Fatalf("unchanged bad file re-attempted: %v, %v", swapped, err)
	}
	if st := rl.State(); st.LastError == "" {
		t.Fatal("no-change poll cleared the rejected-reload evidence")
	}

	// Valid format, poisoned weights: loads fine, canary must reject.
	saveTestCheckpoint(t, ckpt, 3, poisonedSurrogate())
	if swapped, err := rl.Check(); err == nil || swapped || !strings.Contains(err.Error(), "canary") {
		t.Fatalf("NaN checkpoint check = %v, %v; want canary rejection", swapped, err)
	}
	if gen := reg.Generation("m"); gen != 1 {
		t.Fatalf("canary-rejected reload moved generation to %d", gen)
	}
	serving()

	// Recovery: the next good checkpoint swaps and clears the error.
	saveTestCheckpoint(t, ckpt, 4, cyclegan.New(testModelCfg(), 4))
	if swapped, err := rl.Check(); err != nil || !swapped {
		t.Fatalf("recovery check = %v, %v; want swap", swapped, err)
	}
	if st := rl.State(); st.LastError != "" || st.Reloads != 1 || st.Generation != 2 {
		t.Fatalf("recovery state: %+v", st)
	}
}

// TestNewReloaderValidation: NewReloader loads and registers the model
// itself, so an unreadable path is an error and a name already taken —
// by Register or by another reloader — is refused.
func TestNewReloaderValidation(t *testing.T) {
	reg := NewRegistry()
	t.Cleanup(reg.Close)
	if _, err := NewReloader(reg, "m", "nowhere", LoadConfig{}); err == nil {
		t.Fatal("reloader built from an unreadable path")
	}
	if reg.Len() != 0 {
		t.Fatal("a failed NewReloader registered a model")
	}
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	saveTestCheckpoint(t, ckpt, 1, cyclegan.New(testModelCfg(), 1))
	if err := reg.Register("m", newSeedServer(t, 1, Config{MaxBatch: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReloader(reg, "m", ckpt, LoadConfig{}); err == nil {
		t.Fatal("reloader registered over a taken name")
	}
	if _, ok := reg.ReloadState("m"); ok {
		t.Fatal("a Register-ed model reports reload state")
	}
	if _, err := NewReloader(reg, "w", ckpt, LoadConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReloader(reg, "w", ckpt, LoadConfig{}); err == nil {
		t.Fatal("second reloader on one name accepted")
	}
	if _, ok := reg.ReloadState("w"); !ok {
		t.Fatal("reload state not reachable through the registry")
	}
}

// TestOpenRefusesNaNCheckpoint: start-up runs the same canary as a hot
// swap, so a checkpoint computing NaN is never served.
func TestOpenRefusesNaNCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	saveTestCheckpoint(t, ckpt, 1, poisonedSurrogate())
	srv, err := Open(ckpt, LoadConfig{})
	if err == nil {
		srv.Close()
		t.Fatal("Open served a NaN checkpoint")
	}
	if !strings.Contains(err.Error(), "canary") {
		t.Fatalf("Open of a NaN checkpoint = %v; want canary rejection", err)
	}
}

// TestOpenProbesAtEffectiveMaxBatch: a model opened at the default cap
// (MaxBatch 0 runs at 64) or at MaxBatch 1 publishes a positive
// capacity — the probe fits two batch sizes whatever the cap.
func TestOpenProbesAtEffectiveMaxBatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	saveTestCheckpoint(t, ckpt, 1, cyclegan.New(testModelCfg(), 1))
	for _, cfg := range []Config{{}, {MaxBatch: 1}} {
		srv, err := Open(ckpt, LoadConfig{Server: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if qps := srv.CapacityQPS(); qps <= 0 {
			t.Errorf("MaxBatch %d: capacity_qps = %v, want > 0", cfg.MaxBatch, qps)
		}
		srv.Close()
	}
}

// TestCanary pins the smoke test itself against a synthetic model:
// clean output passes, a Run error, a wrong shape, and a NaN output
// each fail with the method named.
func TestCanary(t *testing.T) {
	if err := canary(canaryModel{}); err != nil {
		t.Fatalf("healthy model failed canary: %v", err)
	}
	if err := canary(canaryModel{failRun: true}); err == nil || !strings.Contains(err.Error(), MethodPredict) {
		t.Fatalf("Run failure not caught: %v", err)
	}
	if err := canary(canaryModel{wrongShape: true}); err == nil {
		t.Fatal("wrong output shape not caught")
	}
	if err := canary(canaryModel{nanOut: true}); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN output not caught: %v", err)
	}
}

// canaryModel is a synthetic Model with switchable failure modes.
type canaryModel struct {
	failRun    bool
	wrongShape bool
	nanOut     bool
}

func (canaryModel) Dims() map[string]Dims {
	return map[string]Dims{MethodPredict: {In: 2, Out: 3}}
}

func (c canaryModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	if c.failRun {
		return nil, errors.New("synthetic failure")
	}
	if c.wrongShape {
		return tensor.New(x.Rows, 5), nil
	}
	y := tensor.New(x.Rows, 3)
	if c.nanOut {
		y.Data[1] = float32(math.NaN()) // row 0, column 1
	}
	return y, nil
}

// TestV1ReloadSurfaces checks the HTTP face of a hot swap: the model
// listing and per-model stats report the new generation, and /healthz
// carries the watcher's reload state — including the last rejected
// reload while the old generation keeps serving.
func TestV1ReloadSurfaces(t *testing.T) {
	reg, rl, ckpt := newWatchedServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(NewRegistryHandler(reg, HandlerConfig{}))
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL)

	snap, err := c.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 1 || snap.Reloads != 0 {
		t.Fatalf("fresh stats generation/reloads = %d/%d, want 1/0", snap.Generation, snap.Reloads)
	}

	saveTestCheckpoint(t, ckpt, 2, cyclegan.New(testModelCfg(), 2))
	if swapped, err := rl.Check(); err != nil || !swapped {
		t.Fatalf("check = %v, %v", swapped, err)
	}

	snap, err = c.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 2 || snap.Reloads != 1 {
		t.Fatalf("post-swap stats generation/reloads = %d/%d, want 2/1", snap.Generation, snap.Reloads)
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Generation != 2 || !models[0].Ready {
		t.Fatalf("listing after swap: %+v", models)
	}

	// A rejected reload shows up in /healthz without degrading it.
	if err := os.WriteFile(ckpt, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.Check(); err == nil {
		t.Fatal("garbage accepted")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("rejected reload degraded health: %+v (%d)", h, resp.StatusCode)
	}
	mh := h.Models["m"]
	if mh.Generation != 2 || mh.Reload == nil {
		t.Fatalf("healthz missing reload state: %+v", mh)
	}
	if mh.Reload.Reloads != 1 || mh.Reload.LastError == "" || mh.Reload.Path != ckpt {
		t.Fatalf("healthz reload state: %+v", mh.Reload)
	}
	// The swapped-in generation's probe, as the stats route reports it.
	if mh.CapacityQPS <= 0 || mh.CapacityQPS != snap.CapacityQPS {
		t.Fatalf("healthz capacity_qps = %g, want the stats route's %g (> 0)", mh.CapacityQPS, snap.CapacityQPS)
	}
}
