package repro

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// TestHotReloadUnderHTTPTraffic is the full deployment-side scenario
// the warm-reload path exists for: an HTTP server comes up on one
// checkpoint, an LTFB producer overwrites the watched checkpoint with
// a new tournament winner mid-traffic, and the serving process swaps
// it in live. Concurrent clients (both transports) must observe zero
// errors across the swap, and once the swap lands a fresh request must
// answer with the new model's output bitwise.
func TestHotReloadUnderHTTPTraffic(t *testing.T) {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{16}
	cfg.ForwardHidden = []int{8}
	cfg.InverseHidden = []int{8}
	cfg.DiscHidden = []int{8}
	oldModel := cyclegan.New(cfg, 101)
	newModel := cyclegan.New(cfg, 202)

	// Checkpoint #1 with its spec sidecar, exactly as ltfbtrain leaves
	// them (relative checkpoint entries, resolved against the dir).
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.ckpt")
	if err := checkpoint.Save(ckpt, 1, oldModel.Nets()); err != nil {
		t.Fatal(err)
	}
	spec := serve.ModelSpec{Model: cfg, Step: 1, Checkpoints: []string{"model.ckpt"}}
	if err := serve.SaveSpec(serve.SpecPath(ckpt), spec); err != nil {
		t.Fatal(err)
	}

	// Serve it the way cmd/jagserve -models jag=... -watch does.
	reg := serve.NewRegistry()
	rl, err := serve.NewReloader(reg, "jag", ckpt, serve.LoadConfig{
		Server: serve.Config{MaxBatch: 8, MaxDelay: 500 * time.Microsecond, QueueDepth: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	go rl.Run(watchCtx, 2*time.Millisecond)
	ts := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{}))
	t.Cleanup(func() {
		ts.Close()
		stopWatch()
		reg.Close()
	})

	// Concurrent client traffic across the swap: every call must
	// succeed — a request caught mid-swap drains against the old model,
	// later ones answer from the new one, and nothing 503s.
	input := func(i int) []float32 {
		x := make([]float32, jag.InputDim)
		for d := range x {
			x[d] = float32((i*7+d*13)%101) / 101
		}
		return x
	}
	var (
		stop   atomic.Bool
		served atomic.Int64
		wg     sync.WaitGroup
	)
	ctx := context.Background()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := serve.NewClient(ts.URL)
			c.Binary = g%2 == 0
			for k := 0; !stop.Load(); k++ {
				outs, rowErrs, err := c.Call(ctx, "jag", serve.MethodPredict, [][]float32{input(g*16 + k%16)})
				if err != nil {
					t.Errorf("client %d: transport error during swap: %v", g, err)
					return
				}
				for i, re := range rowErrs {
					if re != nil {
						t.Errorf("client %d: row %d failed during swap: %+v", g, i, re)
						return
					}
				}
				if len(outs) != 1 || len(outs[0]) != jag.Tiny8.OutputDim() {
					t.Errorf("client %d: malformed reply shape (%d rows)", g, len(outs))
					return
				}
				served.Add(1)
			}
		}(g)
	}

	// Let traffic establish against generation 1, then the "training
	// side" drops a new tournament winner onto the watched path.
	time.Sleep(30 * time.Millisecond)
	if err := checkpoint.Save(ckpt, 2, newModel.Nets()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Generation("jag") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("reloader never swapped the new checkpoint in")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Keep hammering the freshly swapped generation before stopping.
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if served.Load() < 8 {
		t.Fatalf("only %d requests served across the swap", served.Load())
	}
	if st := rl.State(); st.Reloads < 1 || st.LastError != "" {
		t.Fatalf("reloader state after swap: %+v", st)
	}

	// With traffic quiesced, a single request forms a batch of one —
	// the same shape as a direct forward pass — so the served row must
	// equal the new model's prediction bitwise.
	x := input(3)
	outs, rowErrs, err := serve.NewClient(ts.URL).Call(ctx, "jag", serve.MethodPredict, [][]float32{x})
	if err != nil || rowErrs != nil {
		t.Fatalf("post-swap call: %v %v", err, rowErrs)
	}
	xm := tensor.New(1, jag.InputDim)
	copy(xm.Row(0), x)
	want := newModel.Predict(xm)
	for j, v := range outs[0] {
		if v != want.At(0, j) {
			t.Fatalf("post-swap output[%d] = %v, want new model's %v bitwise", j, v, want.At(0, j))
		}
	}
}
