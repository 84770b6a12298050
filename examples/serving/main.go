// Serving quickstart: the full path from training to the v1 serving
// API — train two tiny surrogates, checkpoint them, register both under
// names in a serve.Registry, mount the versioned HTTP surface, and
// query it like a remote client would: list the models, run a
// binary-transport predict call against one model and an invert call
// against the other. Then the live-ops step: a new tournament winner overwrites the
// watched checkpoint and a serve.Reloader hot-swaps it in (canary
// forward pass before promotion, old pool drained, generation counter
// bumped) without restarting or dropping a request. This is the
// workflow cmd/ltfbtrain + cmd/jagserve -watch run across two
// processes, condensed into one.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serving: ")

	// 1. Train two small surrogates — stand-ins for two campaigns'
	// models served side by side (see examples/ltfb_scaling for the
	// population workflow that produces real tournament winners).
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{32}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	dir, err := os.MkdirTemp("", "serving-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	reg := serve.NewRegistry()
	defer reg.Close()
	ckpts := map[string]string{}
	load := serve.LoadConfig{
		Replicas: 2,
		Server:   serve.Config{MaxBatch: 32, MaxDelay: 2 * time.Millisecond, CacheSize: 256},
	}
	var rl *serve.Reloader
	for i, name := range []string{"campaign-a", "campaign-b"} {
		fmt.Printf("training tiny surrogate %q...\n", name)
		model, err := core.TrainSurrogate(cfg, 256, 60+60*i, 16, int64(3+i))
		if err != nil {
			log.Fatal(err)
		}

		// 2. Checkpoint with the serving spec sidecar, as ltfbtrain
		// -checkpoint does; jagserve -models would load exactly this.
		ckpt := filepath.Join(dir, name+".ckpt")
		ckpts[name] = ckpt
		if err := checkpoint.Save(ckpt, 120, model.Nets()); err != nil {
			log.Fatal(err)
		}
		spec := serve.ModelSpec{Model: cfg, Step: 120, Checkpoints: []string{ckpt}}
		if err := serve.SaveSpec(serve.SpecPath(ckpt), spec); err != nil {
			log.Fatal(err)
		}

		// 3. Load the checkpoint into a 2-replica pool behind its own
		// micro-batching queue and register it under its name — the one
		// load path jagserve uses: serve.Open canary-tests the pool and
		// probes its capacity before anything is served. campaign-a is
		// watched for new tournament winners (step 6), so a Reloader
		// opens and registers it. Each registered model gets independent
		// lanes, cache, and stats; predict and invert batch separately
		// inside each server.
		if name == "campaign-a" {
			if rl, err = serve.NewReloader(reg, name, ckpt, load); err != nil {
				log.Fatal(err)
			}
			continue
		}
		srv, err := serve.Open(ckpt, load)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.Register(name, srv); err != nil {
			log.Fatal(err)
		}
	}

	// 4. Mount the v1 HTTP surface (what cmd/jagserve listens on) and
	// talk to it over real HTTP.
	ts := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{
		DefaultDeadline: time.Second,
	}))
	defer ts.Close()
	ctx := context.Background()

	cl := serve.NewClient(ts.URL)
	models, err := cl.Models(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range models {
		fmt.Printf("model %-10s predict %dx%d, invert %dx%d\n",
			m.Name,
			m.Methods[serve.MethodPredict].In, m.Methods[serve.MethodPredict].Out,
			m.Methods[serve.MethodInvert].In, m.Methods[serve.MethodInvert].Out)
	}

	// 5a. A bulk design-space sweep against campaign-a over the binary
	// tensor transport: 64 rows ship as one little-endian float32 frame
	// (wire.go) instead of ~50k-element JSON arrays per row, and the
	// response comes back as a frame too.
	bin := serve.NewClient(ts.URL)
	bin.Binary = true
	bin.Priority = serve.Bulk
	sweep := make([][]float32, 64)
	for i := range sweep {
		sweep[i] = []float32{float32(i) / 64, 0.5, 0.5, 0.25, 0.75}
	}
	outs, rowErrs, err := bin.Call(ctx, "campaign-a", serve.MethodPredict, sweep)
	if err != nil {
		log.Fatal(err)
	}
	if rowErrs != nil {
		log.Fatalf("sweep rows failed: %+v", rowErrs)
	}
	fmt.Printf("binary predict sweep: %d rows x %d outputs (campaign-a)\n", len(outs), len(outs[0]))

	// 5b. Inverse design against campaign-b: the invert method runs the
	// CycleGAN's G(F(x)) self-consistency path, recovering the inputs a
	// design point maps back to — served from the same process, batched
	// separately from predict traffic.
	inv, rowErrs, err := cl.Call(ctx, "campaign-b", serve.MethodInvert, [][]float32{{0.3, 0.6, 0.5, 0.5, 0.5}})
	if err != nil {
		log.Fatal(err)
	}
	if rowErrs != nil {
		log.Fatalf("invert row failed: %+v", rowErrs)
	}
	fmt.Printf("invert [0.3 0.6 0.5 0.5 0.5] -> %.3v (campaign-b)\n", inv[0])

	// 6. Hot checkpoint reload: the LTFB loop keeps promoting new
	// tournament winners, and a serving process that needs a restart to
	// pick one up is always stale. The Reloader from step 3 watches the
	// checkpoint path; when a new winner lands it builds the next
	// generation through serve.Open (a corrupt or NaN checkpoint fails
	// the canary and the old model keeps serving), and atomically swaps
	// it in — in-flight requests drain against the old model, new ones
	// answer from the new. cmd/jagserve runs exactly this loop under
	// -watch -reload-interval; here we poll once, explicitly.
	before, _, err := cl.Call(ctx, "campaign-a", serve.MethodPredict, [][]float32{{0.5, 0.5, 0.5, 0.5, 0.5}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training a new tournament winner for campaign-a...")
	winner, err := core.TrainSurrogate(cfg, 256, 90, 16, 99)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkpoint.Save(ckpts["campaign-a"], 240, winner.Nets()); err != nil {
		log.Fatal(err)
	}
	swapped, err := rl.Check()
	if err != nil {
		log.Fatal(err)
	}
	after, _, err := cl.Call(ctx, "campaign-a", serve.MethodPredict, [][]float32{{0.5, 0.5, 0.5, 0.5, 0.5}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot reload: swapped=%v generation=%d, first scalar %.4f -> %.4f (no restart, no dropped requests)\n",
		swapped, reg.Generation("campaign-a"), before[0][0], after[0][0])

	// 7. Per-model stats: each registered model owns its counters, with
	// a per-method split and the hot-swap generation (campaign-a's
	// counters restarted at the swap: each generation's server owns its
	// own stats).
	tab := metrics.NewTable("per-model serving stats",
		"model", "gen", "requests", "predict", "invert", "batches", "mean_batch", "cache_hits")
	for _, name := range reg.Names() {
		snap, err := cl.Stats(ctx, name)
		if err != nil {
			log.Fatal(err)
		}
		tab.AddRow(name, snap.Generation, snap.Requests,
			snap.MethodRequests[serve.MethodPredict], snap.MethodRequests[serve.MethodInvert],
			snap.Batches, snap.MeanBatch, snap.CacheHits)
	}
	fmt.Print(tab.Render())
}
