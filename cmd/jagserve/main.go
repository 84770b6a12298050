// Command jagserve serves surrogate predictions over HTTP from
// checkpoints produced by cmd/ltfbtrain — the deployment step of the
// paper's workflow, where the trained generative model stands in for
// the JAG simulator. One process serves any number of named models
// (per-geometry, per-campaign, or top-k ensembles side by side); each
// model runs behind its own internal/serve micro-batching queue and
// replica pool, and each model method ("predict", "invert") batches
// independently, so rows bound for different forward passes never mix.
//
// Every request carries a lifecycle: a priority class ("interactive",
// the default, preempts "bulk" in the batching queue — set it via the
// "priority" JSON field or the X-Priority header) and an optional
// deadline ("deadline_ms" field, X-Deadline-Ms header, or the -deadline
// flag's default). Rows whose deadline passes while still queued are
// dropped before the forward pass and reported as per-row 504 errors; a
// batch with some good and some bad rows returns 200 with an aligned
// "errors" array instead of failing wholesale.
//
// Bodies are content-negotiated: JSON ({"input":[...]} or
// {"inputs":[[...],...]}), or the binary tensor framing of
// serve/wire.go (Content-Type/Accept: application/x-jag-tensor) so
// Default64-geometry images ship as raw little-endian float32 tensors
// instead of JSON arrays.
//
// Every model is loaded one way (serve.Open), at start-up and on each
// hot swap: its pool is canary-tested with one forward pass per method,
// so a corrupt or NaN-weight checkpoint is never served, and its predict
// path is cost-probed at the effective -max-batch, publishing the
// sustainable rows/s as capacity_qps on the stats route and in /healthz
// (read by cmd/jagproxy's health probe for weighted routing).
//
// With -watch, each model's spec/checkpoint path is polled (every
// -reload-interval) and a newly written checkpoint — e.g. the next
// LTFB tournament winner saved by a concurrently running ltfbtrain —
// is hot-swapped in without dropping traffic: the replacement is
// loaded, canary-tested and probed before promotion, so capacity_qps
// is the new generation's own; the old model drains its in-flight
// batches and closes, and a checkpoint that fails to load or fails the
// canary is rejected while the old model keeps serving (the rejection
// shows up under "reload" in /healthz). Per-model stats and /healthz
// report the serving generation (1 + completed reloads).
// A swap waits only for the old model's passes over rows it already
// admitted, never for a client to read its reply; a request that meets
// the old model closed is answered by the new one.
//
// Endpoints:
//
//	GET  /v1/models                  list models: methods, dims, readiness, generation
//	POST /v1/models/{name}/{method}  batched call, JSON or binary tensor body
//	GET  /v1/models/{name}/stats     per-model latency/occupancy/cache counters + stage quantiles
//	GET  /metrics                    Prometheus text exposition, all models
//	GET  /healthz                    per-model readiness + reload state; 503 if any model closed
//
// Observability (docs/OBSERVABILITY.md is the full reference): every
// request gets an X-Request-Id correlation ID (caller-supplied values
// propagate; responses echo it) and a Server-Timing header decomposing
// its latency into queue-wait, batch-assembly, and forward spans.
// -log-format text|json enables a structured access log on stderr, one
// record per request, carrying the same ID and spans. -debug-addr
// starts a second, operator-only listener with /debug/pprof/* and a
// duplicate /metrics, so profiling and scraping survive even when the
// public listener is saturated — never expose it publicly.
//
// Usage:
//
//	ltfbtrain -trainers 4 -checkpoint ckpts/fwd.ckpt -top 2
//	jagserve -models jag=ckpts/fwd.ckpt -models jag-top2=ckpts2/ -ensemble
//	jagserve -models jag=ckpts/fwd.ckpt -watch -reload-interval 5s
//	curl -d '{"input":[0.5,0.5,0.5,0.5,0.5],"scalars_only":true}' \
//	    localhost:8080/v1/models/jag/predict
//	curl -d '{"input":[0.5,0.5,0.5,0.5,0.5]}' localhost:8080/v1/models/jag/invert
//
// Each -models value is name=path, where path is a *.spec.json file, a
// checkpoint (its .spec.json sidecar is loaded), or a directory holding
// exactly one spec.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// modelFlag is one parsed -models entry.
type modelFlag struct {
	name, path string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("jagserve: ")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	var models []modelFlag
	flag.Func("models", "named model as name=path (spec file, checkpoint, or spec dir); repeatable", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		models = append(models, modelFlag{name: name, path: path})
		return nil
	})
	replicas := flag.Int("replicas", 1, "workers per model over one weight set per checkpoint (raised to the checkpoint count if lower; ignored with -ensemble, which uses one per checkpoint)")
	ensemble := flag.Bool("ensemble", false, "average predictions across each model's checkpoints instead of round-robin")
	maxBatch := flag.Int("max-batch", 64, "max requests coalesced into one forward pass")
	maxDelay := flag.Duration("max-delay", 2*time.Millisecond, "max wait before flushing a partial batch; HTTP requests are dispatched as soon as a worker is idle and do not wait for it")
	queueDepth := flag.Int("queue-depth", 0, "max in-flight requests per model before 503 (0 = 4*max-batch)")
	cacheSize := flag.Int("cache-size", 1024, "per-model LRU response-cache entries, filled by the interactive lane only (0 disables)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline; rows still queued past it are dropped without a forward pass (0 disables; requests override via deadline_ms)")
	watch := flag.Bool("watch", false, "watch each model's spec/checkpoint path and hot-swap newly written checkpoints in without dropping traffic (canary-tested; a bad checkpoint is rejected and the old model keeps serving)")
	reloadInterval := flag.Duration("reload-interval", 2*time.Second, "poll period for -watch")
	debugAddr := flag.String("debug-addr", "", "optional private listen address serving /debug/pprof/* and a duplicate /metrics (no auth — never expose publicly)")
	logFormat := flag.String("log-format", "", "structured access log on stderr: \"text\" or \"json\" (empty disables)")
	flag.Parse()

	accessLog, err := serve.NewAccessLogger(*logFormat, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	if len(models) == 0 {
		log.Fatal("need -models name=path")
	}

	// -watch: NewReloader loads each model as Open does and polls its
	// path. The watchers stop (watchCancel) before reg.Close so a swap
	// cannot race the terminal shutdown.
	cfg := serve.LoadConfig{
		Replicas: *replicas,
		Ensemble: *ensemble,
		Server: serve.Config{
			MaxBatch:   *maxBatch,
			MaxDelay:   *maxDelay,
			QueueDepth: *queueDepth,
			CacheSize:  *cacheSize,
		},
		Logf: log.Printf,
	}
	reg := serve.NewRegistry()
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	for _, m := range models {
		if *watch {
			rl, err := serve.NewReloader(reg, m.name, m.path, cfg)
			if err != nil {
				log.Fatalf("model %s: %v", m.name, err)
			}
			go rl.Run(watchCtx, *reloadInterval)
			log.Printf("model %s: watching %s (every %v)", m.name, m.path, *reloadInterval)
			continue
		}
		srv, err := serve.Open(m.path, cfg)
		if err != nil {
			log.Fatalf("model %s: %v", m.name, err)
		}
		if err := reg.Register(m.name, srv); err != nil {
			log.Fatal(err)
		}
	}

	// -debug-addr: a second, operator-only listener. Its /metrics
	// duplicates the public one; /debug/pprof/* is mounted explicitly
	// (not via the pprof import side effect on DefaultServeMux) so the
	// profiles exist only on this private address.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.Handle("GET /metrics", serve.MetricsHandler(reg))
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("debug listener on %s (/metrics, /debug/pprof/)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	handler := serve.NewRegistryHandler(reg, serve.HandlerConfig{DefaultDeadline: *deadline, AccessLog: accessLog})
	// Listen before logging so "-addr :0" (fleet tests and scripts that
	// launch ephemeral backends) reports the port the kernel actually
	// bound, not the literal flag value.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %d model(s) %v on %s", reg.Len(), reg.Names(), ln.Addr())
	err = serve.ServeUntilSignal(ln, handler, func() {
		watchCancel() // no hot swaps once shutdown starts
		reg.Close()
	})
	if err != nil {
		log.Fatal(err)
	}
}
