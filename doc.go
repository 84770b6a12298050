// Package repro is a from-scratch Go reproduction of "Parallelizing
// Training of Deep Generative Models on Massive Scientific Datasets"
// (Jacobs et al., CLUSTER 2019): the LTFB tournament algorithm for training
// GANs at scale, the LBANN-style training engine it extends, the
// distributed in-memory data store, and simulated substitutes for the
// hardware and data the paper used (the Lassen supercomputer, GPFS, and the
// 10M-sample JAG ICF corpus).
//
// Beyond training, the repository covers the deployment step the paper
// motivates: trained surrogates replacing the JAG simulator for
// downstream consumers. internal/serve coalesces concurrent requests
// into single batched forward passes (the serving-side twin of the
// paper's ingest batching: rows wait in one queue per method and a free
// worker takes what is due), spreads them over a pool of model replicas
// with optional ensemble averaging across tournament winners, caches
// repeated design points in an LRU, and sheds overload via bounded
// backpressure. The pipeline serves any serve.Model — named methods
// with per-method tensor widths; a pool of CycleGAN replicas serves
// "predict" (forward bundles) and "invert" (inverse design via the
// G(F(x)) self-consistency path), batched separately so methods never
// share a forward pass — and a serve.Registry maps model names to
// independently configured servers, so one process hosts many models.
// Requests have a context-aware lifecycle: calls carry a per-request
// deadline, an interactive lane preempts bulk scans in the batching
// queue, rows whose caller already gave up are dropped before the
// forward pass, and batched replies report aligned per-row errors so
// one bad row cannot fail a batch.
//
// Serving is also live across model updates: the LTFB loop keeps
// promoting new tournament winners, so serve.Registry.Replace
// atomically swaps the server behind a name and closes the old one —
// a request whose rows reached the old pool is answered whole by it, a
// request that meets it closed is resubmitted to the new one, and the
// swap waits for the old pool's passes, never for a client — with a
// per-name generation counter recording each swap. A serve.Reloader
// automates the swap from disk: it polls a spec/checkpoint path
// (cheap stat signature first, SHA-256 content fingerprint second, so
// a touched-but-identical file never reloads), rebuilds the replica
// pool from the new winner, smoke-tests it with a canary forward pass
// per method, and promotes it only if the canary passes — a corrupt or
// NaN-weight checkpoint is rejected, the old generation keeps serving,
// and the failure is reported under "reload" in /healthz.
//
// cmd/jagserve exposes the registry over the versioned v1 HTTP API —
// GET /v1/models (listing + readiness + generation), POST
// /v1/models/{name}/{method} (content-negotiated JSON or binary
// little-endian float32 tensor frames, serve/wire.go), GET
// /v1/models/{name}/stats, and /healthz with per-model readiness and
// reload state; -watch -reload-interval runs a Reloader per model.
// cmd/ltfbtrain -checkpoint saves a trained population's best models
// with the spec sidecar jagserve -models loads; serve.Client is the Go
// client; and examples/serving walks the whole train → checkpoint →
// register → query → hot-reload path (both transports, both methods)
// in one process.
//
// The performance model closes the loop: internal/perfmodel
// regenerates the paper's training figures (9–11) analytically and
// extends the same treatment to serving — a capacity model of the
// batching queue (an HTTP request's rows due at once and taken by the
// first free worker, batch-window fill for lone Call rows, replica parallelism, cache hit
// rate, priority lanes) calibrated by serve.CostProbe on the running
// binary, predicting sustainable QPS and p50/p99 latency per replica
// count (cmd/figures -fig S1, examples/capacity), and validated
// against a measured in-process benchmark in capacity_test.go.
//
// Past one process, cmd/jagproxy scales the serving tier by
// replication — the paper's strong-scaling argument applied to
// inference. internal/proxy fronts N jagserve replicas with active
// health probing and passive circuit breaking, weighted least-loaded
// routing seeded by each backend's probed capacity, bounded retries
// with interactive-lane hedging, and per-client rate limiting;
// perfmodel.FleetScenario extends the capacity model to the fleet and
// fleet_test.go validates it against a measured 3-backend fleet,
// backend kill included (docs/FLEET.md, examples/fleet).
//
// The conventions this stack depends on are tier-1 tests in
// lint_test.go: TestSuiteCleanOnRepo runs go vet (whose copylocks check
// catches a copied lock-free metric struct) and finds contexts minted
// where a ctx was at hand, TestCtxFlow pins that check's shapes, and
// TestMetricName scrapes a live proxy and its backends for canonical
// jag_* families, and TestExportedNamesHaveCallers type-checks the module
// and fails on an exported internal/ name that only tests reach, with
// exemptNames its one exception list; docs/STATIC_ANALYSIS.md documents
// each.
//
// Start with README.md for the layout and quickstart, docs/SERVING.md
// and docs/FLEET.md for the serving and fleet operator guides, and
// EXPERIMENTS.md for
// paper-vs-measured results. The benchmarks in bench_test.go
// regenerate every figure of the paper's evaluation section;
// cmd/figures prints them as tables.
package repro
