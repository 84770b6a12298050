// Command bench is jagbench: the end-to-end and per-layer benchmark of
// the train → serve → proxy pipeline. It defines four workloads
// (interactive_tiny, sweep_paper, fleet_mixed, train_ltfb), six
// end-to-end metrics with regression bounds (BENCHMARK.json) and ninety-one
// per-layer metrics taken in a separate traced run; README.md in this
// directory is the reference.
//
//	go run ./bench -workload sweep_paper -seed 1 -seconds 20 -trace 0   one run (the driver's form)
//	go run ./bench -seed 1 [-repeat N] [-out set.json]                  every workload, untraced then traced
//	go run ./bench -compare a.json b.json                               diff two sets against the bounds
//
// Everything is driven in-process through the constructors cmd/jagserve,
// cmd/jagproxy and cmd/ltfbtrain use, at the shipped flag defaults; all
// measurement is from outside, around calls into each layer's public
// functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: package initialisation runs before
// main, so this is as close to "process start" as the program can see.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an operator would see; BENCHMARK.json gives
// each a direction and a regression bound. fail_share is carried by the
// result line's attempted/failed counts instead: a gated metric may
// never read 0 and a healthy run fails no row.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_row", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, one block per module. Every
// workload reports every name; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"client.calls", "count"}, {"client.rows", "count"}, {"client.failed_rows", "count"},
	{"client.late_ms_p50", "ms"}, {"client.p99_ms", "ms"}, {"client.max_ms", "ms"},
	{"client.self_us_p50", "us"},

	{"proxy.requests", "count"}, {"proxy.self_us_p50", "us"}, {"proxy.self_us_p90", "us"},
	{"proxy.retries", "count"}, {"proxy.hedges", "count"}, {"proxy.failed", "count"},
	{"proxy.backend_share_max", "ratio"},

	{"serve_http.requests", "count"}, {"serve_http.self_us_p50", "us"},
	{"serve_http.self_us_per_row", "us"}, {"serve_http.status_non2xx", "count"},

	{"serve_wire.jgt1_encode_ns_per_row", "ns"}, {"serve_wire.jgt1_decode_ns_per_row", "ns"},
	{"serve_wire.jgt1_bytes_per_row", "bytes"}, {"serve_wire.json_encode_ns_per_row", "ns"},
	{"serve_wire.json_decode_ns_per_row", "ns"}, {"serve_wire.json_bytes_per_row", "bytes"},
	{"serve_wire.allocs_per_row", "count"},

	{"serve_queue.wait_ms_p50", "ms"}, {"serve_queue.wait_ms_p90", "ms"},
	{"serve_queue.assembly_us_p50", "us"}, {"serve_queue.mean_batch", "rows"},
	{"serve_queue.batches", "count"}, {"serve_queue.overloads", "count"},
	{"serve_queue.expired", "count"}, {"serve_queue.cancelled", "count"},
	{"serve_queue.lone_call_ms", "ms"}, {"serve_queue.hop_us_per_row", "us"},
	{"serve_queue.allocs_per_row", "count"},

	{"serve_cache.hits", "count"}, {"serve_cache.misses", "count"}, {"serve_cache.hit_ratio", "ratio"},

	{"serve_pool.passes", "count"}, {"serve_pool.rows_per_pass_p50", "rows"},
	{"serve_pool.pass_ms_p50", "ms"}, {"serve_pool.busy_share", "ratio"},
	{"serve_pool.self_us_per_pass", "us"}, {"serve_pool.probe_ms", "ms"},

	{"cyclegan.predict_us_per_row", "us"}, {"cyclegan.invert_us_per_row", "us"},
	{"cyclegan.predict_allocs_per_pass", "count"}, {"cyclegan.predict_kb_per_row", "KB"},
	{"cyclegan.train_step_ms_p50", "ms"}, {"cyclegan.train_step_share", "ratio"},

	{"nn.forward_us_per_row", "us"}, {"nn.self_share", "ratio"},
	{"nn.forward_allocs_per_pass", "count"}, {"nn.fwdbwd_ms_per_step", "ms"},

	{"tensor.gemm_us_per_row", "us"}, {"tensor.gemm_gflops", "gflop/s"},
	{"tensor.gemm_flops_per_row", "flop"}, {"tensor.gemm_bytes_per_row", "bytes"},
	{"tensor.gemm_train_ms_per_step", "ms"},

	{"opt.adam_ms_per_step", "ms"},

	{"trainer.steps", "count"}, {"trainer.step_ms_p50", "ms"}, {"trainer.step_ms_p90", "ms"},
	{"trainer.evaluate_ms_p50", "ms"},

	{"datastore.fetch_ms_p50", "ms"}, {"datastore.fetch_share", "ratio"},
	{"datastore.local_hits", "count"}, {"datastore.remote_samples", "count"},
	{"datastore.backing_reads", "count"}, {"datastore.bytes_sent", "bytes"},
	{"datastore.local_ratio", "ratio"},

	{"comm.allreduce_calls", "count"}, {"comm.allreduce_bytes", "bytes"},
	{"comm.allreduce_ms_p50", "ms"}, {"comm.allreduce_share", "ratio"},

	{"ltfb.tournaments", "count"}, {"ltfb.tournament_ms_p50", "ms"},
	{"ltfb.exchange_bytes", "bytes"}, {"ltfb.adoptions", "count"},

	{"checkpoint.save_ms", "ms"}, {"checkpoint.load_ms", "ms"}, {"checkpoint.bytes", "bytes"},

	{"runtime.allocs_per_row", "count"}, {"runtime.alloc_kb_per_row", "KB"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.host_speed", "ratio"},

	{"trace.spans", "count"}, {"trace.overhead_pct", "%"}, {"trace.unaccounted_pct", "%"},
}

// workloadNames is the run order of the all-workloads command.
var workloadNames = []string{"interactive_tiny", "sweep_paper", "fleet_mixed", "train_ltfb"}

// params sizes one workload run.
type params struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	trace    bool
	outDir   string // checkpoints (removed at exit) and trace files
	// smoke shrinks the run for the tier-1 test: small16 stands in for
	// paper64, one set-up instead of three, a minimal ladder and a
	// short training schedule. Never set by the command line.
	smoke bool
	// probe is the run's record of host speed, started by runWorkload.
	probe *hostProbe
}

// result is what one workload run measured. e2e is always filled (in a
// traced run from a window traced half the time); layers only when
// traced.
type result struct {
	digest    string
	attempted int64 // rows sent, warm-up included
	failed    int64 // rows failed, refused or mismatched
	problems  []string
	e2e       map[string]float64
	layers    map[string]float64
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the driver reads: the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newReport renders a run's metrics under defs, insisting that exactly
// the declared names were measured: a metric that silently goes missing
// would read as "no regression" forever.
func newReport(res *result, values map[string]float64, defs []metricDef) (report, error) {
	rep := report{Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return rep, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return rep, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	rep.Correct = res.failed == 0 && len(res.problems) == 0
	return rep, nil
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process and end with the result line (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed: rows, Zipf keys, open-loop schedule and training data derive from it")
	seconds := fs.Float64("seconds", 20, "measured window per run")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	outDir := fs.String("outdir", "bench/out", "directory for temporary checkpoints and trace-<workload>.jsonl")
	repeat := fs.Int("repeat", 1, "without -workload: run this many sets and report medians and quartiles")
	out := fs.String("out", "", "without -workload: write the set(s) as JSON here, for -compare")
	compare := fs.Bool("compare", false, "compare two set files (arguments: a.json b.json) against BENCHMARK.json's bounds")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract read by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		return compareSets(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	case *workload == "":
		return runAll(ctx, stdout, stderr, *seed, *seconds, *repeat, *outDir, *out)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	p := params{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	fmt.Fprintf(stdout, "env workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s\n",
		p.workload, p.seed, p.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runWorkload(ctx, p, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values, defs := res.e2e, endToEnd
	if p.trace {
		values, defs = res.layers, perLayer
	}
	rep, err := newReport(res, values, defs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "input_digest %s %s\n", p.workload, res.digest)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(stdout, "%-40s %16.6g ratio (%d of %d rows)\n", "fail_share", share, res.failed, res.attempted)
	for _, msg := range res.problems {
		fmt.Fprintln(stdout, "PROBLEM:", msg)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runWorkload dispatches one workload by name.
func runWorkload(ctx context.Context, p params, log io.Writer) (*result, error) {
	p.probe = startHostProbe()
	defer p.probe.finish()
	if p.workload == "train_ltfb" {
		return runTraining(ctx, p, log)
	}
	for _, w := range servingWorkloads {
		if w.name == p.workload {
			return runServing(ctx, p, w, log)
		}
	}
	names := append([]string(nil), workloadNames...)
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (have %v)", p.workload, names)
}
