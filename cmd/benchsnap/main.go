// Command benchsnap converts `go test -bench` text output into a
// machine-readable JSON snapshot, so the serving benchmarks
// (BenchmarkServeBatched, BenchmarkServeUnbatched,
// BenchmarkWireBinaryVsJSON, BenchmarkProxyOverhead) leave an artifact
// that scripts and CI can diff instead of a transient log line. The
// checked-in BENCH_<PR>.json files at the repo root are such snapshots,
// kept as history rather than overwritten (BENCH_8.json, then BENCH_12.json
// and BENCH_13.json either side of the SIMD micro-kernels, BENCH_14.json
// after the serve + proxy subtraction pass, BENCH_15.json with the
// streaming checkpoint's BenchmarkCheckpointSaveLoad added, BENCH_17.json
// after group dispatch took the batch window out of ProxyOverhead,
// BENCH_19.json with the forward GEMMs at the shapes serving runs, which
// PR 19 cut into tiles, BENCH_22.json with BenchmarkAdamStep and
// BenchmarkAllreduceRing8 beside the train step PR 22 stopped allocating
// in, BENCH_23.json with BenchmarkJSONEnvelope, the call envelopes' own
// codec, BENCH_27.json with BenchmarkPoolFromCheckpoint's retained_MB, the
// live heap a served checkpoint keeps, BENCH_28.json with
// BenchmarkSigmoid16x49167 and BenchmarkFrameCodec, the decoder's output
// activation and the JGT1 codec on a paper-geometry reply); CI regenerates
// the latest every run and uploads the fresh copy, so a perf regression is
// visible as a JSON diff against the committed baseline.
//
// Usage:
//
//	go test -bench 'ServeBatched|ServeUnbatched|WireBinaryVsJSON|ProxyOverhead' -run '^$' . ./internal/serve/ \
//	    | benchsnap -out BENCH_13.json
//	benchsnap -table BENCH_12.json BENCH_13.json    # markdown before/after table
//
// Input is the standard benchmark line format:
//
//	BenchmarkServeBatched-8   	    1929	    617294 ns/op	   103.7 rows/sec ...
//
// Every value/unit pair is kept verbatim (ns/op, B/op, allocs/op, and
// custom ReportMetric units alike); non-benchmark lines pass through to
// stderr so interleaved test output stays visible. The snapshot records
// GOOS/GOARCH and the benchmark's -cpu suffix but deliberately no
// timestamp: reruns on identical code and hardware should produce
// byte-identical JSON. Lines repeated by `go test -count N` are folded into
// one result holding each metric's median.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one value/unit pair of a benchmark line.
type Measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one benchmark's parsed line.
type Result struct {
	// Name is the benchmark name with the -cpu suffix stripped
	// (BenchmarkServeBatched-8 → ServeBatched).
	Name string `json:"name"`
	// CPU is the -cpu suffix (GOMAXPROCS during the run), 1 if absent.
	CPU int `json:"cpu"`
	// Iterations is the b.N the reported values are averaged over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every pair on the line.
	Metrics map[string]Measurement `json:"metrics"`
	// Runs is how many lines of this benchmark (go test -count N) were
	// folded into the medians in Metrics; omitted for a single run.
	Runs int `json:"runs,omitempty"`
}

// Snapshot is the emitted JSON document.
type Snapshot struct {
	// Schema names this document's shape, versioned independently of
	// the repo, so downstream parsers can reject what they don't know.
	Schema  string   `json:"schema"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	Results []Result `json:"results"`
}

// benchLine matches "BenchmarkName[-cpu] <iterations> <pairs...>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parseLine parses one benchmark output line, or returns false for
// headers, pass/fail trailers, and interleaved log output.
func parseLine(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	r := Result{
		Name:    strings.TrimPrefix(m[1], "Benchmark"),
		CPU:     1,
		Metrics: map[string]Measurement{},
	}
	// m[2] and m[3] matched \d+ in benchLine, so these cannot fail.
	if m[2] != "" {
		r.CPU, _ = strconv.Atoi(m[2])
	}
	r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
	fields := strings.Fields(m[4])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false // malformed pair: not a benchmark line after all
		}
		r.Metrics[fields[i+1]] = Measurement{Value: v, Unit: fields[i+1]}
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

// foldRepeats merges the lines `go test -count N` prints for one benchmark
// into a single result holding each metric's median (the upper one for an
// even N), so a snapshot taken on a noisy host is not one unlucky run.
func foldRepeats(results []Result) []Result {
	type key struct {
		name string
		cpu  int
	}
	index := map[key]int{}
	var out []Result
	var samples []map[string][]float64 // per result in out: unit → every run's value
	for _, r := range results {
		k := key{r.Name, r.CPU}
		i, seen := index[k]
		if !seen {
			i = len(out)
			index[k] = i
			out = append(out, r)
			samples = append(samples, map[string][]float64{})
		}
		for unit, m := range r.Metrics {
			samples[i][unit] = append(samples[i][unit], m.Value)
		}
	}
	for i := range out {
		runs := 0
		for unit, vs := range samples[i] {
			sort.Float64s(vs)
			out[i].Metrics[unit] = Measurement{Value: vs[len(vs)/2], Unit: unit}
			runs = max(runs, len(vs))
		}
		if runs > 1 {
			out[i].Runs = runs
		}
	}
	return out
}

// readSnapshot loads a snapshot file written by this command.
func readSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != "jag-bench/v1" {
		return s, fmt.Errorf("%s: schema %q, want jag-bench/v1", path, s.Schema)
	}
	return s, nil
}

// writeTable prints one markdown row per benchmark found in both
// snapshots: ns/op before and after, the speed-up, and the newer
// snapshot's B/op and allocs/op where it recorded them. This is how the
// before/after tables in EXPERIMENTS.md are produced.
func writeTable(w io.Writer, before, after Snapshot) error {
	old := map[string]Result{}
	for _, r := range before.Results {
		old[r.Name] = r
	}
	if _, err := fmt.Fprint(w, "| Benchmark | before ns/op | after ns/op | speed-up | after B/op | after allocs/op |\n| --- | --- | --- | --- | --- | --- |\n"); err != nil {
		return err
	}
	cell := func(r Result, unit string) string {
		if m, ok := r.Metrics[unit]; ok {
			return strconv.FormatFloat(m.Value, 'f', -1, 64)
		}
		return "–"
	}
	for _, r := range after.Results {
		o, ok := old[r.Name]
		if !ok || o.Metrics["ns/op"].Value == 0 || r.Metrics["ns/op"].Value == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "| `%s` | %s | %s | %.2f× | %s | %s |\n", r.Name, cell(o, "ns/op"), cell(r, "ns/op"),
			o.Metrics["ns/op"].Value/r.Metrics["ns/op"].Value, cell(r, "B/op"), cell(r, "allocs/op")); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchsnap: ")
	out := flag.String("out", "", "output path (default stdout)")
	table := flag.Bool("table", false, "print a markdown before/after table of two snapshot files given as arguments instead of reading stdin")
	flag.Parse()

	if *table {
		if flag.NArg() != 2 {
			log.Fatal("-table needs two snapshot files: before.json after.json")
		}
		before, err := readSnapshot(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		after, err := readSnapshot(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if err := writeTable(os.Stdout, before, after); err != nil {
			log.Fatal(err)
		}
		return
	}

	var results []Result
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		} else if strings.TrimSpace(line) != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin (run with: go test -bench ... | benchsnap)")
	}
	results = foldRepeats(results)
	// Deterministic order regardless of package interleaving.
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })

	snap := Snapshot{Schema: "jag-bench/v1", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Results: results}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(results))
}
