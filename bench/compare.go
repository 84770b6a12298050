package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// setFile is the result of -repeat sets of every workload, untraced
// and traced: what -out writes and -compare reads.
type setFile struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	// Digests maps workload → input digest.
	Digests map[string]string `json:"digests"`
	// Values maps workload → metric → one value per set.
	Values map[string]map[string][]float64 `json:"values"`
	Units  map[string]string               `json:"units"`
	// Failed maps workload → rows failed or mismatched over all sets.
	Failed map[string]int64 `json:"failed"`
}

// runChild runs one workload in a fresh process, so resident memory,
// GC state and caches do not leak from one workload into the next, and
// returns its result line and input digest.
func runChild(ctx context.Context, stderr io.Writer, self string, args ...string) (report, string, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, "", fmt.Errorf("%v: no result line (%v): %s", args, runErr, out.String())
	}
	digest := ""
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "input_digest "); ok {
			_, digest, _ = strings.Cut(rest, " ")
		}
		if strings.HasPrefix(line, "PROBLEM:") || strings.HasPrefix(line, "WARNING") {
			fmt.Fprintln(stderr, line)
		}
	}
	return rep, digest, nil
}

// runAll runs every workload untraced then traced, repeat times over,
// prints every metric by name with its unit, and exits non-zero when
// any run failed a row or an output check.
func runAll(ctx context.Context, stdout, stderr io.Writer, seed int64, seconds float64, repeat int, outDir, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	set := setFile{
		Seed: seed, Seconds: seconds, Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		Digests: map[string]string{}, Values: map[string]map[string][]float64{}, Units: map[string]string{}, Failed: map[string]int64{},
	}
	fmt.Fprintf(stdout, "env seed=%d seconds=%g sets=%d nproc=%d gomaxprocs=%d %s\n",
		seed, seconds, repeat, set.Nproc, set.Gomaxprocs, runtime.Version())
	ok := true
	for i := 0; i < repeat; i++ {
		for _, w := range workloadNames {
			if set.Values[w] == nil {
				set.Values[w] = map[string][]float64{}
			}
			for _, trace := range []string{"0", "1"} {
				rep, digest, err := runChild(ctx, stderr, self, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-outdir", outDir)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				for name, m := range rep.Metrics {
					set.Values[w][name] = append(set.Values[w][name], m.Value)
					set.Units[name] = m.Unit
				}
				set.Digests[w] = digest
				set.Failed[w] += rep.Failed
				ok = ok && rep.Correct
				fmt.Fprintf(stdout, "set %d %s trace=%s: %d rows attempted, %d failed, correct=%t\n", i+1, w, trace, rep.Attempted, rep.Failed, rep.Correct)
			}
		}
	}
	printSet(stdout, set)
	if outPath != "" {
		buf, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "FAIL: at least one run failed a row or an output check")
		return 1
	}
	return 0
}

// printSet prints one line per metric and workload: the median over
// the sets and, with more than one set, the quartiles.
func printSet(w io.Writer, set setFile) {
	for _, name := range workloadNames {
		fmt.Fprintf(w, "input_digest %s %s\n", name, set.Digests[name])
	}
	fmt.Fprintf(w, "%-38s %-8s", "metric", "unit")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %28s", name)
	}
	fmt.Fprintln(w)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Fprintf(w, "%-38s %-8s", d.name, d.unit)
			for _, name := range workloadNames {
				q1, q2, q3 := quartiles(set.Values[name][d.name])
				cell := fmt.Sprintf("%.6g", q2)
				if len(set.Values[name][d.name]) > 1 {
					cell = fmt.Sprintf("%.5g [%.5g %.5g]", q2, q1, q3)
				}
				fmt.Fprintf(w, " %28s", cell)
			}
			fmt.Fprintln(w)
		}
	}
	for _, name := range workloadNames {
		fmt.Fprintf(w, "%-38s %-8s %s: %d rows\n", "failed", "count", name, set.Failed[name])
	}
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// exactCounts are the program-made counts that must repeat exactly
// between two same-seed sets.
var exactCounts = []string{"comm.allreduce_calls", "comm.allreduce_bytes", "ltfb.exchange_bytes", "ltfb.adoptions", "tensor.gemm_flops_per_row"}

// compareSets prints, per (end-to-end metric, workload), both medians,
// the relative change, the run-to-run spread and the bound, and a
// verdict: worse when b's median is worse than a's by more than the
// bound and the spread; unresolved when the spread is wider than the
// bound, unless every run of b reads better than every run of a; ok
// otherwise. It exits non-zero on any worse, on failed rows, and when
// an exact count differs between same-seed sets.
func compareSets(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	var spec benchmarkSpec
	var a, b setFile
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-18s %-16s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.Values[w.Name][m.Name], b.Values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-16s missing from a set\n", w.Name, m.Name)
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			sign := 1.0 // positive change = worse
			if m.Better == "higher" {
				sign = -1
			}
			change := sign * (b2 - a2) / a2
			spread := math.Max(a3-a1, b3-b1) / a2
			allBetter := true
			for _, x := range va {
				for _, y := range vb {
					allBetter = allBetter && sign*(y-x) < 0
				}
			}
			verdict := "ok"
			switch {
			case change > m.Bound && change > spread:
				verdict = "worse"
				bad++
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-18s %-16s %12.5g %12.5g %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, a2, b2, 100*change, 100*spread, 100*m.Bound, verdict)
		}
		if a.Failed[w.Name]+b.Failed[w.Name] > 0 {
			fmt.Fprintf(stdout, "%-18s failed rows: a %d, b %d  worse\n", w.Name, a.Failed[w.Name], b.Failed[w.Name])
			bad++
		}
	}
	if a.Seed == b.Seed && a.Seconds == b.Seconds {
		for _, w := range spec.Workloads {
			for _, name := range exactCounts {
				va, vb := a.Values[w.Name][name], b.Values[w.Name][name]
				same := len(va) > 0 && len(vb) > 0
				for _, x := range append(append([]float64(nil), va...), vb...) {
					same = same && x == va[0]
				}
				if !same {
					fmt.Fprintf(stdout, "%-18s %-28s differs between same-seed sets: %v vs %v\n", w.Name, name, va, vb)
					bad++
				}
			}
			if a.Digests[w.Name] != b.Digests[w.Name] {
				fmt.Fprintf(stdout, "%-18s input digest differs: %s vs %s\n", w.Name, a.Digests[w.Name], b.Digests[w.Name])
				bad++
			}
		}
		fmt.Fprintln(stdout, "same seed and seconds: exact counts and input digests checked")
	}
	if bad > 0 {
		return 1
	}
	return 0
}
