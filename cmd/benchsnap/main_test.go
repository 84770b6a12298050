package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkServeBatched-8   \t    1929\t    617294 ns/op\t   103.7 rows/sec")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "ServeBatched" || r.CPU != 8 || r.Iterations != 1929 {
		t.Fatalf("parsed %+v", r)
	}
	if m := r.Metrics["ns/op"]; m.Value != 617294 {
		t.Fatalf("ns/op = %+v", m)
	}
	if m := r.Metrics["rows/sec"]; m.Value != 103.7 {
		t.Fatalf("rows/sec = %+v", m)
	}
}

func TestParseLineNoCPUSuffix(t *testing.T) {
	r, ok := parseLine("BenchmarkWire 100 12.5 ns/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "Wire" || r.CPU != 1 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParseLineRejectsNonBenchmarks(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t2.5s",
		"",
		"BenchmarkBroken-4 notanumber ns/op",
		"--- BENCH: BenchmarkX",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line %q wrongly parsed as a benchmark", line)
		}
	}
}

func TestWriteTable(t *testing.T) {
	mk := func(name string, ns float64, extra map[string]float64) Result {
		r := Result{Name: name, Metrics: map[string]Measurement{"ns/op": {Value: ns, Unit: "ns/op"}}}
		for u, v := range extra {
			r.Metrics[u] = Measurement{Value: v, Unit: u}
		}
		return r
	}
	before := Snapshot{Results: []Result{mk("GemmTN128", 1000, nil), mk("OnlyBefore", 5, nil)}}
	after := Snapshot{Results: []Result{
		mk("GemmTN128", 250, map[string]float64{"B/op": 64, "allocs/op": 2}),
		mk("OnlyAfter", 7, nil),
	}}
	var sb strings.Builder
	if err := writeTable(&sb, before, after); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header, rule and one shared benchmark, got:\n%s", sb.String())
	}
	if want := "| `GemmTN128` | 1000 | 250 | 4.00× | 64 | 2 |"; lines[2] != want {
		t.Fatalf("row %q, want %q", lines[2], want)
	}
}

func TestFoldRepeatsTakesMedians(t *testing.T) {
	var results []Result
	for _, line := range []string{
		"BenchmarkGemmTN128-2 20 300 ns/op 6 allocs/op",
		"BenchmarkOther-2 20 50 ns/op",
		"BenchmarkGemmTN128-2 20 100 ns/op 6 allocs/op",
		"BenchmarkGemmTN128-2 20 200 ns/op 8 allocs/op",
	} {
		r, ok := parseLine(line)
		if !ok {
			t.Fatalf("line %q not recognized", line)
		}
		results = append(results, r)
	}
	got := foldRepeats(results)
	if len(got) != 2 || got[0].Name != "GemmTN128" || got[1].Name != "Other" {
		t.Fatalf("folded to %+v", got)
	}
	if got[0].Runs != 3 || got[0].Metrics["ns/op"].Value != 200 || got[0].Metrics["allocs/op"].Value != 6 {
		t.Fatalf("GemmTN128 folded to %+v", got[0])
	}
	if got[1].Runs != 0 || got[1].Metrics["ns/op"].Value != 50 {
		t.Fatalf("single run changed: %+v", got[1])
	}
}
