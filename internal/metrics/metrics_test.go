package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := Pearson(a, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := Pearson(a, []float64{8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(a, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series correlation = %v", got)
	}
	if got := Pearson(a, []float64{1}); got != 0 {
		t.Fatalf("mismatched lengths = %v", got)
	}
}

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2}, []float64{2, 4}); got != 1.5 {
		t.Fatalf("MAE = %v", got)
	}
	if got := MAE(nil, nil); got != 0 {
		t.Fatalf("empty MAE = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Figure 9", "GPUs", "Epoch (s)", "Speedup")
	tb.AddRow(1, 100.0, 1.0)
	tb.AddRow(16, float32(10.7), "9.36x")
	out := tb.Render()
	if !strings.Contains(out, "Figure 9") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "GPUs") || !strings.Contains(out, "9.36x") {
		t.Fatalf("table content missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and rows share the separator positions.
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("missing rule line:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty series must render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length wrong: %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("extremes wrong: %q", s)
	}
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Fatalf("constant series must be uniform: %q", string(flat))
	}
}
