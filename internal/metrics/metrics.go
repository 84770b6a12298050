// Package metrics provides the repo's instrumentation primitives: the
// measurement and reporting helpers the experiment harness uses
// (per-scalar correlation for the prediction-quality figures,
// fixed-width text tables), plus the serving-side observability core —
// lock-free streaming latency histograms with exponential buckets and
// quantiles (histogram.go), and a labeled named-metric registry that a
// scrape fills from those instruments and renders in the Prometheus text
// exposition format (registry.go). internal/serve and internal/proxy
// build their /metrics endpoints on these, a new registry per scrape;
// docs/OBSERVABILITY.md documents the exposed surface.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Pearson returns the linear correlation of two equal-length series, or 0
// for degenerate input. The Figure 7 reproduction reports it per scalar.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// MAE returns the mean absolute difference of two equal-length series.
func MAE(a, b []float64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}

// Table is a fixed-width text table for regenerated paper results.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v for non-strings and
// %.4g for floats.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// sparkChars are the eight block glyphs Sparkline maps values onto.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a compact unicode strip, for showing loss
// trajectories inline in experiment logs. An empty or constant series
// renders as mid-height blocks.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]rune, len(values))
	for i, v := range values {
		idx := len(sparkChars) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkChars)-1))
		}
		out[i] = sparkChars[idx]
	}
	return string(out)
}
