package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Registry is one scrape's worth of named metrics — counters, gauges
// and histograms keyed by (name, labels) — rendered in the Prometheus
// text exposition format. It is built fresh per scrape by one goroutine
// and never shared: instrumented code keeps its own lock-free state
// (atomic counters, Histogram) and a /metrics handler copies that state
// in here, then writes it out. That is why it has no lock and no
// handles.
//
// Labels follow the Prometheus conventions the serving stack uses:
// model, method, lane, stage, backend.
type Registry struct {
	families map[string]*family
}

// family is every series of one metric name, sharing a type and help.
type family struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	series     map[string]*series
}

// series is one (name, labels) sample: val for a counter or gauge, hist
// for a histogram.
type series struct {
	val  float64
	hist HistogramSnapshot
}

// Labels is one metric's label set. The zero value labels nothing.
type Labels map[string]string

// key renders the canonical (sorted) form used for series identity and
// exposition.
func (l Labels) key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote, and newline — exactly the
		// exposition-format label escapes.
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter adds n to the counter (name, labels), creating it at zero
// first: two calls on one series render their sum. It panics if the
// name is already registered as another metric kind — one name, one
// type is a Prometheus invariant.
func (r *Registry) Counter(name, help string, labels Labels, n uint64) {
	r.series(name, help, "counter", labels).val += float64(n)
}

// Gauge sets the gauge (name, labels) to v.
func (r *Registry) Gauge(name, help string, labels Labels, v float64) {
	r.series(name, help, "gauge", labels).val = v
}

// Histogram sets the histogram (name, labels) to snap, a snapshot of a
// live Histogram taken by its owner.
func (r *Registry) Histogram(name, help string, labels Labels, snap HistogramSnapshot) {
	r.series(name, help, "histogram", labels).hist = snap
}

// series resolves or creates the series for (name, labels). Names and,
// when a series is created, label keys are checked; a malformed one
// panics.
func (r *Registry) series(name, help, kind string, labels Labels) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s already registered as a %s, not a %s", name, f.kind, kind))
	}
	key := labels.key()
	s, ok := f.series[key]
	if !ok {
		for k := range labels {
			if !validLabelKey(k) {
				panic(fmt.Sprintf("metrics: invalid label key %q", k))
			}
		}
		s = &series{}
		f.series[key] = s
	}
	return s
}

// validMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	for i, c := range name {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || c >= '0' && c <= '9' && i > 0) {
			return false
		}
	}
	return name != ""
}

// validLabelKey enforces the project's label-key charset
// [a-z_][a-z0-9_]*, a subset of Prometheus's.
func validLabelKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; !(c >= 'a' && c <= 'z' || c == '_' || c >= '0' && c <= '9' && i > 0) {
			return false
		}
	}
	return key != ""
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// sorted by label key, histograms as cumulative _bucket/_sum/_count
// series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			var err error
			if f.kind == "histogram" {
				err = writeHistogram(w, f.name, k, s.hist)
			} else {
				err = writeSample(w, f.name, k, "", s.val)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample renders one "name{labels} value" line; extraLabel, when
// non-empty, is appended to the label set (the histogram le= label).
func writeSample(w io.Writer, name, labelKey, extraLabel string, v float64) error {
	labels := labelKey
	if extraLabel != "" {
		if labels != "" {
			labels += ","
		}
		labels += extraLabel
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(v))
	return err
}

// writeHistogram renders the cumulative bucket series plus sum/count.
func writeHistogram(w io.Writer, name, labelKey string, snap HistogramSnapshot) error {
	var cum uint64
	for i, b := range snap.Bounds {
		if i < len(snap.Counts) {
			cum += snap.Counts[i]
		}
		le := `le="` + formatValue(b) + `"`
		if err := writeSample(w, name+"_bucket", labelKey, le, float64(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_bucket", labelKey, `le="+Inf"`, float64(snap.Count)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labelKey, "", snap.Sum); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labelKey, "", float64(snap.Count))
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
