package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named-metric registry: counters, gauges, and histograms
// keyed by (name, labels), rendered in the Prometheus text exposition
// format. It is the aggregation point between instrumented code (which
// holds the returned metric handles and updates them lock-free) and a
// /metrics scrape (which walks the registry and writes every family).
//
// Labels follow the Prometheus conventions the serving stack uses:
// model, method, lane, stage. A (name, label-set) pair resolves to the
// same handle every time, so both "create once, hold the handle" and
// "look up per update" callers see one shared series.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is every series of one metric name, sharing a type and help.
type family struct {
	name, help string
	kind       string // "counter", "gauge", "histogram"
	series     map[string]*series
}

// series is one (name, labels) sample: exactly one of the value kinds is
// live, matching the family kind.
type series struct {
	labels Labels
	val    atomic.Uint64 // counter count / gauge float bits
	hist   *Histogram
	// snap, when set, is a pre-aggregated histogram published via
	// SetHistogram — exposition state for histograms whose live half
	// lives elsewhere (e.g. a serve.Server's per-stage instruments).
	snap *HistogramSnapshot
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

// Counter is a monotonically increasing count. Updates are lock-free.
type Counter struct{ s *series }

// Add increments the counter by n (non-negative).
func (c *Counter) Add(n uint64) { c.s.val.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Gauge is a value that can go up and down. Updates are lock-free.
type Gauge struct{ s *series }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.s.val.Store(math.Float64bits(v)) }

// Counter returns the counter for (name, labels), creating it at zero on
// first use. It panics if the name is already registered as another
// metric kind — one name, one type is a Prometheus invariant.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return &Counter{s: r.series(name, help, "counter", labels, nil)}
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return &Gauge{s: r.series(name, help, "gauge", labels, nil)}
}

// Histogram returns the live histogram for (name, labels), creating it
// with the given bucket bounds on first use (later calls ignore bounds
// and return the existing instrument).
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	s := r.series(name, help, "histogram", labels, func() *series {
		return &series{hist: NewHistogram(bounds)}
	})
	return s.hist
}

// SetHistogram publishes a pre-aggregated histogram snapshot under
// (name, labels), replacing any earlier snapshot. It is the exposition
// path for histograms owned and updated elsewhere: the owner snapshots
// its live instrument at scrape time and hands the copy over here.
func (r *Registry) SetHistogram(name, help string, labels Labels, snap HistogramSnapshot) {
	s := r.series(name, help, "histogram", labels, func() *series { return &series{} })
	r.mu.Lock()
	s.snap = &snap
	r.mu.Unlock()
}

// series resolves or creates the series for (name, labels); make, when
// non-nil, builds the new series value. Names and, when a series is
// created, label keys are checked; a malformed one panics.
func (r *Registry) series(name, help, kind string, labels Labels, make_ func() *series) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
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
		if make_ != nil {
			s = make_()
		} else {
			s = &series{}
		}
		// Copy the labels: the caller may reuse its map.
		if len(labels) > 0 {
			s.labels = make(Labels, len(labels))
			for k, v := range labels {
				if !validLabelKey(k) {
					panic(fmt.Sprintf("metrics: invalid label key %q", k))
				}
				s.labels[k] = v
			}
		}
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

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): families sorted by name,
// series sorted by label key, histograms as cumulative _bucket/_sum/
// _count series. The write is a point-in-time view; lock-free updates
// racing it shift a sample by at most the in-flight handful.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rows := make([]*series, len(keys))
		for i, k := range keys {
			rows[i] = f.series[k]
		}
		r.mu.Unlock()
		for i, s := range rows {
			var err error
			switch f.kind {
			case "counter":
				err = writeSample(w, f.name, keys[i], "", float64(s.val.Load()))
			case "gauge":
				err = writeSample(w, f.name, keys[i], "", math.Float64frombits(s.val.Load()))
			case "histogram":
				err = writeHistogram(w, f.name, keys[i], histSnapshot(s))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// histSnapshot returns the series' exposition state: the published
// snapshot if one was set, else a fresh snapshot of the live histogram.
func histSnapshot(s *series) HistogramSnapshot {
	if s.snap != nil {
		return *s.snap
	}
	if s.hist != nil {
		return s.hist.Snapshot()
	}
	return HistogramSnapshot{}
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
