package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// servingWorkload is one traffic mix against one serving tier. Two
// generator connections each: the host has two cores, and a third
// generator would measure the generator.
type servingWorkload struct {
	name     string
	models   []modelDef
	backends int
	proxy    bool
	conns    []connSpec
}

var servingWorkloads = []servingWorkload{
	{
		// Independent users: open loop, 300 calls/s over two
		// connections, one fresh row per call, JSON both ways.
		name: "interactive_tiny", models: []modelDef{tiny8}, backends: 1,
		conns: []connSpec{
			{model: "tiny8", rows: 1, timed: true, rate: 150, phase: 0},
			{model: "tiny8", rows: 1, timed: true, rate: 150, phase: 0.5},
		},
	},
	{
		// Callers that wait for their reply: closed loop, two clients,
		// 16-row JGT1 frames on the bulk lane, 3 MB reply frames.
		name: "sweep_paper", models: []modelDef{paper64}, backends: 1,
		conns: []connSpec{
			{model: "paper64", binary: true, lane: serve.Bulk, rows: 16, timed: true},
			{model: "paper64", binary: true, lane: serve.Bulk, rows: 16, timed: true},
		},
	},
	{
		// A human exploring (open loop, Zipf design points, every 5th
		// call an inversion) beside a saturating background sweep,
		// through jagproxy over two backends.
		name: "fleet_mixed", models: []modelDef{tiny8, small16}, backends: 2, proxy: true,
		conns: []connSpec{
			{model: "tiny8", rows: 1, timed: true, rate: 100, zipfKeys: 1 << 20, invertEvery: 5},
			{model: "small16", binary: true, lane: serve.Bulk, rows: 64},
		},
	},
}

// warmup is the untimed lead-in on the workload's own traffic; every
// call of its first verifyAll is output-checked.
func warmup(p params) time.Duration {
	if p.smoke {
		return 300 * time.Millisecond
	}
	return 3 * time.Second
}

const verifyAll = time.Second

// sampleEvery: one call in a hundred is kept for the output check.
const sampleEvery = 100

// ridKey carries a call's X-Request-Id to the transport.
type ridKey struct{}

// ridTransport stamps the generator's request ID on every call, so
// client.call → proxy.handle → serve_http.handle share one trace_id.
type ridTransport struct{ next http.RoundTripper }

func (t ridTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(ridKey{}).(string); ok {
		req = req.Clone(req.Context())
		req.Header.Set(serve.RequestIDHeader, id)
	}
	return t.next.RoundTrip(req)
}

// callRec is one completed call; times are on the tracer's clock.
type callRec struct {
	rows, failed  int
	dueNs, endNs  int64 // latency = endNs - dueNs; closed loop: due = send time
	sentNs        int64 // open loop: later than dueNs by the generator's lateness
	timed, isOpen bool
}

// sample is a call kept for the output check.
type sample struct {
	model, method string
	in, out       [][]float32
}

// generator drives one connection.
type generator struct {
	idx     int
	spec    connSpec
	plan    *planner
	client  *serve.Client
	idle    func()
	tr      *tracer
	prefix  string
	recs    []callRec
	samples []sample
}

func newGenerator(p params, idx int, spec connSpec, url string, tr *tracer) *generator {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	cl := serve.NewClient(url).WithHTTPClient(&http.Client{Transport: ridTransport{next: tp}})
	cl.Binary, cl.Priority = spec.binary, spec.lane
	return &generator{
		idx: idx, spec: spec, plan: newPlanner(p.seed, p.workload, idx, spec),
		client: cl, idle: tp.CloseIdleConnections, tr: tr,
		prefix: fmt.Sprintf("%s-%d-", p.workload, idx),
	}
}

// run sends calls from originNs until stopNs (tracer clock), keeping
// for the output check every call sent before verifyUntilNs and one in
// sampleEvery after it.
func (g *generator) run(ctx context.Context, originNs, verifyUntilNs, stopNs int64) {
	defer g.idle()
	for k := 0; ctx.Err() == nil; k++ {
		pc := g.plan.next()
		due := g.tr.now()
		if g.spec.rate > 0 {
			due = originNs + int64(pc.due*1e9)
			if wait := due - g.tr.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
		if due >= stopNs {
			return
		}
		traceID := fmt.Sprintf("%s%d", g.prefix, k)
		cctx := context.WithValue(ctx, ridKey{}, traceID)
		sent := g.tr.now()
		id, start := g.tr.begin()
		out, rowErrs, err := g.client.Call(cctx, g.spec.model, pc.method, pc.rows)
		if id != 0 {
			g.tr.end(span{ID: id, Name: spanClientCall, StartNs: start, TraceID: traceID, Rows: len(pc.rows),
				Rank: g.idx, Model: g.spec.model, Method: pc.method})
		}
		rec := callRec{rows: len(pc.rows), dueNs: due, sentNs: sent, endNs: g.tr.now(),
			timed: g.spec.timed, isOpen: g.spec.rate > 0}
		for i := range pc.rows {
			if err != nil || i >= len(out) || out[i] == nil || (rowErrs != nil && rowErrs[i] != nil) {
				rec.failed++
			}
		}
		g.recs = append(g.recs, rec)
		if rec.failed == 0 && (sent < verifyUntilNs || k%sampleEvery == sampleEvery/2) {
			g.samples = append(g.samples, sample{model: g.spec.model, method: pc.method, in: pc.rows, out: out})
		}
	}
}

// mismatchedRows counts the served rows that are not bitwise equal to
// the reference surrogate's answer for the same inputs.
func mismatchedRows(ref *cyclegan.Surrogate, s sample) int {
	x := tensor.New(len(s.in), len(s.in[0]))
	for i, row := range s.in {
		copy(x.Row(i), row)
	}
	var want *tensor.Matrix
	if s.method == serve.MethodInvert {
		want = ref.Invert(x)
	} else {
		want = ref.Predict(x)
	}
	bad := 0
	for i, got := range s.out {
		w := want.Row(i)
		same := len(got) == len(w)
		for j := 0; same && j < len(w); j++ {
			same = math.Float32bits(got[j]) == math.Float32bits(w[j])
		}
		if !same {
			bad++
		}
	}
	return bad
}

// mark is the state read at a window boundary.
type mark struct {
	proc  procSnap
	serve serveCounters
	proxy proxyCounters
}

func takeMark(st *stack) mark {
	return mark{proc: takeProcSnap(), serve: st.counters(), proxy: st.proxyCounters()}
}

// tick is the process's CPU clock read at a slice boundary.
type tick struct {
	ns     int64
	cpu    float64
	traced bool // tracing was on during the slice this tick opens
}

// sliceLen is the length of the slices a window's rates are taken
// over. The reference host's second core is shared: identical work
// slows by tens of percent for a few hundred milliseconds at a time, a
// few times a second on a bad minute. Rates are therefore reported as
// the median over short slices, which a burst of interference moves
// far less than it moves the window's mean.
const sliceLen = 250 * time.Millisecond

// tracePeriod is how many slices tracing stays on, then off, in a
// traced run. The host's speed also drifts over tens of seconds, so a
// traced stretch can only be compared with untraced stretches
// interleaved with it, never with one before or after.
const tracePeriod = 8

// sliceTicks reads the CPU clock now, every sliceLen, and at toNs. With
// a tracer it switches tracing on for tracePeriod slices, off for the
// next tracePeriod, and so on, and leaves it off.
func sliceTicks(clock *tracer, toNs int64, tr *tracer) []tick {
	var ticks []tick
	read := func() {
		on := tr != nil && (len(ticks)/tracePeriod)%2 == 0
		if tr != nil {
			tr.on.Store(on)
		}
		ticks = append(ticks, tick{clock.now(), cpuSeconds(), on})
	}
	read()
	for next := ticks[0].ns + int64(sliceLen); next < toNs; next += int64(sliceLen) {
		sleepUntil(clock, next)
		read()
	}
	sleepUntil(clock, toNs)
	if tr != nil {
		tr.on.Store(false)
	}
	return append(ticks, tick{ns: clock.now(), cpu: cpuSeconds()})
}

// window summarises the calls that completed in a set of slices.
type window struct {
	seconds        float64
	calls, rows    float64 // rows answered without error
	failedRows     float64
	latMs          []float64 // timed connections' calls, as timed
	rowsPerS       float64   // median over slices, at the reference host speed
	cpuMsPerRow    float64   // median over slices, at the reference host speed
	p50, p90       float64   // at the reference host speed
	p99, maxMs     float64   // as timed
	lateP50        float64   // open loop: how long after its due time a call left
	hostSpeed      float64   // over the whole window; 1 is the reference host on a quiet minute
	rawRowsPerS    float64   // the window's plain mean rate, as timed
	rawP50, rawP90 float64   // typical percentiles as timed
}

func anySlice(tick) bool      { return true }
func tracedSlice(t tick) bool { return t.traced }
func plainSlice(t tick) bool  { return !t.traced }

// summarise reads a window off the call records (in completion order),
// over the slices keep selects: counts and latency percentiles over
// the calls whose reply arrived in one of them, and the two rates as
// medians over those slices, each call's rows spread evenly over the
// time it was in flight.
//
// speed is the host speed between two times on the tracer's clock (see
// hostProbe). What the host's speed sets is reported at the reference
// speed: CPU time always; a closed-loop connection's rows, because its
// calls are back to back (an open-loop connection's rate is set by its
// schedule); and of every timed call's latency all but the first flush
// window, which is the server's timer holding a row for company and is
// as long on a slow host as on a fast one.
func summarise(recs []callRec, ticks []tick, keep func(tick) bool, speed func(fromNs, toNs int64) float64) window {
	var w window
	n := len(ticks) - 1
	sliceSpeed, closedRows, openRows := make([]float64, n), make([]float64, n), make([]float64, n)
	for j := range sliceSpeed {
		sliceSpeed[j] = speed(ticks[j].ns, ticks[j+1].ns)
	}
	var lateMs, normMs []float64
	for _, r := range recs {
		ok := float64(r.rows - r.failed)
		counted := false
		for j := 0; j < n; j++ {
			lo, hi := max(r.sentNs, ticks[j].ns), min(r.endNs, ticks[j+1].ns)
			if hi > lo {
				share := ok * float64(hi-lo) / float64(r.endNs-r.sentNs)
				if r.isOpen {
					openRows[j] += share
				} else {
					closedRows[j] += share
				}
			}
			counted = counted || (keep(ticks[j]) && ticks[j].ns <= r.endNs && r.endNs < ticks[j+1].ns)
		}
		if !counted {
			continue
		}
		w.calls++
		w.rows += ok
		w.failedRows += float64(r.failed)
		if r.timed && r.failed == 0 {
			lat := float64(r.endNs-r.dueNs) / 1e6
			w.latMs = append(w.latMs, lat)
			normMs = append(normMs, atRefSpeed(lat, flushWindowMs, speed(r.dueNs, r.endNs)))
		}
		if r.isOpen {
			lateMs = append(lateMs, float64(r.sentNs-r.dueNs)/1e6)
		}
	}
	var rates, cpus []float64
	for j := 0; j < n; j++ {
		if !keep(ticks[j]) {
			continue
		}
		sec := float64(ticks[j+1].ns-ticks[j].ns) / 1e9
		w.seconds += sec
		rates = append(rates, (closedRows[j]/sliceSpeed[j]+openRows[j])/sec)
		if rows := closedRows[j] + openRows[j]; rows > 0 {
			cpus = append(cpus, (ticks[j+1].cpu-ticks[j].cpu)*sliceSpeed[j]*1e3/rows)
		}
	}
	w.rowsPerS, w.cpuMsPerRow = median(rates), median(cpus)
	w.p50, w.p90 = typical(normMs, 0.5), typical(normMs, 0.9)
	w.rawRowsPerS, w.rawP50, w.rawP90 = ratio(w.rows, w.seconds), typical(w.latMs, 0.5), typical(w.latMs, 0.9)
	w.p99, w.maxMs, w.lateP50 = quantile(w.latMs, 0.99), quantile(w.latMs, 1), median(lateMs)
	w.hostSpeed = speed(ticks[0].ns, ticks[n].ns)
	return w
}

func sleepUntil(tr *tracer, ns int64) {
	if d := ns - tr.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// runServing runs one serving workload: set-up (three times, the median
// is setup_s), warm-up, the measured window, the output checks, and in
// a traced run the ladder.
func runServing(ctx context.Context, p params, w servingWorkload, log io.Writer) (*result, error) {
	if p.smoke {
		w = smokeVariant(w)
	}
	var tr *tracer
	clock := newTracer() // also the run's clock when nothing is traced
	if p.trace {
		tr = clock
	}
	res := &result{digest: servingDigest(p.seed, w.name, w.conns)}

	var st *stack
	setupS, err := medianSetup(p, log, 3, func(i int, last bool) (time.Time, float64, error) {
		var err error
		st, err = buildStack(ctx, filepath.Join(p.outDir, fmt.Sprintf("tmp-%s-%d", w.name, i)), w, tr)
		ready := time.Now()
		if err != nil {
			return ready, 0, err
		}
		if !last {
			st.close(ctx)
		}
		return ready, st.clockS, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close(ctx)

	gens := make([]*generator, len(w.conns))
	for i, spec := range w.conns {
		gens[i] = newGenerator(p, i, spec, st.url, clock)
	}
	origin := clock.now()
	warmEnd := origin + int64(warmup(p))
	end := warmEnd + int64(p.seconds*1e9)
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.run(ctx, origin, origin+int64(min(verifyAll, warmup(p))), end)
		}()
	}
	sleepUntil(clock, warmEnd)
	a := takeMark(st)
	ticks := sliceTicks(clock, end, tr)
	b := takeMark(st)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wg.Wait()

	var recs []callRec
	for _, g := range gens {
		recs = append(recs, g.recs...)
		for _, s := range g.samples {
			if bad := mismatchedRows(st.refs[s.model], s); bad > 0 {
				res.failed += int64(bad)
				res.problemf("%d of %d served %s/%s rows differ from the reference surrogate", bad, len(s.in), s.model, s.method)
			}
		}
	}
	for _, r := range recs {
		res.attempted += int64(r.rows)
		res.failed += int64(r.failed)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].endNs < recs[j].endNs })
	t0 := clock.t0.UnixNano()
	speed := func(fromNs, toNs int64) float64 { return p.probe.speed(t0+fromNs, t0+toNs) }
	win := summarise(recs, ticks, anySlice, speed)
	res.e2e = win.endToEnd(setupS, rss)
	if len(win.latMs) < 10 && !p.smoke { // the smoke asserts no timing
		res.problemf("only %d timed calls completed in the window", len(win.latMs))
	}
	if win.lateP50 > 0.2*win.p50 {
		fmt.Fprintf(log, "WARNING generator-bound: open-loop calls left %.3f ms late (p50) against a %.3f ms p50\n", win.lateP50, win.p50)
	}
	// Fresh-input workloads must never hit the LRU; a hit there means
	// the generator repeated itself.
	zipf := false
	for _, c := range w.conns {
		zipf = zipf || c.zipfKeys > 0
	}
	if hits := st.counters().cacheHits; !zipf && hits > 0 {
		res.problemf("%g LRU hits on a fresh-input workload", hits)
	}
	fmt.Fprintf(log, "window %s: %.2fs, %d calls, %d rows ok, %d failed, %d timed samples\n",
		w.name, win.seconds, int(win.calls), int(win.rows), int(win.failedRows), len(win.latMs))
	win.logAsTimed(log)
	if !p.trace {
		return res, nil
	}

	spans := tr.finish()
	if err := writeSpans(filepath.Join(p.outDir, "trace-"+w.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	res.layers, err = servingLayers(ctx, p, w, st, spans, win, summarise(recs, ticks, tracedSlice, speed), summarise(recs, ticks, plainSlice, speed), a, b)
	return res, err
}

// smokeVariant swaps paper64 for small16, so the tier-1 smoke does not
// build a 50 MB model.
func smokeVariant(w servingWorkload) servingWorkload {
	models := append([]modelDef(nil), w.models...)
	conns := append([]connSpec(nil), w.conns...)
	for i := range models {
		if models[i] == paper64 {
			models[i] = small16
		}
	}
	for i := range conns {
		if conns[i].model == paper64.name {
			conns[i].model = small16.name
		}
	}
	w.models, w.conns = models, conns
	return w
}
