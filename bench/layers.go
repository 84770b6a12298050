package main

import (
	"context"

	"repro/internal/jag"
	"repro/internal/serve"
)

// zeroLayers returns every per-layer metric at 0: a workload fills in
// the layers it exercises and the rest read 0.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// overheadPct is how much worse the traced stretches of a window read
// than the untraced stretches interleaved with them: the larger of the
// throughput loss and the median-latency gain, in percent.
func overheadPct(plain, traced window) float64 {
	return 100 * max(ratio(plain.rowsPerS-traced.rowsPerS, plain.rowsPerS), ratio(traced.p50-plain.p50, plain.p50))
}

// servingLayers turns a traced serving run into the per-layer metrics:
// the whole window win and the program's own counters between marks a
// and b, the spans of its traced stretches, then the ladder at the
// batch shape the pool actually saw.
func servingLayers(ctx context.Context, p params, w servingWorkload, st *stack, spans []span, win, traced, plain window, a, b mark) (map[string]float64, error) {
	m := zeroLayers()
	groups := byName(spans)
	calls, proxied, handled, passes := groups[spanClientCall], groups[spanProxy], groups[spanServeHTTP], groups[spanPoolRun]

	// The serving chain's self times are a span minus the span one
	// layer in (the longest, should a retry have produced two).
	inner := map[int64]float64{}
	for _, ss := range [][]span{proxied, handled} {
		for _, s := range ss {
			inner[s.Parent] = max(inner[s.Parent], s.dur())
		}
	}
	rowsOf := map[string]float64{}
	var clientSelfNs, callNs float64
	var clientSelfs []float64
	for _, s := range calls {
		rowsOf[s.TraceID] = float64(s.Rows)
		if inner[s.ID] == 0 {
			continue // tracing went off before the call reached the server
		}
		self := max(s.dur()-inner[s.ID], 0)
		clientSelfs = append(clientSelfs, self/1e3)
		clientSelfNs += self
		callNs += s.dur()
	}
	m["client.calls"], m["client.rows"], m["client.failed_rows"] = win.calls, win.rows+win.failedRows, win.failedRows
	m["client.late_ms_p50"], m["client.p99_ms"], m["client.max_ms"] = win.lateP50, win.p99, win.maxMs
	m["client.self_us_p50"] = median(clientSelfs)

	var proxySelfs []float64
	for _, s := range proxied {
		if s.Status >= 300 {
			m["proxy.failed"]++
		}
		if inner[s.ID] != 0 {
			proxySelfs = append(proxySelfs, max(s.dur()-inner[s.ID], 0)/1e3)
		}
	}
	m["proxy.requests"] = float64(len(proxied))
	m["proxy.self_us_p50"], m["proxy.self_us_p90"] = quantile(proxySelfs, 0.5), quantile(proxySelfs, 0.9)
	m["proxy.retries"] = b.proxy.retries - a.proxy.retries
	m["proxy.hedges"] = b.proxy.hedges - a.proxy.hedges
	var attempts, busiest float64
	for name, v := range b.proxy.perBackend {
		d := v - a.proxy.perBackend[name]
		attempts += d
		busiest = max(busiest, d)
	}
	m["proxy.backend_share_max"] = ratio(busiest, attempts)

	var httpSelfs, waits, assemblies []float64
	var httpSelfNs, httpRows float64
	for _, s := range handled {
		self := max(s.dur()-float64(s.QueueWaitNs+s.AssemblyNs+s.ForwardNs), 0)
		httpSelfs = append(httpSelfs, self/1e3)
		httpSelfNs += self
		httpRows += rowsOf[s.TraceID]
		if s.Status >= 300 {
			m["serve_http.status_non2xx"]++
		}
		if !s.CacheHit {
			waits = append(waits, float64(s.QueueWaitNs)/1e6)
			assemblies = append(assemblies, float64(s.AssemblyNs)/1e3)
		}
	}
	m["serve_http.requests"] = float64(len(handled))
	m["serve_http.self_us_p50"] = median(httpSelfs)
	m["serve_http.self_us_per_row"] = ratio(httpSelfNs/1e3, httpRows)

	sc, sa := b.serve, a.serve
	m["serve_queue.wait_ms_p50"], m["serve_queue.wait_ms_p90"] = quantile(waits, 0.5), quantile(waits, 0.9)
	m["serve_queue.assembly_us_p50"] = median(assemblies)
	m["serve_queue.batches"] = sc.batches - sa.batches
	m["serve_queue.mean_batch"] = ratio(sc.batchRows-sa.batchRows, sc.batches-sa.batches)
	m["serve_queue.overloads"] = sc.overloads - sa.overloads
	m["serve_queue.expired"] = sc.expired - sa.expired
	m["serve_queue.cancelled"] = sc.cancelled - sa.cancelled
	m["serve_cache.hits"], m["serve_cache.misses"] = sc.cacheHits-sa.cacheHits, sc.cacheMisses-sa.cacheMisses
	m["serve_cache.hit_ratio"] = ratio(m["serve_cache.hits"], m["serve_cache.hits"]+m["serve_cache.misses"])

	// The ladder replays the recorded batch shape of the workload's
	// heaviest model — its last connection's — because that is the pass
	// the workload spends its forward time in.
	primary := w.conns[len(w.conns)-1].model
	var primaryRows, primaryMs []float64
	var busyNs float64
	for _, s := range passes {
		busyNs += s.dur()
		if s.Model == primary {
			primaryRows = append(primaryRows, float64(s.Rows))
			primaryMs = append(primaryMs, s.dur()/1e6)
		}
	}
	m["serve_pool.passes"] = float64(len(passes))
	m["serve_pool.rows_per_pass_p50"] = median(primaryRows)
	m["serve_pool.pass_ms_p50"] = median(primaryMs)
	m["serve_pool.busy_share"] = ratio(busyNs, traced.seconds*1e9*float64(st.workers))
	m["serve_pool.probe_ms"] = st.probeMs
	m["checkpoint.save_ms"], m["checkpoint.load_ms"], m["checkpoint.bytes"] = st.ckptSaveMs, st.ckptLoadMs, st.ckptBytes

	lad, err := runLadder(ctx, st.refs[primary], max(int(m["serve_pool.rows_per_pass_p50"]), 1), p.smoke)
	if err != nil {
		return nil, err
	}
	lad.fill(m)

	// What no layer's own measurement explains: the client's share of
	// each call (its span minus the outermost server span) less the
	// reply-decoding cost the ladder measured for a reply of that size —
	// loopback transport, net/http and scheduling. The other layers'
	// self times telescope to the call span by construction, so this is
	// the only gap there is.
	var codecNs float64
	for _, s := range calls {
		if inner[s.ID] == 0 {
			continue
		}
		width := st.cfgs[s.Model].Geometry.OutputDim()
		if s.Method == serve.MethodInvert {
			width = jag.InputDim
		}
		codecNs += lad.clientCodecNs(w.conns[s.Rank].binary, s.Rows, width)
	}
	m["trace.unaccounted_pct"] = 100 * ratio(clientSelfNs-codecNs, callNs)
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_pct"] = overheadPct(plain, traced)
	runtimeMetrics(m, a.proc, b.proc, win.rows, win.hostSpeed)
	return m, nil
}
