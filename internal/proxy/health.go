package proxy

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

// Active health probing. The prober is the single authority for
// reinstatement: a backend dropped by either a failed probe or the
// passive breaker returns to rotation only after Config.RecoverAfter
// consecutive probe successes, so one lucky request cannot resurrect a
// flapping replica. Each successful probe also reads the backend's
// probed capacity off the /healthz reply, so a swapped or late-started
// backend is weighted from its next probe on.

// maintain runs the periodic sweeps until ctx is cancelled.
func (p *Proxy) maintain(ctx context.Context) {
	health := time.NewTicker(p.cfg.HealthInterval)
	defer health.Stop()
	sweep := time.NewTicker(time.Minute)
	defer sweep.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-health.C:
			p.probeSweep(ctx)
		case <-sweep.C:
			if p.limiter != nil {
				p.limiter.sweep(time.Now())
			}
		}
	}
}

// probeSweep probes every backend's /healthz concurrently: a wedged
// backend must not delay the verdict on its siblings.
func (p *Proxy) probeSweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.probeOne(ctx, b)
		}(b)
	}
	wg.Wait()
}

// probeOne performs one active probe and applies the resulting health
// transition, if any. A 503 /healthz (backend reports itself closed or
// degraded) counts as a failed probe just like a connect error. A 200
// sets the backend's capacity from its first model by name — jagserve
// probes every model it loads, so any of them stands in for the
// process; a failed probe, or a reply naming no model, keeps the last
// weight.
func (p *Proxy) probeOne(ctx context.Context, b *Backend) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	ok, detail := true, ""
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		ok, detail = false, err.Error()
	} else if resp, err := p.probeHC.Do(req); err != nil {
		ok, detail = false, err.Error()
	} else {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		var h serve.HealthResponse
		if resp.StatusCode != http.StatusOK {
			ok, detail = false, fmt.Sprintf("healthz HTTP %d", resp.StatusCode)
		} else if json.Unmarshal(raw, &h) == nil && len(h.Models) > 0 {
			b.setCapacity(h.Models[slices.Min(slices.Collect(maps.Keys(h.Models)))].CapacityQPS)
		}
	}
	down, up := b.noteProbe(ok, detail, p.cfg.FailAfter, p.cfg.RecoverAfter)
	switch {
	case down:
		p.setHealth(b, false, "probe: "+detail)
	case up:
		p.setHealth(b, true, "probe recovered")
	}
}
