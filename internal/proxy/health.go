package proxy

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Active health probing and capacity refresh. The prober is the single
// authority for reinstatement: a backend dropped by either a failed
// probe or the passive breaker returns to rotation only after
// Config.RecoverAfter consecutive probe successes, so one lucky request
// cannot resurrect a flapping replica.

// maintain runs the periodic sweeps until ctx is cancelled.
func (p *Proxy) maintain(ctx context.Context) {
	health := time.NewTicker(p.cfg.HealthInterval)
	defer health.Stop()
	capacity := time.NewTicker(capacityInterval)
	defer capacity.Stop()
	sweep := time.NewTicker(time.Minute)
	defer sweep.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-health.C:
			p.probeSweep(ctx)
		case <-capacity.C:
			p.capacitySweep(ctx)
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
// degraded) counts as a failed probe just like a connect error.
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
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ok, detail = false, fmt.Sprintf("healthz HTTP %d", resp.StatusCode)
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

// capacitySweep refreshes each backend's probed capacity from its stats
// route, seeding the weighted least-loaded router. A backend that
// cannot answer keeps its previous weight — stale beats zero, which
// would silently demote the whole fleet to power-of-two-choices.
func (p *Proxy) capacitySweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.refreshCapacity(ctx, b)
		}(b)
	}
	wg.Wait()
}

// refreshCapacity reads one backend's capacity_qps via the serve
// client. The backend's first listed model stands in for the whole
// process — jagserve publishes the same probed rate per model, so any of
// them works.
func (p *Proxy) refreshCapacity(ctx context.Context, b *Backend) {
	cctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	client := serve.NewClient(b.base).WithHTTPClient(p.probeHC)
	models, err := client.Models(cctx)
	if err != nil || len(models) == 0 {
		return
	}
	stats, err := client.Stats(cctx, models[0].Name)
	if err != nil {
		return
	}
	b.setCapacity(stats.CapacityQPS)
}
