// Command jagproxy is the fleet front door: a load balancer over N
// jagserve backends, scaling the serving tier from one process to a
// replica fleet the way the paper strong-scales training — once one
// process runs as fast as the hardware allows, throughput only grows by
// adding replicas and routing well across them.
//
// Each backend is probed actively (GET /healthz every -health-interval;
// -fail-after consecutive failures drop it, -recover-after consecutive
// successes reinstate it) and watched passively (transport errors and
// 5xx trip a circuit breaker after -breaker-fails consecutive failures
// or when half of the last 20 forwards failed). Routing is weighted
// least-loaded using each backend's probed capacity — jagserve probes
// each model as it loads it, at start-up and on every hot swap, and
// publishes the sustainable rows/s as capacity_qps in its /healthz
// reply, which every active probe reads — falling back to
// power-of-two-choices on in-flight counts until every backend reports
// one.
//
// A failed attempt (connect error, reply that died mid-body, or a
// retryable 429/502/503/504) is retried on a backend the request has
// not tried yet, up to -retries extra attempts (-retries 0: one attempt
// only). Interactive-lane
// requests (no X-Priority header, or "interactive") additionally hedge:
// if the first backend has not answered within -hedge-after, a second
// race starts and the first full reply wins. Bulk requests never hedge.
// -rate enables per-client token-bucket rate limiting with graceful
// 429 + Retry-After replies.
//
// Endpoints mirror a single jagserve, so clients need no changes:
//
//	POST /v1/models/{name}/{method}  forwarded with retries/hedging
//	GET  /v1/models, .../stats       forwarded to one healthy backend
//	GET  /healthz                    the proxy's fleet view (per-backend health)
//	GET  /metrics                    jag_proxy_* Prometheus exposition
//
// Every request carries an X-Request-Id (caller-supplied IDs propagate
// to the chosen backend and back), and the relayed response names the
// serving replica in X-Jag-Backend. docs/FLEET.md is the operator
// guide, including capacity planning with perfmodel.FleetScenario.
//
// Usage:
//
//	jagserve -addr 127.0.0.1:8081 -models jag=ckpts/jag.ckpt &
//	jagserve -addr 127.0.0.1:8082 -models jag=ckpts/jag.ckpt &
//	jagproxy -addr :8090 \
//	    -backend http://127.0.0.1:8081 -backend http://127.0.0.1:8082
//	curl -d '{"input":[0.5,0.5,0.5,0.5,0.5]}' localhost:8090/v1/models/jag/predict
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/proxy"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jagproxy: ")
	addr := flag.String("addr", ":8090", "HTTP listen address")
	var backends []string
	flag.Func("backend", "backend base URL such as http://127.0.0.1:8081; repeatable or comma-separated", func(v string) error {
		for _, u := range strings.Split(v, ",") {
			if u = strings.TrimSpace(u); u != "" {
				backends = append(backends, u)
			}
		}
		return nil
	})
	healthInterval := flag.Duration("health-interval", time.Second, "active /healthz probe period per backend")
	failAfter := flag.Int("fail-after", 2, "consecutive probe failures before a backend is dropped")
	recoverAfter := flag.Int("recover-after", 2, "consecutive probe successes before a dropped backend is reinstated")
	breakerFails := flag.Int("breaker-fails", 3, "consecutive forward failures (transport error or 5xx) tripping the passive breaker")
	retries := flag.Int("retries", 2, "extra attempts (retries and hedges combined) after the first, each on an untried backend (0: none)")
	hedgeAfter := flag.Duration("hedge-after", 0, "race a second backend when an interactive request is unanswered after this long (0 disables; bulk never hedges)")
	rate := flag.Float64("rate", 0, "per-client token-bucket rate limit on call routes, requests/s (0 disables)")
	burst := flag.Int("burst", 0, "rate-limit bucket size (0: max(1, ceil(rate)))")
	maxBody := flag.Int64("max-body", 64<<20, "max call request body bytes (413 beyond)")
	logFormat := flag.String("log-format", "", "structured access log on stderr: \"text\" or \"json\" (empty disables)")
	flag.Parse()

	if len(backends) == 0 {
		log.Fatal("need at least one -backend URL")
	}
	accessLog, err := serve.NewAccessLogger(*logFormat, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	// Config reads MaxRetries 0 as "default"; a negative count is none.
	maxRetries := *retries
	if maxRetries <= 0 {
		maxRetries = -1
	}
	p, err := proxy.New(backends, proxy.Config{
		HealthInterval: *healthInterval,
		FailAfter:      *failAfter,
		RecoverAfter:   *recoverAfter,
		BreakerFails:   *breakerFails,
		MaxRetries:     maxRetries,
		HedgeDelay:     *hedgeAfter,
		RatePerSec:     *rate,
		Burst:          *burst,
		MaxBodyBytes:   *maxBody,
		AccessLog:      accessLog,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.Start(ctx)

	// Listen before logging so "-addr :0" reports the real bound port,
	// same as jagserve.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	healthy := 0
	for _, b := range p.Backends() {
		if b.Healthy() {
			healthy++
		}
	}
	log.Printf("fronting %d backend(s) (%d healthy after first probe) on %s",
		len(p.Backends()), healthy, ln.Addr())
	for _, b := range p.Backends() {
		state := "down"
		if b.Healthy() {
			state = "up"
		}
		detail := ""
		if qps := b.CapacityQPS(); qps > 0 {
			detail = fmt.Sprintf(", capacity %.0f rows/s", qps)
		}
		log.Printf("backend %s: %s%s", b.BaseURL(), state, detail)
	}
	// Stop probing once no more traffic will be routed.
	if err := serve.ServeUntilSignal(ln, p, cancel); err != nil {
		log.Fatal(err)
	}
}
