// Fleet quickstart: the serving tier scaled the way the paper scales
// training — by replication. Three in-process jagserve-shaped backends
// come up on loopback ports, each probing its own capacity
// (serve.CostProbe → capacity_qps); jagproxy fronts them with active
// health probing, weighted least-loaded routing, and bounded retries.
// Traffic flows through the one front door, then one backend is killed
// mid-stream: the proxy drops it, retries hide the corpse from every
// client, and when the backend returns on the same port it is
// reinstated after consecutive probe successes. Zero failed calls
// throughout is the contract — the same one the tier-1 fleet_test.go
// enforces.
//
// Run with:
//
//	go run ./examples/fleet
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/perfmodel"
	"repro/internal/proxy"
	"repro/internal/serve"
)

// backend is one replica: a registry + HTTP server on a real port.
type backend struct {
	addr string
	hs   *http.Server
	reg  *serve.Registry
}

// startBackend serves one tiny surrogate on addr ("" picks a port),
// probing its serving cost so the proxy can weight routing by real
// capacity.
func startBackend(addr string, seed int64) (*backend, error) {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{32}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, seed)}, false)
	if err != nil {
		return nil, err
	}
	const maxBatch = 16
	srv := serve.NewServer(pool, serve.Config{MaxBatch: maxBatch, QueueDepth: 256})
	if res, err := serve.CostProbe(pool, serve.MethodPredict, maxBatch); err == nil {
		srv.SetCapacityQPS(res.QPS(maxBatch, pool.Replicas()))
	}
	reg := serve.NewRegistry()
	if err := reg.Register("jag", srv); err != nil {
		return nil, err
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: serve.NewRegistryHandler(reg, serve.HandlerConfig{})}
	go func() { _ = hs.Serve(ln) }()
	return &backend{addr: ln.Addr().String(), hs: hs, reg: reg}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet: ")

	// 1. Three identical replicas — what `jagserve -addr :0` gives you
	// as separate processes (each probing its own capacity at start-up),
	// condensed into one.
	var backends []*backend
	var urls []string
	for i := 0; i < 3; i++ {
		b, err := startBackend("", int64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		backends = append(backends, b)
		urls = append(urls, "http://"+b.addr)
		log.Printf("backend %d up on %s", i, b.addr)
	}

	// 2. The front door: fast probing so the demo converges in
	// milliseconds where production defaults take seconds.
	p, err := proxy.New(urls, proxy.Config{
		HealthInterval: 50 * time.Millisecond,
		FailAfter:      1,
		RecoverAfter:   2,
		BreakerFails:   1,
		MaxRetries:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	front := httptest.NewServer(p)
	defer front.Close()
	for _, b := range p.Backends() {
		log.Printf("proxy sees %s: healthy=%t capacity=%.0f rows/s", b.Name(), b.Healthy(), b.CapacityQPS())
	}

	// 3. Clients talk to one URL and never learn the topology. The
	// X-Jag-Backend header names the replica that actually answered —
	// concurrent calls spread, because weighted least-loaded routing
	// scores each backend by (inflight+1)/capacity.
	const burst = 24
	answered := make(chan string, burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			resp, err := http.Post(front.URL+"/v1/models/jag/predict", "application/json",
				strings.NewReader(fmt.Sprintf(`{"input":[%g,0.5,0.5,0.5,0.5]}`, float64(i)/burst)))
			if err != nil {
				log.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("call %d: HTTP %d", i, resp.StatusCode)
			}
			answered <- resp.Header.Get("X-Jag-Backend")
		}(i)
	}
	seen := map[string]int{}
	for i := 0; i < burst; i++ {
		seen[<-answered]++
	}
	log.Printf("%d concurrent calls spread across %d backend(s): %v", burst, len(seen), seen)

	// 4. Kill a replica mid-traffic. Calls keep succeeding: attempts
	// that land on the corpse are retried onto the living.
	victim := p.Backends()[0]
	log.Printf("killing backend %s", victim.Name())
	if err := backends[0].hs.Close(); err != nil {
		log.Fatal(err)
	}
	cl := serve.NewClient(front.URL)
	failed := 0
	for i := 0; i < 40; i++ {
		x := []float32{float32(i) / 40, 0.5, 0.5, 0.5, 0.5}
		if _, rowErrs, err := cl.Call(ctx, "jag", serve.MethodPredict, [][]float32{x}); err != nil || rowErrs != nil {
			failed++
		}
	}
	waitFor := func(desc string, ok func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				log.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("proxy to drop the dead backend", func() bool { return !victim.Healthy() })
	h := p.FleetHealth()
	log.Printf("after kill: %d calls failed (want 0); fleet %s, %d/%d healthy",
		failed, h.Status, h.Healthy, len(p.Backends()))
	if failed != 0 || h.Status != "degraded" {
		log.Fatalf("failover contract broken: failed=%d status=%s", failed, h.Status)
	}

	// 5. Resurrect it on the same port; consecutive probe successes
	// reinstate it without an operator touching the proxy.
	b, err := startBackend(backends[0].addr, 100)
	if err != nil {
		log.Fatal(err)
	}
	backends[0] = b
	waitFor("reinstatement", func() bool { return victim.Healthy() })
	log.Printf("backend %s reinstated; fleet %s", victim.Name(), p.FleetHealth().Status)

	// 6. The proxy's own observability: health transitions, retries,
	// per-backend traffic — all jag_proxy_* on GET /metrics.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "jag_proxy_health_transitions_total") ||
			strings.HasPrefix(line, "jag_proxy_retries_total") {
			log.Print(line)
		}
	}

	// 7. Capacity planning for the fleet you just ran: the same
	// perfmodel the single-process capacity example uses, composed
	// over replicas (docs/FLEET.md walks through this).
	per := perfmodel.ServingScenario{
		Cost:     perfmodel.ServingCost{PassSec: 500e-6, RowSec: 40e-6},
		Replicas: 1, MaxBatch: 16, Window: 2 * time.Millisecond,
	}
	fleet := perfmodel.FleetScenario{Backend: per, Backends: 3, HopSec: 150e-6, Efficiency: 0.9}
	fleet.OfferedQPS = 0.6 * fleet.MaxQPS()
	r := fleet.Report()
	log.Printf("model: 3 such backends sustain %.0f rows/s; at %.0f offered, interactive p99 %.1fms",
		fleet.MaxQPS(), fleet.OfferedQPS, 1e3*r.P99)

	for _, b := range backends {
		_ = b.hs.Close()
		b.reg.Close()
	}
	log.Print("done")
}
