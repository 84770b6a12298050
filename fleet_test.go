package repro

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/proxy"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Fleet-level validation: N jagserve backends behind the real jagproxy
// router, measured against perfmodel.FleetScenario the way
// capacity_test.go validates the single-process serving model. The
// backends run a SLEEPING model rather than a CPU-bound one — on a
// single-core CI host a spinning fleet cannot exceed one backend's
// throughput, while sleeping replicas genuinely overlap, so the linear
// Backends× scaling the model predicts is physically reachable.
const (
	fleetBackends = 3
	fleetPass     = 5 * time.Millisecond   // per-pass sleep
	fleetRow      = 100 * time.Microsecond // per-row sleep
	fleetMaxBatch = 16
	fleetWindow   = 2 * time.Millisecond
	// fleetWithin bounds measured/predicted saturated throughput. Wider
	// than capWithin: the measured side adds the proxy hop and shares
	// one CPU with proxy, three HTTP stacks, and the load generators.
	fleetWithin = 3.5
)

// fleetModel sleeps the configured pass and per-row cost, echoing its
// input. Sleeping makes the cost model exact by construction: the
// scenario below uses the same constants as ground truth.
type fleetModel struct{}

func (fleetModel) Dims() map[string]serve.Dims {
	return map[string]serve.Dims{serve.MethodPredict: {In: 2, Out: 2}, serve.MethodInvert: {In: 2, Out: 2}}
}

func (fleetModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	time.Sleep(fleetPass + time.Duration(x.Rows)*fleetRow)
	y := tensor.New(x.Rows, 2)
	copy(y.Data, x.Data)
	return y, nil
}

// fleetPerBackend is one replica's scenario with the sleep constants.
func fleetPerBackend() perfmodel.ServingScenario {
	return perfmodel.ServingScenario{
		Cost:     perfmodel.ServingCost{PassSec: fleetPass.Seconds(), RowSec: fleetRow.Seconds()},
		Replicas: 1,
		MaxBatch: fleetMaxBatch,
		Window:   fleetWindow,
	}
}

// fleetBackend is one in-process jagserve replica on a real TCP port,
// killable and restartable on the same address mid-test.
type fleetBackend struct {
	addr string
	hs   *http.Server
	reg  *serve.Registry
	srv  *serve.Server
}

// startFleetBackend serves a one-model registry on addr ("" picks a
// port). The server publishes its modeled capacity as capacity_qps, so
// the proxy's capacity sweep finds real weights.
func startFleetBackend(t *testing.T, addr string) *fleetBackend {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	reg := serve.NewRegistry()
	srv := serve.NewServer(fleetModel{}, serve.Config{
		MaxBatch:   fleetMaxBatch,
		MaxDelay:   fleetWindow,
		QueueDepth: 1024,
	})
	srv.SetCapacityQPS(fleetPerBackend().MaxQPS())
	if err := reg.Register("jag", srv); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: serve.NewRegistryHandler(reg, serve.HandlerConfig{})}
	go func() { _ = hs.Serve(ln) }()
	b := &fleetBackend{addr: ln.Addr().String(), hs: hs, reg: reg, srv: srv}
	t.Cleanup(func() {
		_ = b.hs.Close()
		b.reg.Close()
	})
	return b
}

// startFleet brings up n backends and a proxy over them, returning the
// proxy's test server plus the backends for later sabotage.
func startFleet(t *testing.T, n int, cfg proxy.Config) (*httptest.Server, *proxy.Proxy, []*fleetBackend) {
	t.Helper()
	backends := make([]*fleetBackend, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = startFleetBackend(t, "")
		urls[i] = "http://" + backends[i].addr
	}
	p, err := proxy.New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p.Start(ctx)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts, p, backends
}

// TestFleetCapacityModelVsMeasured saturates a 3-backend fleet through
// the proxy and checks the measured row throughput against
// FleetScenario.MaxQPS — and that the fleet actually beat what one
// backend could sustain, i.e. the router is spreading, not funneling.
func TestFleetCapacityModelVsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based validation")
	}
	ts, p, backends := startFleet(t, fleetBackends, proxy.Config{
		HealthInterval: 50 * time.Millisecond,
		MaxRetries:     2,
	})
	for _, b := range p.Backends() {
		if !b.Healthy() || b.CapacityQPS() <= 0 {
			t.Fatalf("backend %s not ready before load: healthy=%t capacity=%g",
				b.Name(), b.Healthy(), b.CapacityQPS())
		}
	}

	fleet := perfmodel.FleetScenario{Backend: fleetPerBackend(), Backends: fleetBackends}
	predicted := fleet.MaxQPS()

	// Closed-loop saturation: enough in-flight rows per backend to keep
	// batches full, shipped in multi-row calls to amortize HTTP cost.
	const clients, perClient, rowsPerCall = 24, 30, 8
	inputs := make([][]float32, rowsPerCall)
	for i := range inputs {
		inputs[i] = []float32{float32(i) / rowsPerCall, 0.5}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := serve.NewClient(ts.URL)
			for i := 0; i < perClient; i++ {
				if _, rowErrs, err := cl.Call(context.Background(), "jag", serve.MethodPredict, inputs); err != nil || rowErrs != nil {
					t.Errorf("saturated call failed: err=%v rowErrs=%v", err, rowErrs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	measured := float64(clients*perClient*rowsPerCall) / time.Since(start).Seconds()

	for i, b := range backends {
		if snap := b.srv.Stats(); snap.MeanBatch < fleetMaxBatch/4 {
			t.Fatalf("backend %d never saturated (mean batch %.1f); measurement invalid", i, snap.MeanBatch)
		}
	}
	if ratio := measured / predicted; ratio < 1/fleetWithin || ratio > fleetWithin {
		t.Fatalf("fleet model missed: measured %.0f rows/s vs predicted %.0f (ratio %.2f, tolerance %.1fx)",
			measured, predicted, ratio, fleetWithin)
	}
	// The whole point of the fleet: more than one backend's worth of
	// throughput. Sleeping replicas overlap even on one CPU, so this is
	// a real scaling check, not a tautology.
	if single := fleetPerBackend().MaxQPS(); measured < 1.2*single {
		t.Fatalf("fleet measured %.0f rows/s, not meaningfully above one backend's %.0f — router is funneling", measured, single)
	}
}

// TestFleetSurvivesBackendKill kills one backend under sustained
// traffic and requires ZERO client-visible failures: every attempt that
// dies mid-flight or lands on the dead backend must be retried onto a
// live one. The dead backend must be dropped (health transition down),
// then reinstated after it comes back on the same port.
func TestFleetSurvivesBackendKill(t *testing.T) {
	ts, p, backends := startFleet(t, fleetBackends, proxy.Config{
		HealthInterval: 25 * time.Millisecond,
		FailAfter:      1,
		RecoverAfter:   2,
		BreakerFails:   1,
		MaxRetries:     2,
	})

	var calls, failures atomic.Int64
	var firstFailure atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := serve.NewClient(ts.URL)
			inputs := [][]float32{{float32(c) / 4, 0.1}, {float32(c) / 4, 0.9}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				outs, rowErrs, err := cl.Call(context.Background(), "jag", serve.MethodPredict, inputs)
				calls.Add(1)
				if err != nil || rowErrs != nil || len(outs) != len(inputs) {
					failures.Add(1)
					firstFailure.CompareAndSwap(nil, fmt.Sprintf("err=%v rowErrs=%v outs=%d", err, rowErrs, len(outs)))
				}
			}
		}(c)
	}

	victim := p.Backends()[0]
	waitFor := func(desc string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Let traffic establish, then kill backend 0 abruptly: listener and
	// every live connection die at once, mid-reply included.
	time.Sleep(200 * time.Millisecond)
	if err := backends[0].hs.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("proxy to drop the killed backend", func() bool { return !victim.Healthy() })

	// Keep routing around the hole for a while, then resurrect the
	// backend on the SAME address and wait for reinstatement.
	time.Sleep(300 * time.Millisecond)
	backends[0] = startFleetBackend(t, backends[0].addr)
	waitFor("proxy to reinstate the recovered backend", func() bool { return victim.Healthy() })
	time.Sleep(200 * time.Millisecond) // traffic through the full fleet again

	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d calls failed across the kill (first: %v); retries must hide a dead backend",
			n, calls.Load(), firstFailure.Load())
	}
	if calls.Load() < 50 {
		t.Fatalf("only %d calls completed; not enough traffic to exercise the kill", calls.Load())
	}

	// The drop and the reinstatement must both be visible in the
	// proxy's health-transition metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{`to="down"`, `to="up"`} {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "jag_proxy_health_transitions_total") &&
				strings.Contains(line, victim.Name()) && strings.Contains(line, want) &&
				!strings.HasSuffix(line, " 0") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no nonzero jag_proxy_health_transitions_total{%s} for %s in:\n%s", want, victim.Name(), body)
		}
	}
}
