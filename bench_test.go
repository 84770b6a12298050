package repro

import (
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/ltfb"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/proxy"
	"repro/internal/reader"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// One benchmark per paper figure. The heavy ones run real training and take
// seconds per iteration, so `go test -bench=.` executes them once each;
// the regenerated quantities are attached as custom metrics.

// BenchmarkFig7ScalarPrediction trains the surrogate and reports the mean
// per-scalar correlation of predicted vs true observables (Figure 7's
// "ground truth mostly covered by the prediction").
func BenchmarkFig7ScalarPrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cyclegan.DefaultConfig(jag.Tiny8)
		cfg.EncoderHidden = []int{48}
		cfg.ForwardHidden = []int{32, 32}
		cfg.InverseHidden = []int{16}
		cfg.DiscHidden = []int{16}
		model, err := core.TrainSurrogate(cfg, 1024, 1500, 32, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanScalarPearson(model, 32), "pearson/scalar")
	}
}

func meanScalarPearson(model *cyclegan.Surrogate, n int) float64 {
	g := model.Cfg.Geometry
	x := tensor.New(n, jag.InputDim)
	y := tensor.New(n, g.OutputDim())
	for i := 0; i < n; i++ {
		s := jag.SimulateAt(g, 6000+i)
		copy(x.Row(i), s.X)
		copy(y.Row(i), s.Output())
	}
	pred := model.Predict(x)
	var sum float64
	for sIdx := 0; sIdx < jag.ScalarDim; sIdx++ {
		truth := make([]float64, n)
		got := make([]float64, n)
		for i := 0; i < n; i++ {
			truth[i] = float64(y.At(i, sIdx))
			got[i] = float64(pred.At(i, sIdx))
		}
		sum += metrics.Pearson(truth, got)
	}
	return sum / jag.ScalarDim
}

// BenchmarkFig8ImagePrediction reports the mean per-pixel MAE of predicted
// X-ray images (Figure 8's visual comparison, quantified).
func BenchmarkFig8ImagePrediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := cyclegan.DefaultConfig(jag.Tiny8)
		cfg.EncoderHidden = []int{48}
		cfg.ForwardHidden = []int{32, 32}
		cfg.InverseHidden = []int{16}
		cfg.DiscHidden = []int{16}
		model, err := core.TrainSurrogate(cfg, 1024, 1500, 32, 8)
		if err != nil {
			b.Fatal(err)
		}
		g := model.Cfg.Geometry
		x := tensor.New(16, jag.InputDim)
		y := tensor.New(16, g.OutputDim())
		for k := 0; k < 16; k++ {
			s := jag.SimulateAt(g, 6000+k)
			copy(x.Row(k), s.X)
			copy(y.Row(k), s.Output())
		}
		pred := model.Predict(x)
		var mae float64
		count := 0
		for k := 0; k < 16; k++ {
			for p := jag.ScalarDim; p < g.OutputDim(); p++ {
				d := float64(pred.At(k, p) - y.At(k, p))
				if d < 0 {
					d = -d
				}
				mae += d
				count++
			}
		}
		b.ReportMetric(mae/float64(count), "mae/pixel")
	}
}

// BenchmarkFig9DataParallelScaling regenerates the data-parallel scaling
// study and reports the 16-GPU speedup (paper: 9.36×).
func BenchmarkFig9DataParallelScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := perfmodel.Figure9()
		b.ReportMetric(pts[0].SteadyEpoch/pts[len(pts)-1].SteadyEpoch, "speedup@16gpus")
	}
}

// BenchmarkFig10DataStoreModes regenerates the data-store comparison and
// reports the paper's three benefit ratios at 16 GPUs (1.31×, 1.43×, 1.10×)
// and at 1 GPU (7.73×).
func BenchmarkFig10DataStoreModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := perfmodel.Figure10()
		get := func(g int, m datastore.Mode) float64 {
			for _, p := range pts {
				if p.GPUs == g && p.Mode == m {
					return p.SteadyEpoch
				}
			}
			return 0
		}
		b.ReportMetric(get(1, datastore.ModeNone)/get(1, datastore.ModeDynamic), "benefit@1gpu")
		b.ReportMetric(get(16, datastore.ModeNone)/get(16, datastore.ModeDynamic), "naive/dynamic@16")
		b.ReportMetric(get(16, datastore.ModeNone)/get(16, datastore.ModePreload), "naive/preload@16")
	}
}

// BenchmarkFig11LTFBScaling regenerates the headline strong-scaling study
// and reports the 64-trainer speedup and efficiency (paper: 70.2×, 109%).
func BenchmarkFig11LTFBScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := perfmodel.Figure11()
		last := pts[len(pts)-1]
		b.ReportMetric(last.Speedup, "speedup@64trainers")
		b.ReportMetric(100*last.Efficiency, "efficiency_pct")
		b.ReportMetric(last.PreloadTime/pts[3].PreloadTime, "preload64/preload32")
	}
}

// BenchmarkFig12QualityVsTrainers runs the real LTFB quality experiment and
// reports the final-round improvement of a 4-trainer population over the
// single-trainer baseline (Figure 12: above 1 and growing with trainers).
func BenchmarkFig12QualityVsTrainers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.Figure12Config()
		base.Rounds = 6 // shortened: the full schedule runs in cmd/figures
		run := func(k int) *core.QualityResult {
			cfg := base
			cfg.Trainers = k
			cfg.LTFB = k > 1
			res, err := core.RunPopulation(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		baseline := run(1)
		four := run(4)
		last := len(baseline.BestSeries) - 1
		b.ReportMetric(baseline.BestSeries[last]/four.BestSeries[last], "improvement@4trainers")
	}
}

// BenchmarkFig13LTFBvsKIndependent runs the real LTFB-vs-K-independent
// comparison at its near-convergence schedule and reports the LTFB
// advantage at 4 trainers (Figure 13: above 1, growing with k).
func BenchmarkFig13LTFBvsKIndependent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.Figure13Config()
		cfg.Rounds = 8
		cfg.Geometry.Wiggle = 1
		cfg.Model.Geometry.Wiggle = 1

		ltfbCfg := cfg
		ltfbCfg.Trainers = 4
		ltfbCfg.LTFB = true
		ltfbRes, err := core.RunPopulation(ltfbCfg)
		if err != nil {
			b.Fatal(err)
		}
		kindCfg := cfg
		kindCfg.Trainers = 4
		kindCfg.LTFB = false
		kindCfg.Partition = core.PartitionRandom
		kindRes, err := core.RunPopulation(kindCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(kindRes.FinalBest/ltfbRes.FinalBest, "ltfb_advantage@4")
	}
}

// --- Ablation benches (exchange policy and tournament interval) ---

// BenchmarkAblationExchangeGeneratorOnly measures one LTFB tournament round
// with the paper's generator-only exchange (discriminators stay local) and
// reports the payload volume.
func BenchmarkAblationExchangeGeneratorOnly(b *testing.B) {
	cfgM := cyclegan.DefaultConfig(jag.Tiny8)
	cfgM.EncoderHidden = []int{32}
	cfgM.ForwardHidden = []int{16}
	cfgM.InverseHidden = []int{12}
	cfgM.DiscHidden = []int{12}

	recs := ensemble.GenerateInMemory(jag.Tiny8, 0, 64)
	ds, err := reader.NewSliceDataset(jag.Tiny8.SampleDim(), recs)
	if err != nil {
		b.Fatal(err)
	}
	tourn := ensemble.GenerateInMemory(jag.Tiny8, 5000, 16)
	tx := tensor.New(16, jag.InputDim)
	ty := tensor.New(16, jag.Tiny8.OutputDim())
	for i, rec := range tourn {
		copy(tx.Row(i), rec[:jag.InputDim])
		copy(ty.Row(i), rec[jag.InputDim:])
	}

	var payload int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := comm.NewWorld(2)
		w.Run(func(wc *comm.Comm) {
			tc := wc.Split(wc.Rank(), 0)
			model := cyclegan.New(cfgM, int64(wc.Rank()))
			store := datastore.New(tc, ds, datastore.ModeDynamic)
			tr, err := trainer.New(trainer.Config{BatchSize: 16, XDim: jag.InputDim, ShuffleSeed: 1}, tc, model, store, ds)
			if err != nil {
				b.Error(err)
				return
			}
			m := &ltfb.Member{
				Cfg:       ltfb.Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 3},
				TrainerID: wc.Rank(), World: wc, T: tr,
				Scratch: cyclegan.New(cfgM, 99), TournX: tx, TournY: ty,
			}
			if _, err := m.Tournament(i); err != nil {
				b.Error(err)
			}
			if wc.Rank() == 0 {
				payload = len(nn.MarshalNetworks(model.ExchangeNets()))
			}
		})
	}
	b.ReportMetric(float64(payload), "bytes/exchange")
}

// benchInterval measures final quality at a fixed total step budget with
// the given tournament interval.
func benchInterval(b *testing.B, roundSteps int) {
	const totalSteps = 48
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultQualityConfig(4)
		cfg.TrainSamples = 512
		cfg.RoundSteps = roundSteps
		cfg.Rounds = totalSteps / roundSteps
		res, err := core.RunPopulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FinalBest, "final_val_loss")
		b.ReportMetric(float64(res.Adoptions), "adoptions")
	}
}

// BenchmarkAblationInterval4 holds tournaments every 4 steps.
func BenchmarkAblationInterval4(b *testing.B) { benchInterval(b, 4) }

// BenchmarkAblationInterval16 holds tournaments every 16 steps.
func BenchmarkAblationInterval16(b *testing.B) { benchInterval(b, 16) }

// dispatchModel charges every forward pass a fixed cost ahead of the
// model's own, inside the forward stage. It spins rather than sleeps:
// dispatch overhead keeps the execution unit busy, like a kernel launch
// does.
type dispatchModel struct {
	serve.Model
	cost time.Duration
}

func (m dispatchModel) Run(method string, x *tensor.Matrix) (*tensor.Matrix, error) {
	for start := time.Now(); time.Since(start) < m.cost; {
	}
	return m.Model.Run(method, x)
}

// benchServe measures serving throughput with 64 concurrent clients;
// one op is one served request. maxBatch 1 disables coalescing (every
// request is its own forward pass), so the batched/unbatched ratio is
// the serving-side analogue of the paper's bundle-file amortization
// argument (Section II-C): fixed per-dispatch cost is paid once per
// batch instead of once per request. On CPU-only hosts the real
// per-pass cost is just allocation + scheduling hops + the flush
// timer, so dispatchModel adds the kernel-launch/RPC overhead of a
// production accelerator deployment (20µs is the order of a CUDA launch
// plus inference-server hop).
func benchServe(b *testing.B, maxBatch int) {
	g := jag.Config{ImageSize: 4, Views: 3, Channels: 2}
	cfg := cyclegan.DefaultConfig(g)
	cfg.EncoderHidden = []int{16}
	cfg.ForwardHidden = []int{8}
	cfg.InverseHidden = []int{8}
	cfg.DiscHidden = []int{8}
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, 9)}, false)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewServer(dispatchModel{pool, 20 * time.Microsecond}, serve.Config{
		MaxBatch:   maxBatch,
		MaxDelay:   2 * time.Millisecond,
		QueueDepth: 256,
	})
	defer srv.Close()

	// 64 persistent clients issue b.N requests total; one op is one
	// served request.
	const clients = 64
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := make([]float32, jag.InputDim)
			for i := c; i < b.N; i += clients {
				for d := range x {
					x[d] = float32((i*7+d*13)%997) / 997
				}
				if _, err := srv.Call(context.Background(), serve.MethodPredict, x, serve.Interactive); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	snap := srv.Stats()
	b.ReportMetric(snap.MeanBatch, "mean_batch")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeBatched serves 64 concurrent clients through the
// micro-batching queue (one coalesced forward pass per burst).
func BenchmarkServeBatched(b *testing.B) { benchServe(b, 64) }

// BenchmarkServeUnbatched serves the same load one request per forward
// pass; compare req/s against BenchmarkServeBatched.
func BenchmarkServeUnbatched(b *testing.B) { benchServe(b, 1) }

// BenchmarkEnsembleGeneration measures the dataset-generation workflow
// (samples/op via the reported time; one op = a 512-sample campaign).
func BenchmarkEnsembleGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		recs := ensemble.GenerateInMemory(jag.Tiny8, 0, 512)
		if len(recs) != 512 {
			b.Fatal("short generation")
		}
	}
}

// BenchmarkSensitivitySweep evaluates the headline's robustness to the
// modelled mechanisms; the summary appears in EXPERIMENTS.md.
func BenchmarkSensitivitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := perfmodel.SweepHeadline(5)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkProxyOverhead measures the fleet router's per-request hop:
// the same single-row request against a jagserve backend directly and
// through jagproxy. perfmodel.FleetScenario.HopSec is the proxied
// minus direct per-op time from this benchmark.
func BenchmarkProxyOverhead(b *testing.B) {
	g := jag.Config{ImageSize: 4, Views: 3, Channels: 2}
	cfg := cyclegan.DefaultConfig(g)
	cfg.EncoderHidden = []int{16}
	cfg.ForwardHidden = []int{8}
	cfg.InverseHidden = []int{8}
	cfg.DiscHidden = []int{8}
	pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cfg, 9)}, false)
	if err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Register("jag", serve.NewServer(pool, serve.Config{MaxBatch: 8})); err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	backend := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{}))
	defer backend.Close()

	p, err := proxy.New([]string{backend.URL}, proxy.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	front := httptest.NewServer(p)
	defer front.Close()

	for _, tier := range []struct{ name, url string }{
		{"direct", backend.URL},
		{"proxied", front.URL},
	} {
		b.Run(tier.name, func(b *testing.B) {
			cl := serve.NewClient(tier.url)
			x := make([]float32, jag.InputDim)
			for i := 0; i < b.N; i++ {
				for d := range x {
					x[d] = float32((i*7+d*13)%997) / 997
				}
				if _, rowErrs, err := cl.Call(context.Background(), "jag", serve.MethodPredict, [][]float32{x}); err != nil || rowErrs != nil {
					b.Fatalf("call failed: err=%v rowErrs=%v", err, rowErrs)
				}
			}
		})
	}
}

// interactiveGap spaces BenchmarkInteractiveBesideBulk's calls: each is
// due a gap after the one before, as an open-loop user's would be.
const interactiveGap = 2 * time.Millisecond

// BenchmarkInteractiveBesideBulk is fleet_mixed's latency in one backend:
// single-row tiny8 JSON calls through jagproxy, one due every
// interactiveGap, alone ("idle") and while a goroutine drives 64-row small16
// JGT1 calls on the bulk lane in a closed loop ("beside_bulk"). A call's
// latency runs from its due time, so the timer that starts it counts: the
// timer and every network crossing that lands while a bulk pass runs wait
// for the rest of the pass's current wave (internal/tensor's tile.go), and
// the gap between the two p50s is what the tile bound buys. idle is not the
// bare call: an idle process sleeps in the poller, whose timeout is coarse,
// so its timer wakes late too. p50_us and p90_us are per call; ns/op is the
// call period, not a latency; bulk_calls says the sweep ran. Run it for a
// few hundred calls at least, so p90 has samples to stand on.
func BenchmarkInteractiveBesideBulk(b *testing.B) {
	reg := serve.NewRegistry()
	defer reg.Close()
	for _, m := range []struct {
		name string
		geom jag.Config
	}{{"tiny8", jag.Tiny8}, {"small16", jag.Small16}} {
		pool, err := serve.NewPool([]*cyclegan.Surrogate{cyclegan.New(cyclegan.DefaultConfig(m.geom), 9)}, false)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Register(m.name, serve.NewServer(pool, serve.Config{MaxBatch: 64, MaxDelay: 2 * time.Millisecond})); err != nil {
			b.Fatal(err)
		}
	}
	backend := httptest.NewServer(serve.NewRegistryHandler(reg, serve.HandlerConfig{}))
	defer backend.Close()
	p, err := proxy.New([]string{backend.URL}, proxy.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	front := httptest.NewServer(p)
	defer front.Close()

	bulkRows := make([][]float32, 64)
	for i := range bulkRows {
		bulkRows[i] = make([]float32, jag.InputDim)
		for d := range bulkRows[i] {
			bulkRows[i][d] = float32((i*31+d*17)%101) / 101
		}
	}
	for _, bulk := range []bool{false, true} {
		name := "idle"
		if bulk {
			name = "beside_bulk"
		}
		b.Run(name, func(b *testing.B) {
			var wg sync.WaitGroup
			var bulkCalls atomic.Int64
			stop := make(chan struct{})
			if bulk {
				sweep := serve.NewClient(front.URL)
				sweep.Binary, sweep.Priority = true, serve.Bulk
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						bulkCalls.Add(1)
						if _, rowErrs, err := sweep.Call(ctx, "small16", serve.MethodPredict, bulkRows); err != nil || rowErrs != nil {
							b.Errorf("bulk call failed: err=%v rowErrs=%v", err, rowErrs)
							return
						}
					}
				}()
				time.Sleep(50 * time.Millisecond) // the sweep is under way before the first timed call
			}
			cl := serve.NewClient(front.URL)
			x := make([]float32, jag.InputDim)
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for d := range x {
					x[d] = float32((i*7+d*13)%997) / 997
				}
				due := start.Add(time.Duration(i) * interactiveGap)
				time.Sleep(time.Until(due))
				if _, rowErrs, err := cl.Call(ctx, "tiny8", serve.MethodPredict, [][]float32{x}); err != nil || rowErrs != nil {
					b.Fatalf("call failed: err=%v rowErrs=%v", err, rowErrs)
				}
				lat[i] = time.Since(due)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			slices.Sort(lat)
			b.ReportMetric(float64(lat[b.N/2])/1e3, "p50_us")
			b.ReportMetric(float64(lat[b.N*9/10])/1e3, "p90_us")
			b.ReportMetric(float64(bulkCalls.Load()), "bulk_calls")
		})
	}
}
