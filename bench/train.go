package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/ltfb"
	"repro/internal/nn"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// trainPlan is the train_ltfb schedule: cfg.Rounds rounds in all, the
// first warm of them untimed and output-checked against
// core.RunPopulation, the rest measured.
type trainPlan struct {
	cfg  core.QualityConfig
	warm int
}

// roundsPerSecond converts -seconds into a fixed number of measured
// rounds (one round of 2 trainers × 32 steps × batch 32 takes about
// 0.6 s on the two-core reference host). The work is fixed, not the
// time, so the counts a same-seed run reports repeat exactly.
const roundsPerSecond = 1.6

func planTraining(p params) trainPlan {
	c := core.QualityConfig{
		Geometry: jag.Tiny8, Model: cyclegan.DefaultConfig(jag.Tiny8),
		Trainers: 2, RanksPerTrainer: 2,
		TrainSamples: 4096, ValSamples: 256, TournSamples: 64,
		BatchSize: 32, RoundSteps: 32,
		Seed: p.seed, Partition: core.PartitionContiguous, LTFB: true,
	}
	tp := trainPlan{cfg: c, warm: 3}
	measured := max(3, int(math.Round(p.seconds*roundsPerSecond)))
	if p.smoke {
		tp.cfg.TrainSamples, tp.cfg.ValSamples, tp.cfg.TournSamples = 256, 32, 16
		tp.cfg.BatchSize, tp.cfg.RoundSteps = 16, 4
		tp.warm, measured = 1, 4
	}
	tp.cfg.Rounds = tp.warm + measured
	return tp
}

// tracedTrainModel is the trainer.Model the traced run hands the
// trainer: one cyclegan.train_step span per step, and the nn.Reducer
// the step is handed is wrapped in turn, so every gradient allreduce
// is a child span.
type tracedTrainModel struct {
	trainer.Model
	tr     *tracer
	rank   int
	parent int64 // the trainer.advance span in progress on this rank
}

func (m *tracedTrainModel) TrainStep(x, y *tensor.Matrix, r nn.Reducer) map[string]float64 {
	id, start := m.tr.begin()
	if id == 0 {
		return m.Model.TrainStep(x, y, r)
	}
	losses := m.Model.TrainStep(x, y, tracedReducer{Reducer: r, m: m, parent: id})
	m.tr.end(span{ID: id, Name: spanTrainStep, StartNs: start, Parent: m.parent, Rank: m.rank, Rows: x.Rows})
	return losses
}

type tracedReducer struct {
	nn.Reducer
	m      *tracedTrainModel
	parent int64
}

func (r tracedReducer) Reduce(params []*nn.Param) {
	id, start := r.m.tr.begin()
	r.Reducer.Reduce(params)
	if id == 0 {
		return
	}
	var floats int64
	for _, p := range params {
		floats += int64(len(p.Grad.Data))
	}
	r.m.tr.end(span{ID: id, Name: spanAllreduce, StartNs: start, Parent: r.parent, Rank: r.m.rank, Bytes: 4 * floats})
}

// trainMark is the state world rank 0 reads at a phase boundary, plus
// every rank's data-store counters.
type trainMark struct {
	proc  procSnap
	rssMB float64
	store []datastore.Stats // by world rank
}

// trainRun is one population run's shared record. Each slot is written
// by exactly one rank between barriers.
type trainRun struct {
	plan    trainPlan
	tr      *tracer
	ready   time.Time
	marks   map[int]*trainMark // warm and cfg.Rounds → mark taken before that round (after the last)
	losses  [][]float64        // [round][trainer]
	adopted [][]bool           // [round][trainer]
	stepMs  [][]float64        // [round] → world rank 0's Advance(1) durations
	stepAt  [][]int64          // [round] → when each of them started (UnixNano)
	probe   *hostProbe
	rounds  [][2]tick // [round] → world rank 0's clock at its start and end
	model   *cyclegan.Surrogate
	errs    []error
}

// trainingData materialises the corpus the way core.RunPopulation
// does: train, validation and tournament sets from disjoint regions of
// the sampling plan.
func trainingData(c core.QualityConfig) (train, val *reader.SliceDataset, tx, ty *tensor.Matrix, err error) {
	dim := c.Geometry.SampleDim()
	if train, err = reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, 0, c.TrainSamples)); err != nil {
		return
	}
	if val, err = reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, c.TrainSamples, c.ValSamples)); err != nil {
		return
	}
	tourn := ensemble.GenerateInMemory(c.Geometry, c.TrainSamples+c.ValSamples, c.TournSamples)
	tx, ty = tensor.New(c.TournSamples, jag.InputDim), tensor.New(c.TournSamples, c.Geometry.OutputDim())
	for i, rec := range tourn {
		copy(tx.Row(i), rec[:jag.InputDim])
		copy(ty.Row(i), rec[jag.InputDim:])
	}
	return
}

// runPopulation is core.RunPopulation's loop re-composed from its
// public pieces — comm.NewWorld, datastore.New in dynamic mode,
// trainer.New, ltfb.Member — with Advance called one step at a time so
// each step can be timed, and barriers at the phase boundaries so the
// marks are taken while every rank is idle. setupOnly stops once every
// rank is ready for its first step.
func runPopulation(tp trainPlan, tr *tracer, probe *hostProbe, setupOnly bool) (*trainRun, error) {
	c := tp.cfg
	if err := c.Validate(); err != nil {
		return nil, err
	}
	train, val, tx, ty, err := trainingData(c)
	if err != nil {
		return nil, err
	}
	world := c.Trainers * c.RanksPerTrainer
	run := &trainRun{plan: tp, tr: tr, probe: probe, marks: map[int]*trainMark{}, errs: make([]error, world)}
	for _, r := range []int{tp.warm, c.Rounds} {
		run.marks[r] = &trainMark{store: make([]datastore.Stats, world)}
	}
	run.losses, run.adopted, run.stepMs = make([][]float64, c.Rounds), make([][]bool, c.Rounds), make([][]float64, c.Rounds)
	run.rounds, run.stepAt = make([][2]tick, c.Rounds), make([][]int64, c.Rounds)
	for r := range run.losses {
		run.losses[r], run.adopted[r] = make([]float64, c.Trainers), make([]bool, c.Trainers)
	}

	comm.NewWorld(world).Run(func(wc *comm.Comm) {
		rank := wc.Rank()
		fail := func(err error) { run.errs[rank] = err }
		trainerID := rank / c.RanksPerTrainer
		tc := wc.Split(trainerID, 0)
		sub, err := reader.NewSubset(train, reader.PartitionContiguous(c.TrainSamples, c.Trainers, trainerID))
		if err != nil {
			fail(err)
			return
		}
		store := datastore.New(tc, sub, datastore.ModeDynamic)
		surrogate := cyclegan.New(c.Model, c.Seed+int64(trainerID)*101)
		var model trainer.Model = surrogate
		var traced *tracedTrainModel
		if tr != nil {
			traced = &tracedTrainModel{Model: surrogate, tr: tr, rank: rank}
			model = traced
		}
		if rank == 0 {
			run.model = surrogate
		}
		trn, err := trainer.New(trainer.Config{
			ID: trainerID, BatchSize: c.BatchSize, XDim: jag.InputDim, ShuffleSeed: c.Seed + int64(trainerID),
		}, tc, model, store, sub)
		if err != nil {
			fail(err)
			return
		}
		member := &ltfb.Member{
			Cfg:       ltfb.Config{NumTrainers: c.Trainers, RoundSteps: c.RoundSteps, PairSeed: c.Seed + 99, Metric: c.Metric},
			TrainerID: trainerID, World: wc, T: trn,
			Scratch: cyclegan.New(c.Model, 0), TournX: tx, TournY: ty,
		}
		// What a master ships per tournament: the generator networks
		// plus the lineage bitset.
		var exchange int64
		if tc.Rank() == 0 {
			exchange = int64(len(nn.MarshalNetworks(surrogate.ExchangeNets())) + len(member.Lineage()))
		}
		wc.Barrier()
		if rank == 0 {
			run.ready = time.Now()
		}
		if setupOnly {
			return
		}

		// boundary parks every rank between two rounds where rank 0 has
		// something to do — read the process at a phase end, or in a
		// traced run flip the tracer for the coming round — and releases
		// them together.
		boundary := func(round int) {
			mk := run.marks[round]
			if mk == nil && (tr == nil || round < tp.warm) {
				return
			}
			if mk != nil {
				mk.store[rank] = store.Stats()
			}
			wc.Barrier()
			if rank == 0 {
				if mk != nil {
					mk.proc = takeProcSnap()
					if rss, err := peakRSSMB(); err != nil {
						fail(err)
					} else {
						mk.rssMB = rss
					}
				}
				if tr != nil {
					tr.on.Store(run.traced(round))
				}
			}
			wc.Barrier()
		}
		for round := 0; round < c.Rounds; round++ {
			boundary(round)
			if rank == 0 {
				run.rounds[round][0] = tick{ns: time.Now().UnixNano(), cpu: cpuSeconds()}
			}
			roundID, roundStart := tr.begin()
			child := func(name string, id, start int64, bytes int64) {
				if id != 0 {
					tr.end(span{ID: id, Name: name, StartNs: start, Parent: roundID, Rank: rank, Bytes: bytes})
				}
			}
			for s := 0; s < c.RoundSteps; s++ {
				t0 := time.Now()
				id, start := tr.begin()
				if traced != nil {
					traced.parent = id
				}
				if err := trn.Advance(1); err != nil {
					fail(err)
					return
				}
				child(spanAdvance, id, start, 0)
				if rank == 0 {
					run.stepMs[round] = append(run.stepMs[round], ms(time.Since(t0)))
					run.stepAt[round] = append(run.stepAt[round], t0.UnixNano())
				}
			}
			id, start := tr.begin()
			res, err := member.Tournament(round)
			if err != nil {
				fail(err)
				return
			}
			child(spanTournament, id, start, exchange)
			if tc.Rank() == 0 {
				run.adopted[round][trainerID] = res.Adopted
			}
			id, start = tr.begin()
			loss, err := trn.Evaluate(val, c.BatchSize)
			if err != nil {
				fail(err)
				return
			}
			child(spanEvaluate, id, start, 0)
			all := wc.AllgatherFloat64(loss)
			if rank == 0 {
				for k := 0; k < c.Trainers; k++ {
					run.losses[round][k] = all[k*c.RanksPerTrainer]
				}
				run.rounds[round][1] = tick{ns: time.Now().UnixNano(), cpu: cpuSeconds()}
			}
			if roundID != 0 {
				tr.end(span{ID: roundID, Name: spanRound, StartNs: roundStart, Rank: rank})
			}
		}
		boundary(c.Rounds)
	})
	for _, err := range run.errs {
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// traced reports whether tracing is on during round: in a traced run,
// every other measured round, so that traced rounds are compared with
// untraced rounds interleaved with them (see tracePeriod).
func (r *trainRun) traced(round int) bool {
	return r.tr != nil && round >= r.plan.warm && round < r.plan.cfg.Rounds && (round-r.plan.warm)%2 == 0
}

// Round sets for adoptions and phase.
func (r *trainRun) isWarmup(round int) bool   { return round < r.plan.warm }
func (r *trainRun) isMeasured(round int) bool { return round >= r.plan.warm }
func (r *trainRun) isPlain(round int) bool    { return r.isMeasured(round) && !r.traced(round) }

// adoptions counts tournament adoptions in the rounds keep selects.
func (r *trainRun) adoptions(keep func(round int) bool) int {
	n := 0
	for round, byTrainer := range r.adopted {
		for _, a := range byTrainer {
			if a && keep(round) {
				n++
			}
		}
	}
	return n
}

// phase summarises the rounds keep selects: the timed steps'
// percentiles, and the two rates as medians over the rounds (see
// sliceLen for why). Training is CPU-bound throughout, so every round
// and every step is reported at the reference host speed (see
// hostProbe).
func (r *trainRun) phase(keep func(round int) bool) window {
	var w window
	c := r.plan.cfg
	roundRows := float64(c.RoundSteps * c.BatchSize * c.Trainers)
	var rates, cpus, normMs []float64
	var fromNs, toNs int64
	for round, t := range r.rounds {
		if !keep(round) {
			continue
		}
		if fromNs == 0 {
			fromNs = t[0].ns
		}
		toNs = t[1].ns
		w.latMs = append(w.latMs, r.stepMs[round]...)
		for i, stepMs := range r.stepMs[round] {
			at := r.stepAt[round][i]
			normMs = append(normMs, stepMs*r.probe.speed(at, at+int64(stepMs*1e6)))
		}
		sec, speed := float64(t[1].ns-t[0].ns)/1e9, r.probe.speed(t[0].ns, t[1].ns)
		w.seconds += sec
		w.rows += roundRows
		rates = append(rates, roundRows/sec/speed)
		cpus = append(cpus, (t[1].cpu-t[0].cpu)*speed*1e3/roundRows)
	}
	w.calls = float64(len(w.latMs))
	w.rowsPerS, w.cpuMsPerRow = median(rates), median(cpus)
	w.p50, w.p90 = typical(normMs, 0.5), typical(normMs, 0.9)
	w.rawRowsPerS, w.rawP50, w.rawP90 = ratio(w.rows, w.seconds), typical(w.latMs, 0.5), typical(w.latMs, 0.9)
	w.p99, w.maxMs = quantile(w.latMs, 0.99), quantile(w.latMs, 1)
	w.hostSpeed = r.probe.speed(fromNs, toNs)
	return w
}

// lossMismatches compares the population's per-round validation losses
// and its adoption count against core.RunPopulation's, bit for bit.
func lossMismatches(got [][]float64, gotAdoptions int, want *core.QualityResult) int {
	bad := 0
	for r, round := range want.RoundLosses {
		for k, l := range round {
			if math.Float64bits(got[r][k]) != math.Float64bits(l) {
				bad++
			}
		}
	}
	if gotAdoptions != want.Adoptions {
		bad++
	}
	return bad
}

func trainingDigest(c core.QualityConfig) (string, error) {
	train, _, tx, _, err := trainingData(c)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%d/%d/%d/%d/%d", c.Trainers, c.RanksPerTrainer, c.TrainSamples, c.BatchSize, c.Rounds, c.RoundSteps, c.Seed)
	row := make([]float32, train.Dim())
	for i := 0; i < min(train.Len(), digestCalls); i++ {
		if err := train.Sample(i, row); err != nil {
			return "", err
		}
		hashFloats(h, row)
	}
	hashFloats(h, tx.Data)
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// runTraining runs train_ltfb: set-up (nine times, the median is
// setup_s), the population loop, the output check, and in a traced run
// the per-layer metrics and the ladder.
func runTraining(ctx context.Context, p params, log io.Writer) (*result, error) {
	tp := planTraining(p)
	c := tp.cfg
	res := &result{}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	var run *trainRun
	// Nine set-ups, not the serving workloads' three: one takes a tenth of
	// a second, which the host probe reads only twice.
	setupS, err := medianSetup(p, log, 9, func(_ int, last bool) (time.Time, float64, error) {
		var err error
		if run, err = runPopulation(tp, tr, p.probe, !last); err != nil {
			return time.Time{}, 0, err
		}
		return run.ready, 0, nil
	})
	if err != nil {
		return nil, err
	}
	if res.digest, err = trainingDigest(c); err != nil {
		return nil, err
	}

	// Output check: the warm-up rounds are the same rounds
	// core.RunPopulation runs on the same config, so their validation
	// losses and adoptions must agree bit for bit; every later round is
	// the same code on the same state.
	check := c
	check.Rounds = tp.warm
	want, err := core.RunPopulation(check)
	if err != nil {
		return nil, err
	}
	res.attempted = int64(c.Rounds * c.RoundSteps * c.BatchSize * c.Trainers)
	if bad := lossMismatches(run.losses, run.adoptions(run.isWarmup), want); bad > 0 {
		res.failed += int64(bad)
		res.problemf("%d of the warm-up's validation losses or its adoption count differ from core.RunPopulation", bad)
	}
	final := run.losses[c.Rounds-1]
	for _, l := range final {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.failed++
			res.problemf("final validation loss %v", l)
		}
	}

	win := run.phase(run.isMeasured)
	res.e2e = win.endToEnd(setupS, run.marks[c.Rounds].rssMB)
	fmt.Fprintf(log, "window train_ltfb: %.2fs, %d rounds, %d steps timed, final losses %v, %d adoptions\n",
		win.seconds, c.Rounds-tp.warm, len(win.latMs), final, run.adoptions(func(int) bool { return true }))
	win.logAsTimed(log)
	if !p.trace {
		return res, nil
	}

	spans := tr.finish()
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(p.outDir, "trace-train_ltfb.jsonl"), spans); err != nil {
		return nil, err
	}
	if res.layers, err = trainLayers(ctx, p, run, spans, win); err != nil {
		return nil, err
	}
	return res, nil
}

// trainLayers turns a traced run into the per-layer metrics: spans and
// span counts from the traced half of the measured rounds, the data
// store's counters over all of them. Timings are world rank 0's; counts
// are summed over every rank.
func trainLayers(ctx context.Context, p params, run *trainRun, spans []span, win window) (map[string]float64, error) {
	tp, c := run.plan, run.plan.cfg
	m := zeroLayers()
	rank0 := func(ss []span) []span {
		var out []span
		for _, s := range ss {
			if s.Rank == 0 {
				out = append(out, s)
			}
		}
		return out
	}
	groups := byName(spans)
	rounds, advances, steps := rank0(groups[spanRound]), rank0(groups[spanAdvance]), rank0(groups[spanTrainStep])
	reduces, tourns, evals := rank0(groups[spanAllreduce]), rank0(groups[spanTournament]), rank0(groups[spanEvaluate])

	m["client.calls"], m["client.rows"] = win.calls, win.rows
	m["client.p99_ms"], m["client.max_ms"] = win.p99, win.maxMs

	stepByAdvance := map[int64]float64{}
	for _, s := range steps {
		stepByAdvance[s.Parent] = s.dur()
	}
	var fetchMs []float64
	for _, s := range advances {
		fetchMs = append(fetchMs, max(s.dur()-stepByAdvance[s.ID], 0)/1e6)
	}
	advanceNs, stepNs := sum(durations(advances, 1)), sum(durations(steps, 1))
	m["trainer.steps"] = float64(len(advances))
	m["trainer.step_ms_p50"], m["trainer.step_ms_p90"] = quantile(durations(advances, 1e6), 0.5), quantile(durations(advances, 1e6), 0.9)
	m["trainer.evaluate_ms_p50"] = median(durations(evals, 1e6))
	m["cyclegan.train_step_ms_p50"] = median(durations(steps, 1e6))
	m["cyclegan.train_step_share"] = ratio(stepNs, advanceNs)
	m["datastore.fetch_ms_p50"] = median(fetchMs)
	m["datastore.fetch_share"] = ratio(advanceNs-stepNs, advanceNs)
	a, b := run.marks[tp.warm], run.marks[c.Rounds]
	for r := range b.store {
		m["datastore.local_hits"] += float64(b.store[r].LocalHits - a.store[r].LocalHits)
		m["datastore.remote_samples"] += float64(b.store[r].RemoteSamples - a.store[r].RemoteSamples)
		m["datastore.backing_reads"] += float64(b.store[r].BackingReads - a.store[r].BackingReads)
		m["datastore.bytes_sent"] += float64(b.store[r].BytesSent - a.store[r].BytesSent)
	}
	m["datastore.local_ratio"] = ratio(m["datastore.local_hits"],
		m["datastore.local_hits"]+m["datastore.remote_samples"]+m["datastore.backing_reads"])

	for _, s := range groups[spanAllreduce] {
		m["comm.allreduce_calls"]++
		m["comm.allreduce_bytes"] += float64(s.Bytes)
	}
	m["comm.allreduce_ms_p50"] = median(durations(reduces, 1e6))
	m["comm.allreduce_share"] = ratio(sum(durations(reduces, 1)), stepNs)
	for _, s := range groups[spanTournament] {
		if s.Bytes > 0 { // a trainer master: it shipped a payload
			m["ltfb.tournaments"]++
			m["ltfb.exchange_bytes"] += float64(s.Bytes)
		}
	}
	m["ltfb.tournament_ms_p50"] = median(durations(tourns, 1e6))
	m["ltfb.adoptions"] = float64(run.adoptions(run.traced))

	// What the round spends outside its three measured calls: the loss
	// allgather and the loop itself.
	var inside float64
	for _, ss := range [][]span{advances, tourns, evals} {
		inside += sum(durations(ss, 1))
	}
	roundNs := sum(durations(rounds, 1))
	m["trace.unaccounted_pct"] = 100 * ratio(roundNs-inside, roundNs)
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_pct"] = overheadPct(run.phase(run.isPlain), run.phase(run.traced))
	runtimeMetrics(m, a.proc, b.proc, win.rows, win.hostSpeed)

	// checkpoint and the ladder, on trainer 0's trained model at the
	// per-rank batch shape.
	path := filepath.Join(p.outDir, "tmp-train_ltfb.ckpt")
	defer os.Remove(path)
	t0 := time.Now()
	if err := checkpoint.Save(path, int64(c.Rounds*c.RoundSteps), run.model.Nets()); err != nil {
		return nil, err
	}
	m["checkpoint.save_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := checkpoint.Load(path, cyclegan.New(c.Model, 0).Nets()); err != nil {
		return nil, err
	}
	m["checkpoint.load_ms"] = ms(time.Since(t0))
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	m["checkpoint.bytes"] = float64(info.Size())
	lad, err := runLadder(ctx, run.model, c.BatchSize/c.RanksPerTrainer, p.smoke)
	if err != nil {
		return nil, err
	}
	lad.fill(m)
	return m, nil
}
