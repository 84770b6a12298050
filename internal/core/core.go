// Package core is the top-level experiment harness of the reproduction: it
// wires the substrates together — JAG data generation, the distributed data
// store, data-parallel trainers, the LTFB tournament and the K-independent
// baseline — into the runnable experiments behind the paper's figures, and
// renders each figure's data as a text table.
//
// Two kinds of experiments coexist:
//
//   - Quality experiments (Figures 7, 8, 12, 13) really train CycleGAN
//     surrogates on synthetic JAG data at laptop scale, with trainers as
//     goroutine groups over the in-process MPI layer.
//   - Systems experiments (Figures 9, 10, 11) use the calibrated
//     performance model in internal/perfmodel, since they measure a
//     1024-GPU machine.
//
// Every experiment is deterministic given its config.
package core

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/ltfb"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// PartitionScheme selects how the training set is split across trainers.
type PartitionScheme string

// Partitioning options for the population experiments.
const (
	// PartitionContiguous gives each trainer a contiguous file/sample
	// range — how LTFB splits the corpus (Section III-C).
	PartitionContiguous PartitionScheme = "contiguous"
	// PartitionRandom gives each trainer a random 1/k subset — the
	// K-independent baseline's split (Section IV-E).
	PartitionRandom PartitionScheme = "random"
)

// QualityConfig sizes a real-training population experiment.
type QualityConfig struct {
	Geometry        jag.Config
	Model           cyclegan.Config
	Trainers        int
	RanksPerTrainer int
	// TrainSamples is the total corpus size; each trainer gets a
	// 1/Trainers partition under Partition.
	TrainSamples int
	ValSamples   int
	TournSamples int
	BatchSize    int
	Rounds       int
	RoundSteps   int
	Seed         int64
	Partition    PartitionScheme
	// LTFB toggles tournaments; false runs the partitioned K-independent
	// baseline on the same schedule.
	LTFB bool
	// Metric selects the tournament metric (ltfb.MetricEval by default).
	Metric ltfb.Metric
	// LRJitter spreads per-trainer learning rates over
	// [LR/(1+LRJitter), LR·(1+LRJitter)] — the paper initializes trainers
	// "with different weights and hyperparameters" so the population
	// explores the hyperparameter space and tournaments select good
	// settings (population-based training). Zero disables it.
	LRJitter float64
}

// trainerLR returns trainer k's learning rate under the jitter policy:
// rates are spread geometrically across the population, deterministic in k.
func (c QualityConfig) trainerLR(k int) float64 {
	if c.LRJitter <= 0 || c.Trainers == 1 {
		return c.Model.LR
	}
	span := 1 + c.LRJitter
	frac := float64(k)/float64(c.Trainers-1)*2 - 1 // in [-1, 1]
	return c.Model.LR * math.Pow(span, frac)
}

// DefaultQualityConfig returns a laptop-scale configuration used by the
// examples and benches.
func DefaultQualityConfig(trainers int) QualityConfig {
	g := jag.Tiny8
	m := cyclegan.DefaultConfig(g)
	m.EncoderHidden = []int{32}
	m.ForwardHidden = []int{16}
	m.InverseHidden = []int{12}
	m.DiscHidden = []int{12}
	return QualityConfig{
		Geometry:        g,
		Model:           m,
		Trainers:        trainers,
		RanksPerTrainer: 1,
		TrainSamples:    512,
		ValSamples:      96,
		TournSamples:    32,
		BatchSize:       16,
		Rounds:          6,
		RoundSteps:      8,
		Seed:            1,
		Partition:       PartitionContiguous,
		LTFB:            true,
	}
}

// Validate reports whether the configuration can run.
func (c QualityConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Trainers < 1 || c.RanksPerTrainer < 1 {
		return fmt.Errorf("core: invalid population %d x %d", c.Trainers, c.RanksPerTrainer)
	}
	if c.TrainSamples/c.Trainers < c.BatchSize {
		return fmt.Errorf("core: partition %d smaller than batch %d", c.TrainSamples/c.Trainers, c.BatchSize)
	}
	if c.Rounds < 1 || c.RoundSteps < 1 {
		return fmt.Errorf("core: invalid schedule %d x %d", c.Rounds, c.RoundSteps)
	}
	return nil
}

// QualityResult is the outcome of a population run.
type QualityResult struct {
	// RoundLosses[r][k] is trainer k's global-validation loss after round r.
	RoundLosses [][]float64
	// BestSeries[r] is the population-best loss after round r.
	BestSeries []float64
	// MeanSeries[r] is the population-mean loss after round r.
	MeanSeries []float64
	// Adoptions counts tournament adoptions across the run (0 for the
	// K-independent baseline).
	Adoptions int
	// FinalBest is the last entry of BestSeries.
	FinalBest float64
	// Models holds each trainer's final surrogate (the rank-0 replica),
	// indexed by trainer ID — the bridge from a training run to
	// checkpointing and serving (internal/serve).
	Models []*cyclegan.Surrogate
}

// datasetFor materializes the experiment's corpus deterministically: train,
// validation and tournament sets drawn from disjoint regions of the
// sampling plan.
func datasetFor(c QualityConfig) (train, val *reader.SliceDataset, tx, ty *tensor.Matrix, err error) {
	dim := c.Geometry.SampleDim()
	train, err = reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, 0, c.TrainSamples))
	if err != nil {
		return
	}
	val, err = reader.NewSliceDataset(dim, ensemble.GenerateInMemory(c.Geometry, c.TrainSamples, c.ValSamples))
	if err != nil {
		return
	}
	tourn := ensemble.GenerateInMemory(c.Geometry, c.TrainSamples+c.ValSamples, c.TournSamples)
	tx = tensor.New(c.TournSamples, jag.InputDim)
	ty = tensor.New(c.TournSamples, c.Geometry.OutputDim())
	for i, rec := range tourn {
		reader.SplitRow(rec, i, tx, ty)
	}
	return
}

// partitionIdx returns trainer k's sample indices under the scheme.
func partitionIdx(c QualityConfig, k int) []int {
	if c.Partition == PartitionRandom {
		return reader.PartitionRandom(c.TrainSamples, c.Trainers, k, c.Seed+7777)
	}
	return reader.PartitionContiguous(c.TrainSamples, c.Trainers, k)
}

// RunPopulation executes the configured experiment — LTFB tournaments or
// the K-independent baseline — and returns the per-round validation-loss
// trajectories.
func RunPopulation(c QualityConfig) (*QualityResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	train, val, tx, ty, err := datasetFor(c)
	if err != nil {
		return nil, err
	}

	worldSize := c.Trainers * c.RanksPerTrainer
	w := comm.NewWorld(worldSize)
	res := &QualityResult{RoundLosses: make([][]float64, c.Rounds)}
	for r := range res.RoundLosses {
		res.RoundLosses[r] = make([]float64, c.Trainers)
	}
	errs := make([]error, worldSize)
	adoptions := make([]int, c.Trainers)
	models := make([]*cyclegan.Surrogate, c.Trainers)

	w.Run(func(wc *comm.Comm) {
		trainerID := wc.Rank() / c.RanksPerTrainer
		tc := wc.Split(trainerID, 0)
		sub, err := reader.NewSubset(train, partitionIdx(c, trainerID))
		if err != nil {
			errs[wc.Rank()] = err
			return
		}
		store := datastore.New(tc, sub, datastore.ModeDynamic)
		modelCfg := c.Model
		modelCfg.LR = c.trainerLR(trainerID)
		model := cyclegan.New(modelCfg, c.Seed+int64(trainerID)*101)
		if tc.Rank() == 0 {
			models[trainerID] = model
		}
		tr, err := trainer.New(trainer.Config{
			ID:          trainerID,
			BatchSize:   c.BatchSize,
			XDim:        jag.InputDim,
			ShuffleSeed: c.Seed + int64(trainerID),
		}, tc, model, store, sub)
		if err != nil {
			errs[wc.Rank()] = err
			return
		}

		member := &ltfb.Member{
			Cfg: ltfb.Config{
				NumTrainers: c.Trainers,
				RoundSteps:  c.RoundSteps,
				PairSeed:    c.Seed + 99,
				Metric:      c.Metric,
			},
			TrainerID: trainerID,
			World:     wc,
			T:         tr,
			Scratch:   cyclegan.NewZero(c.Model), // copyAllWeights fills all five nets
			TournX:    tx,
			TournY:    ty,
		}

		for round := 0; round < c.Rounds; round++ {
			if err := tr.Advance(c.RoundSteps); err != nil {
				errs[wc.Rank()] = err
				return
			}
			if c.LTFB && c.Trainers > 1 {
				r, err := member.Tournament(round)
				if err != nil {
					errs[wc.Rank()] = err
					return
				}
				if r.Adopted && tc.Rank() == 0 {
					adoptions[trainerID]++
				}
			}
			loss, err := tr.Evaluate(val, c.BatchSize)
			if err != nil {
				errs[wc.Rank()] = err
				return
			}
			all := wc.AllgatherFloat64(loss)
			// Ranks of one trainer are replicas: after allreduced steps (and
			// an adoption, broadcast within the trainer) they hold the same
			// weights, so a trainer's loss is its first rank's, bit for bit.
			// Every rank sees every loss, so all of them stop together.
			for i, l := range all {
				if first := i - i%c.RanksPerTrainer; math.Float64bits(l) != math.Float64bits(all[first]) {
					errs[wc.Rank()] = fmt.Errorf("core: round %d: world rank %d evaluates to %v, its trainer's first rank to %v",
						round, i, l, all[first])
					return
				}
			}
			if wc.Rank() == 0 {
				for k := 0; k < c.Trainers; k++ {
					res.RoundLosses[round][k] = all[k*c.RanksPerTrainer]
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, a := range adoptions {
		res.Adoptions += a
	}
	for _, round := range res.RoundLosses {
		best, mean := round[0], 0.0
		for _, l := range round {
			if l < best {
				best = l
			}
			mean += l
		}
		res.BestSeries = append(res.BestSeries, best)
		res.MeanSeries = append(res.MeanSeries, mean/float64(len(round)))
	}
	res.FinalBest = res.BestSeries[len(res.BestSeries)-1]
	res.Models = models
	return res, nil
}
