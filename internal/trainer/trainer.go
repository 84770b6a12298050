// Package trainer implements LBANN's trainer abstraction (Section III-A):
// a trainer is a set of ranks (simulated GPUs) that together train one model
// replica set with data-parallel SGD. Each rank holds an identical model
// replica, consumes its shard of every mini-batch from the distributed data
// store, and the replicas stay in lockstep because gradients are combined
// with a bitwise-deterministic ring allreduce before every optimizer step.
//
// Running LBANN with multiple trainers gives two levels of parallelism —
// within each trainer (this package) and between trainers (package ltfb).
package trainer

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/datastore"
	"repro/internal/nn"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// Model is the contract a trainable surrogate fulfills;
// cyclegan.Surrogate implements it structurally.
type Model interface {
	// TrainStep runs one mini-batch (x inputs, y targets), reducing each
	// phase's gradients through r, and returns named loss values.
	TrainStep(x, y *tensor.Matrix, r nn.Reducer) map[string]float64
	// Eval returns the validation objective on a batch (lower is better).
	Eval(x, y *tensor.Matrix) float64
	// Nets returns every network of the model.
	Nets() []*nn.Network
	// ExchangeNets returns the networks shipped in LTFB tournaments.
	ExchangeNets() []*nn.Network
}

// AllreduceReducer averages gradients across the ranks of a trainer
// communicator using the ring allreduce. The gradients of one Reduce call are
// one slab (nn.GradSlab) and the ring sums it where it lies, matching how
// Aluminum aggregates small tensors into one buffer. Every rank reduces every
// parameter — one that has not trained on this rank yet contributes zeros —
// so the ranks' slabs always agree in length.
type AllreduceReducer struct {
	C *comm.Comm
}

// Reduce replaces every gradient with the cross-rank average.
func (r AllreduceReducer) Reduce(params []*nn.Param) {
	n := r.C.Size()
	if n == 1 {
		return
	}
	slab := nn.GradSlab(params)
	r.C.AllreduceSum(slab)
	inv := float32(1) / float32(n)
	for i := range slab {
		slab[i] *= inv
	}
}

// Config fixes a trainer's training loop parameters.
type Config struct {
	// ID is the trainer's index among all trainers (seeds, diagnostics).
	ID int
	// BatchSize is the global mini-batch size per step (the paper uses
	// 128); it must be at least the rank count so every rank always has
	// work.
	BatchSize int
	// XDim is the number of leading input columns in each flattened sample.
	XDim int
	// ShuffleSeed seeds the per-epoch permutations; all ranks of a trainer
	// must agree on it.
	ShuffleSeed int64
}

// Trainer is one rank's view of a trainer. All ranks of the trainer must
// call its collective methods (Advance, Evaluate) together.
type Trainer struct {
	Cfg   Config
	C     *comm.Comm
	Model Model
	Store *datastore.Store

	shuffler *reader.Shuffler
	batches  [][]int
	cursor   int
	epochs   int // epochs finished
	// x and y hold this rank's share of the step's mini-batch: the store
	// fills them, TrainStep reads them, and the next step overwrites them.
	x, y *tensor.Matrix
}

// New wires a trainer rank together. Every rank of the trainer passes the
// same cfg, its own communicator handle and store, and the shared (or
// identically-partitioned) dataset.
func New(cfg Config, c *comm.Comm, model Model, store *datastore.Store, data reader.Dataset) (*Trainer, error) {
	if cfg.BatchSize < c.Size() {
		return nil, fmt.Errorf("trainer %d: batch size %d smaller than %d ranks", cfg.ID, cfg.BatchSize, c.Size())
	}
	if data.Len() < cfg.BatchSize {
		return nil, fmt.Errorf("trainer %d: dataset of %d samples smaller than batch %d", cfg.ID, data.Len(), cfg.BatchSize)
	}
	if cfg.XDim < 1 || cfg.XDim >= data.Dim() {
		return nil, fmt.Errorf("trainer %d: xDim %d outside (0,%d)", cfg.ID, cfg.XDim, data.Dim())
	}
	// Every batch is full (the trailing short one is dropped), so the
	// rank's share of a step has the same size every time.
	share := len(reader.PartitionContiguous(cfg.BatchSize, c.Size(), c.Rank()))
	return &Trainer{
		Cfg:      cfg,
		C:        c,
		Model:    model,
		Store:    store,
		shuffler: reader.NewShuffler(data.Len(), cfg.ShuffleSeed),
		x:        tensor.New(share, cfg.XDim),
		y:        tensor.New(share, data.Dim()-cfg.XDim),
	}, nil
}

// Reducer returns the gradient reducer for this trainer rank.
func (t *Trainer) Reducer() nn.Reducer { return AllreduceReducer{C: t.C} }

// Advance runs the next n mini-batch steps, crossing epoch boundaries as
// needed: it is the one walk from a shuffler's batches to TrainStep. Partial
// trailing batches are dropped so every rank always receives at least one
// sample. It is collective across the trainer's ranks.
func (t *Trainer) Advance(n int) error {
	for i := 0; i < n; i++ {
		if t.cursor == len(t.batches) {
			if t.batches != nil {
				t.epochs++
			}
			t.batches = reader.Batches(t.shuffler.Epoch(t.epochs), t.Cfg.BatchSize, true)
			t.cursor = 0
		}
		batch := t.batches[t.cursor]
		t.cursor++

		if err := t.Store.Fetch(batch, t.x, t.y); err != nil {
			return fmt.Errorf("trainer %d rank %d: %w", t.Cfg.ID, t.C.Rank(), err)
		}
		t.Model.TrainStep(t.x, t.y, t.Reducer())
	}
	return nil
}

// Evaluate computes the model's mean Eval objective over a validation
// dataset, data-parallel: each rank evaluates a contiguous shard and the
// result is allreduced, so every rank returns the same value.
func (t *Trainer) Evaluate(val reader.Dataset, batchSize int) (float64, error) {
	idx := reader.PartitionContiguous(val.Len(), t.C.Size(), t.C.Rank())
	x := tensor.New(min(batchSize, len(idx)), t.Cfg.XDim)
	y := tensor.New(x.Rows, val.Dim()-t.Cfg.XDim)
	var lossSum float64
	for lo := 0; lo < len(idx); lo += batchSize {
		part := idx[lo:min(lo+batchSize, len(idx))]
		bx, by := x.SliceRows(0, len(part)), y.SliceRows(0, len(part))
		if err := reader.FillXY(val, part, bx, by); err != nil {
			return 0, err
		}
		lossSum += t.Model.Eval(bx, by) * float64(len(part))
	}
	buf := []float32{float32(lossSum), float32(len(idx))}
	t.C.AllreduceSum(buf)
	if buf[1] == 0 {
		return 0, fmt.Errorf("trainer %d: empty validation set", t.Cfg.ID)
	}
	return float64(buf[0] / buf[1]), nil
}
