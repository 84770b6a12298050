package repro

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/ltfb"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// TestEndToEndDiskBackedLTFB exercises the full production path the paper
// describes: the ensemble workflow writes bundle files to disk, trainers
// open them as a dataset, each trainer's preloaded distributed data store
// populates from its file partition, data-parallel ranks train CycleGAN
// replicas with ring-allreduced gradients, and LTFB tournaments exchange
// generators between trainers — then validation improves and the replicas
// agree.
func TestEndToEndDiskBackedLTFB(t *testing.T) {
	const (
		trainers = 2
		ranksPer = 2
		files    = 8
		perFile  = 16
	)
	res, err := ensemble.Run(ensemble.Config{
		Geometry:       jag.Tiny8,
		Samples:        files * perFile,
		SamplesPerFile: perFile,
		OutDir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	modelCfg := cyclegan.DefaultConfig(jag.Tiny8)
	modelCfg.EncoderHidden = []int{24}
	modelCfg.ForwardHidden = []int{16}
	modelCfg.InverseHidden = []int{12}
	modelCfg.DiscHidden = []int{12}

	val, err := reader.NewSliceDataset(jag.Tiny8.SampleDim(),
		ensemble.GenerateInMemory(jag.Tiny8, 4000, 48))
	if err != nil {
		t.Fatal(err)
	}
	tourn := ensemble.GenerateInMemory(jag.Tiny8, 5000, 16)
	tx := tensor.New(16, jag.InputDim)
	ty := tensor.New(16, jag.Tiny8.OutputDim())
	for i, rec := range tourn {
		copy(tx.Row(i), rec[:jag.InputDim])
		copy(ty.Row(i), rec[jag.InputDim:])
	}

	w := comm.NewWorld(trainers * ranksPer)
	before := make([]float64, trainers)
	after := make([]float64, trainers)
	members := make([]*ltfb.Member, trainers*ranksPer)
	w.Run(func(wc *comm.Comm) {
		trainerID := wc.Rank() / ranksPer
		tc := wc.Split(trainerID, 0)

		// Each trainer opens the whole corpus but trains on its contiguous
		// file partition, exactly the paper's data layout.
		ds, err := reader.OpenBundles(res.Paths)
		if err != nil {
			t.Error(err)
			return
		}
		defer ds.Close()
		idx := reader.PartitionContiguous(ds.Len(), trainers, trainerID)
		sub, err := reader.NewSubset(ds, idx)
		if err != nil {
			t.Error(err)
			return
		}

		store := datastore.New(tc, sub, datastore.ModeDynamic)
		model := cyclegan.New(modelCfg, int64(10+trainerID))
		tr, err := trainer.New(trainer.Config{
			ID: trainerID, BatchSize: 16, XDim: jag.InputDim, ShuffleSeed: int64(trainerID),
		}, tc, model, store, sub)
		if err != nil {
			t.Error(err)
			return
		}
		m := &ltfb.Member{
			Cfg:       ltfb.Config{NumTrainers: trainers, RoundSteps: 6, PairSeed: 5},
			TrainerID: trainerID,
			World:     wc,
			T:         tr,
			Scratch:   cyclegan.NewZero(modelCfg),
			TournX:    tx,
			TournY:    ty,
		}
		members[wc.Rank()] = m

		loss, err := tr.Evaluate(val, 16)
		if err != nil {
			t.Error(err)
			return
		}
		if tc.Rank() == 0 {
			before[trainerID] = loss
		}
		for round := 0; round < 4; round++ {
			if err := tr.Advance(m.Cfg.RoundSteps); err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Tournament(round); err != nil {
				t.Error(err)
				return
			}
		}
		loss, err = tr.Evaluate(val, 16)
		if err != nil {
			t.Error(err)
			return
		}
		if tc.Rank() == 0 {
			after[trainerID] = loss
		}
	})

	for k := 0; k < trainers; k++ {
		if !(after[k] < before[k]) {
			t.Fatalf("trainer %d did not improve: %v -> %v", k, before[k], after[k])
		}
	}
	// Replicas of each trainer hold identical models after tournaments.
	for k := 0; k < trainers; k++ {
		a := members[k*ranksPer].T.Model.Nets()
		bNets := members[k*ranksPer+1].T.Model.Nets()
		for i := range a {
			pa, pb := a[i].Params(), bNets[i].Params()
			for j := range pa {
				if !pa[j].W.Equal(pb[j].W) {
					t.Fatalf("trainer %d replicas diverged (net %d)", k, i)
				}
			}
		}
	}
}

// TestFiguresRegenerateQuickly is the smoke test for the figure harness the
// benches and cmd/figures rely on.
func TestFiguresRegenerate(t *testing.T) {
	if len(core.Figure9Table().Render()) == 0 ||
		len(core.Figure10Table().Render()) == 0 ||
		len(core.Figure11Table().Render()) == 0 ||
		len(core.HeadlineTable().Render()) == 0 {
		t.Fatal("figure tables empty")
	}
}
