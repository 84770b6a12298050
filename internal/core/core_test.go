package core

import (
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/ensemble"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/reader"
)

func fastConfig(trainers int) QualityConfig {
	c := DefaultQualityConfig(trainers)
	c.TrainSamples = 128
	c.ValSamples = 48
	c.TournSamples = 16
	c.BatchSize = 8
	c.Rounds = 3
	c.RoundSteps = 4
	return c
}

func TestConfigValidate(t *testing.T) {
	c := DefaultQualityConfig(2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Trainers = 0
	if bad.Validate() == nil {
		t.Fatal("0 trainers must be invalid")
	}
	bad = c
	bad.TrainSamples = 8
	if bad.Validate() == nil {
		t.Fatal("partition < batch must be invalid")
	}
	bad = c
	bad.Rounds = 0
	if bad.Validate() == nil {
		t.Fatal("0 rounds must be invalid")
	}
}

func TestRunPopulationSingleTrainer(t *testing.T) {
	res, err := RunPopulation(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RoundLosses) != 3 || len(res.RoundLosses[0]) != 1 {
		t.Fatalf("round losses shape wrong: %+v", res.RoundLosses)
	}
	if res.Adoptions != 0 {
		t.Fatal("single trainer cannot adopt")
	}
	if res.FinalBest <= 0 {
		t.Fatalf("final best = %v", res.FinalBest)
	}
	// Training should not make things worse over rounds.
	if res.BestSeries[len(res.BestSeries)-1] > res.BestSeries[0]*1.5 {
		t.Fatalf("loss exploded: %v", res.BestSeries)
	}
}

func TestRunPopulationLTFBDeterministic(t *testing.T) {
	a, err := RunPopulation(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPopulation(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for r := range a.RoundLosses {
		for k := range a.RoundLosses[r] {
			if a.RoundLosses[r][k] != b.RoundLosses[r][k] {
				t.Fatalf("round %d trainer %d: %v vs %v", r, k, a.RoundLosses[r][k], b.RoundLosses[r][k])
			}
		}
	}
}

// TestRunPopulationGolden pins a whole LTFB run — forward, backward, Adam,
// allreduce, tournaments, evaluation — to the validation losses and adoption
// count the commit before the SIMD micro-kernels (PR 13) produced on this
// configuration. A kernel that drifts by one ulp changes these bits, and
// sooner or later a tournament verdict; it must fail here, not silently
// re-roll every experiment. The config uses the real Tiny8 layer widths, two
// ranks per trainer and 7 rows per rank, so the grouped kernels, their k%4
// remainder and the allreduce are all on the path.
func TestRunPopulationGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are amd64's: other ports may fuse the multiply-adds outside internal/tensor's kernels")
	}
	res, err := RunPopulation(QualityConfig{
		Geometry:        jag.Tiny8,
		Model:           cyclegan.DefaultConfig(jag.Tiny8),
		Trainers:        3,
		RanksPerTrainer: 2,
		TrainSamples:    192,
		ValSamples:      48,
		TournSamples:    16,
		BatchSize:       14,
		Rounds:          4,
		RoundSteps:      4,
		Seed:            7,
		Partition:       PartitionContiguous,
		LTFB:            true,
		LRJitter:        0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0.7216002345085144, 0.7244170308113098, 0.7216002345085144},
		{0.7195746898651123, 0.7195746898651123, 0.714418351650238},
		{0.7163851261138916, 0.7163851261138916, 0.6967565417289734},
		{0.7111465334892273, 0.7111465334892273, 0.6556907296180725},
	}
	if len(res.RoundLosses) != len(want) {
		t.Fatalf("%d rounds, want %d", len(res.RoundLosses), len(want))
	}
	for r, round := range want {
		for k, w := range round {
			if got := res.RoundLosses[r][k]; got != w {
				t.Errorf("round %d trainer %d: validation loss %v, want %v", r, k, got, w)
			}
		}
	}
	if res.Adoptions != 4 {
		t.Errorf("%d adoptions, want 4", res.Adoptions)
	}
}

func TestRunPopulationMultiRank(t *testing.T) {
	for _, ltfb := range []bool{true, false} {
		c := fastConfig(2)
		c.RanksPerTrainer = 2
		c.LTFB = ltfb
		if !ltfb {
			c.Partition = PartitionRandom // the K-independent baseline of Figure 13
		}
		// RunPopulation fails if the two ranks of a trainer ever report
		// different validation losses.
		res, err := RunPopulation(c)
		if err != nil {
			t.Fatalf("LTFB=%v: %v", ltfb, err)
		}
		last := res.RoundLosses[len(res.RoundLosses)-1]
		if len(last) != 2 {
			t.Fatalf("LTFB=%v: expected 2 trainers, got %d", ltfb, len(last))
		}
		if want := math.Min(last[0], last[1]); res.FinalBest != want || want <= 0 {
			t.Fatalf("LTFB=%v: final best %v, want the smaller of %v", ltfb, res.FinalBest, last)
		}
		if !ltfb && res.Adoptions != 0 {
			t.Fatalf("K-independent trainers adopted %d models", res.Adoptions)
		}
	}
}

func TestTrainSurrogateAndFigures78(t *testing.T) {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{32}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	model, err := TrainSurrogate(cfg, 96, 30, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	f7 := Figure7(model, 16).Render()
	if !strings.Contains(f7, "yield") || !strings.Contains(f7, "pearson") {
		t.Fatalf("figure 7 table malformed:\n%s", f7)
	}
	if got := strings.Count(f7, "\n"); got != 3+jag.ScalarDim {
		t.Fatalf("figure 7 has %d lines", got)
	}
	f8 := Figure8(model, 8).Render()
	if strings.Count(f8, "\n") != 3+jag.Tiny8.NumImages() {
		t.Fatalf("figure 8 malformed:\n%s", f8)
	}
}

// TestTrainSurrogateGolden pins the weights TrainSurrogate returns — 30 steps
// over five epochs of 100 samples in batches of 16, the last four of each
// epoch dropped — to the checksum the commit before PR 24 produced with its
// own shuffler/assemble/split loop: the one-rank trainer.Trainer that does
// the walk now sees the same batches in the same order.
func TestTrainSurrogateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits are amd64's: other ports may fuse the multiply-adds outside internal/tensor's kernels")
	}
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{32}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	model, err := TrainSurrogate(cfg, 100, 30, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(nn.MarshalNetworks(model.Nets()))
	if got := h.Sum64(); got != 0x3604775a4ff4de4d {
		t.Fatalf("weights checksum %#x, the parent's loop trained %#x", got, uint64(0x3604775a4ff4de4d))
	}
}

func TestTrainSurrogateValidation(t *testing.T) {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	if _, err := TrainSurrogate(cfg, 4, 1, 16, 1); err == nil {
		t.Fatal("train smaller than batch must error")
	}
}

func TestFigure12TableShape(t *testing.T) {
	tab, err := Figure12([]int{1, 2}, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if !strings.Contains(out, "improvement@2trainers") {
		t.Fatalf("missing column:\n%s", out)
	}
	if _, err := Figure12([]int{2}, fastConfig(1)); err == nil {
		t.Fatal("figure 12 without baseline must error")
	}
}

func TestFigure13TableShape(t *testing.T) {
	tab, err := Figure13([]int{2}, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	if !strings.Contains(out, "advantage_best") || !strings.Contains(out, "advantage_mean") {
		t.Fatalf("missing column:\n%s", out)
	}
}

func TestPerfTablesRender(t *testing.T) {
	for name, tab := range map[string]string{
		"fig9":     Figure9Table().Render(),
		"fig10":    Figure10Table().Render(),
		"fig11":    Figure11Table().Render(),
		"headline": HeadlineTable().Render(),
	} {
		if len(tab) < 50 {
			t.Fatalf("%s table too small:\n%s", name, tab)
		}
	}
	if !strings.Contains(Figure10Table().Render(), "OOM") {
		t.Fatal("figure 10 should mark infeasible points")
	}
	if !strings.Contains(HeadlineTable().Render(), "70.2x") {
		t.Fatal("headline must quote the paper number")
	}
}

func TestDataStoreDemo(t *testing.T) {
	tab, err := DataStoreDemo(t.TempDir(), 4, 16, 2, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Render()
	for _, mode := range []string{"dynamic-loading", "data-store-dynamic", "data-store-preloaded"} {
		if !strings.Contains(out, mode) {
			t.Fatalf("missing mode %s:\n%s", mode, out)
		}
	}
}

// TestStoreEpochsEndOnAFailedPreload: a bundle cut short after it was opened
// makes its owner's Preload fail. The owner aborts the world, so the other
// rank, waiting in Fetch for the samples the owner holds, is released and
// runStoreEpochs returns the read error instead of waiting for ever.
func TestStoreEpochsEndOnAFailedPreload(t *testing.T) {
	res, err := ensemble.Run(ensemble.Config{Geometry: jag.Tiny8, Samples: 64, SamplesPerFile: 16, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reader.OpenBundles(res.Paths)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := os.Truncate(res.Paths[1], bundle.FileBytes(16, jag.Tiny8.SampleDim())/2); err != nil { // rank 1's file
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := runStoreEpochs(ds, datastore.ModePreload, 2, 6, 8)
		got <- err
	}()
	select {
	case err := <-got:
		if err == nil || !strings.Contains(err.Error(), res.Paths[1]) {
			t.Fatalf("runStoreEpochs returned %v, want the truncated bundle's read error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: a rank still waits on the rank whose preload failed")
	}
}

// The paper's central quality claim, end to end at laptop scale: an LTFB
// population is at least as good as the same-shape K-independent population
// on global validation data.
func TestLTFBNotWorseThanKIndependent(t *testing.T) {
	base := fastConfig(1)
	base.Rounds = 5
	base.RoundSteps = 6

	ltfbCfg := base
	ltfbCfg.Trainers = 4
	ltfbCfg.LTFB = true
	ltfbRes, err := RunPopulation(ltfbCfg)
	if err != nil {
		t.Fatal(err)
	}
	kindCfg := base
	kindCfg.Trainers = 4
	kindCfg.LTFB = false
	kindCfg.Partition = PartitionRandom
	kindRes, err := RunPopulation(kindCfg)
	if err != nil {
		t.Fatal(err)
	}
	if ltfbRes.FinalBest > kindRes.FinalBest*1.10 {
		t.Fatalf("LTFB (%v) markedly worse than K-independent (%v)", ltfbRes.FinalBest, kindRes.FinalBest)
	}
	if ltfbRes.Adoptions == 0 {
		t.Fatal("tournaments never adopted a model; exchange is not functioning")
	}
}

func TestTrainerLRJitter(t *testing.T) {
	c := DefaultQualityConfig(4)
	if c.trainerLR(2) != c.Model.LR {
		t.Fatal("zero jitter must keep the base LR")
	}
	c.LRJitter = 0.5
	lo := c.trainerLR(0)
	hi := c.trainerLR(3)
	if lo >= c.Model.LR || hi <= c.Model.LR {
		t.Fatalf("jitter should spread around base: %v .. %v (base %v)", lo, hi, c.Model.LR)
	}
	ratio := hi / lo
	if ratio < 2.24 || ratio > 2.26 { // (1.5)^2 = 2.25
		t.Fatalf("jitter span = %v, want 2.25", ratio)
	}
	// A jittered population still runs and stays deterministic.
	cfg := fastConfig(3)
	cfg.LRJitter = 0.4
	a, err := RunPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalBest != b.FinalBest {
		t.Fatal("jittered run not deterministic")
	}
}
