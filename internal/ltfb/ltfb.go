// Package ltfb implements "Let a Thousand Flowers Bloom" (Section III-C),
// the paper's tournament algorithm for training generative models at scale.
//
// K trainers train independently on disjoint partitions of the dataset. At
// fixed mini-batch intervals a tournament round runs: trainers are randomly
// paired, partners exchange their generator networks (discriminators stay
// local — the GAN extension this paper contributes over Jacobs et al. 2017),
// each trainer evaluates its own and the incoming generator on a local
// held-out tournament set, and the better one survives. A surviving model
// carries an encoded representation of the data silos it has visited, which
// is what lets LTFB strong-scale without a loss of generalization.
//
// The implementation is rank-level: every rank of every trainer calls
// Tournament collectively. Only trainer masters (trainer-rank 0) exchange
// weights across trainers, then broadcast the verdict and the winning
// weights to their replicas — exactly the communication structure of
// Figure 6b. Pairing decisions are derived from a shared seed, so no global
// coordination is needed.
package ltfb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/trainer"
)

// Pairing returns the tournament pairs for the given round: a random
// perfect matching of the k trainers (the last one sits out when k is odd).
// It is a pure function of (k, seed, round), so every rank computes the
// same matching locally.
func Pairing(k int, seed int64, round int) [][2]int {
	if k < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ (int64(round)+1)*0x5DEECE66D))
	perm := rng.Perm(k)
	var pairs [][2]int
	for i := 0; i+1 < k; i += 2 {
		pairs = append(pairs, [2]int{perm[i], perm[i+1]})
	}
	return pairs
}

// PartnerOf returns trainer id's partner in pairs, or -1 if it sits out.
func PartnerOf(pairs [][2]int, id int) int {
	for _, p := range pairs {
		if p[0] == id {
			return p[1]
		}
		if p[1] == id {
			return p[0]
		}
	}
	return -1
}

// Metric selects how tournament candidates are scored (lower wins).
type Metric int

const (
	// MetricEval scores candidates with Model.Eval on the tournament set —
	// the forward+inverse validation loss of Section IV.
	MetricEval Metric = iota
	// MetricAdversarial scores a candidate generator by how well it fools
	// the local discriminator (Figure 6b's "evaluate them against their
	// local discriminators"); requires the model to implement
	// AdversarialScorer, else falls back to MetricEval.
	MetricAdversarial
)

// AdversarialScorer is implemented by GAN models that can judge a generator
// with their local discriminator. Lower scores are better.
type AdversarialScorer interface {
	AdversarialScore(x, y *tensor.Matrix) float64
}

// Config fixes the tournament behaviour shared by all trainers.
type Config struct {
	NumTrainers int
	// RoundSteps is the number of mini-batch steps each trainer runs
	// between tournaments.
	RoundSteps int
	// PairSeed seeds the per-round pairings; identical on all ranks.
	PairSeed int64
	Metric   Metric
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumTrainers < 1 {
		return fmt.Errorf("ltfb: %d trainers", c.NumTrainers)
	}
	if c.RoundSteps < 1 {
		return fmt.Errorf("ltfb: round steps %d", c.RoundSteps)
	}
	return nil
}

// Member is one rank's participation in the LTFB population. World ranks
// must be laid out in contiguous trainer blocks: world rank =
// trainerID·ranksPerTrainer + trainerRank (Figure 4's layout).
type Member struct {
	Cfg       Config
	TrainerID int
	World     *comm.Comm
	T         *trainer.Trainer
	// Scratch is a same-architecture model used to evaluate incoming
	// weights against local context (encoder/discriminator).
	Scratch trainer.Model
	// TournX/TournY hold the local tournament dataset, already split into
	// inputs and outputs.
	TournX, TournY *tensor.Matrix
	// lineage records the data silos this member's current model has been
	// trained on; it is created lazily and merged on every adoption.
	lineage Lineage
}

// Lineage returns the silos the member's current model has trained on.
func (m *Member) Lineage() Lineage {
	if m.lineage == nil {
		m.lineage = NewLineage(m.Cfg.NumTrainers, m.TrainerID)
	}
	return m.lineage
}

// ltfbTagBase keeps tournament traffic clear of data-store tags.
const ltfbTagBase = 1 << 19

// RoundResult records one trainer's view of a tournament round.
type RoundResult struct {
	Round     int
	Partner   int     // -1 when sitting out
	LocalLoss float64 // local candidate's tournament score
	PeerLoss  float64 // incoming candidate's tournament score
	Adopted   bool    // whether the incoming candidate replaced ours
}

// score evaluates a candidate model on the local tournament set.
func (m *Member) score(model trainer.Model) float64 {
	if m.Cfg.Metric == MetricAdversarial {
		if s, ok := model.(AdversarialScorer); ok {
			return s.AdversarialScore(m.TournX, m.TournY)
		}
	}
	return model.Eval(m.TournX, m.TournY)
}

// copyAllWeights clones src's weights into dst net-by-net.
func copyAllWeights(dst, src trainer.Model) {
	dNets, sNets := dst.Nets(), src.Nets()
	for i := range dNets {
		dNets[i].CopyWeightsFrom(sNets[i])
	}
}

// Tournament runs one round. Collective: every rank of every trainer must
// call it with the same round number. It returns this trainer's result, or
// an error: before any exchange when the configuration is invalid, and on
// the master when its exchange failed. A failed exchange aborts the world
// (comm.Comm.Abort), so no rank waits for a verdict or a peer that will
// never come, and comm.World.Run returns the master's error.
func (m *Member) Tournament(round int) (RoundResult, error) {
	res := RoundResult{Round: round, Partner: -1}
	if err := m.Cfg.Validate(); err != nil {
		return res, err
	}
	pairs := Pairing(m.Cfg.NumTrainers, m.Cfg.PairSeed, round)
	partner := PartnerOf(pairs, m.TrainerID)
	res.Partner = partner
	if partner < 0 {
		return res, nil // odd trainer count: sit out, keep training
	}

	lin := m.Lineage()
	netsLen := nn.NetworksSize(m.T.Model.ExchangeNets())
	// The master's verdict is a status byte, the two scores as float32
	// bits, then the winning weights and lineage; one broadcast hands it
	// to every replica (Figure 6b).
	verdict := make([]byte, verdictHead+netsLen+len(lin))
	if m.T.C.Rank() == 0 {
		if err := m.judge(round, partner, verdict); err != nil {
			m.World.Abort(err)
			return res, err
		}
	}
	m.T.C.BcastBytes(0, verdict)
	res.LocalLoss = float64(math.Float32frombits(binary.LittleEndian.Uint32(verdict[1:])))
	res.PeerLoss = float64(math.Float32frombits(binary.LittleEndian.Uint32(verdict[5:])))
	res.Adopted = verdict[0] == verdictAdopt
	if res.Adopted {
		weights := verdict[verdictHead:]
		if err := nn.UnmarshalNetworks(m.T.Model.ExchangeNets(), weights[:netsLen]); err != nil {
			return res, fmt.Errorf("ltfb: trainer %d adopt: %w", m.TrainerID, err)
		}
		// The adopted model has seen its previous silos; from now on it
		// also trains here.
		m.lineage.Merge(Lineage(weights[netsLen:]))
		m.lineage.Add(m.TrainerID)
	}
	return res, nil
}

// The status byte that heads a verdict, and the verdict's head length.
const (
	verdictKeep = iota
	verdictAdopt
	verdictHead = 1 + 2*4
)

// judge runs on a trainer's master: it swaps generator payloads with the
// partner's master, scores both generators on the local tournament set and
// writes the verdict, or reports why the exchange failed.
func (m *Member) judge(round, partner int, verdict []byte) error {
	// The model's lineage bitset rides along after the weights.
	tag := ltfbTagBase + round%(1<<10)
	myBytes := append(nn.MarshalNetworks(m.T.Model.ExchangeNets()), m.lineage...)
	partnerMaster := partner * (m.World.Size() / m.Cfg.NumTrainers)
	incoming := m.World.SendrecvBytes(partnerMaster, myBytes, partnerMaster, tag)
	if len(incoming) != len(myBytes) {
		return fmt.Errorf("ltfb: trainer %d got %d payload bytes, want %d", m.TrainerID, len(incoming), len(myBytes))
	}

	// Judge the incoming generator against local context: the scratch
	// model keeps our encoder and discriminator, adopts their generator.
	copyAllWeights(m.Scratch, m.T.Model)
	netsLen := len(myBytes) - len(m.lineage)
	if err := nn.UnmarshalNetworks(m.Scratch.ExchangeNets(), incoming[:netsLen]); err != nil {
		return fmt.Errorf("ltfb: trainer %d: %w", m.TrainerID, err)
	}
	local, peer := m.score(m.T.Model), m.score(m.Scratch)
	binary.LittleEndian.PutUint32(verdict[1:], math.Float32bits(float32(local)))
	binary.LittleEndian.PutUint32(verdict[5:], math.Float32bits(float32(peer)))
	if peer < local {
		verdict[0] = verdictAdopt
		copy(verdict[verdictHead:], incoming)
	} else {
		verdict[0] = verdictKeep
		copy(verdict[verdictHead:], myBytes)
	}
	return nil
}
