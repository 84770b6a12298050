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
	"fmt"
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
// an error before any exchange when the configuration is invalid.
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

	ranksPer := m.World.Size() / m.Cfg.NumTrainers
	lin := m.Lineage()
	netsLen := nn.NetworksSize(m.T.Model.ExchangeNets())
	payloadLen := netsLen + len(lin)
	verdict := make([]byte, 1+payloadLen)

	if m.T.C.Rank() == 0 {
		// Masters swap generator payloads across trainers (Figure 6b); the
		// model's lineage bitset rides along after the weights.
		tag := ltfbTagBase + round%(1<<10)
		myBytes := append(nn.MarshalNetworks(m.T.Model.ExchangeNets()), lin...)
		partnerMaster := partner * ranksPer
		incoming := m.World.SendrecvBytes(partnerMaster, myBytes, partnerMaster, tag)
		if len(incoming) != payloadLen {
			return res, fmt.Errorf("ltfb: trainer %d got %d payload bytes, want %d", m.TrainerID, len(incoming), payloadLen)
		}

		// Judge the incoming generator against local context: the scratch
		// model keeps our encoder and discriminator, adopts their
		// generator.
		copyAllWeights(m.Scratch, m.T.Model)
		if err := nn.UnmarshalNetworks(m.Scratch.ExchangeNets(), incoming[:netsLen]); err != nil {
			return res, fmt.Errorf("ltfb: trainer %d: %w", m.TrainerID, err)
		}
		res.LocalLoss = m.score(m.T.Model)
		res.PeerLoss = m.score(m.Scratch)
		if res.PeerLoss < res.LocalLoss {
			verdict[0] = 1
			copy(verdict[1:], incoming)
		} else {
			copy(verdict[1:], myBytes)
		}
	}

	// The verdict (and winning weights plus lineage) propagate to every
	// replica.
	m.T.C.BcastBytes(0, verdict)
	adopted := verdict[0] == 1
	res.Adopted = adopted
	if adopted {
		if err := nn.UnmarshalNetworks(m.T.Model.ExchangeNets(), verdict[1:1+netsLen]); err != nil {
			return res, fmt.Errorf("ltfb: trainer %d adopt: %w", m.TrainerID, err)
		}
		// The adopted model has seen its previous silos; from now on it
		// also trains here.
		m.lineage.Merge(Lineage(verdict[1+netsLen:]))
		m.lineage.Add(m.TrainerID)
	}

	// Non-master ranks learn the scores too, for uniform logging.
	scores := []float32{float32(res.LocalLoss), float32(res.PeerLoss)}
	m.T.C.Bcast(0, scores)
	res.LocalLoss = float64(scores[0])
	res.PeerLoss = float64(scores[1])
	return res, nil
}
