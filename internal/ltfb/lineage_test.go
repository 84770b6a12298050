package ltfb

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// has and count read a lineage's bits: the package itself only adds,
// merges and ships them.
func has(l Lineage, id int) bool { return id >= 0 && id < len(l)*8 && l[id/8]&(1<<(id%8)) != 0 }

func count(l Lineage) int {
	n := 0
	for _, b := range l {
		n += bits.OnesCount8(b)
	}
	return n
}

func TestLineageBasics(t *testing.T) {
	l := NewLineage(10, 3)
	if !has(l, 3) || count(l) != 1 {
		t.Fatalf("fresh lineage wrong: %08b", l)
	}
	l.Add(7)
	l.Add(0)
	if !has(l, 0) || !has(l, 3) || !has(l, 7) || count(l) != 3 {
		t.Fatalf("lineage = %08b, want silos 0, 3 and 7", l)
	}
	// Out-of-range ids are ignored, not panics.
	l.Add(-1)
	l.Add(1000)
	if count(l) != 3 || has(l, -1) || has(l, 1000) {
		t.Fatal("out-of-range ids must be ignored")
	}
}

func TestLineageMerge(t *testing.T) {
	a := NewLineage(16, 1)
	b := NewLineage(16, 9)
	b.Add(14)
	a.Merge(b)
	if !has(a, 1) || !has(a, 9) || !has(a, 14) || count(a) != 3 {
		t.Fatalf("merged lineage = %08b, want silos 1, 9 and 14", a)
	}
	// Merge must not modify the source.
	if count(b) != 2 {
		t.Fatal("merge modified its argument")
	}
}

// Property: count equals the number of distinct added ids.
func TestLineageCountProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		l := make(Lineage, 32)
		distinct := map[int]bool{}
		for _, id := range ids {
			l.Add(int(id))
			distinct[int(id)] = true
		}
		return count(l) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper's exposure claim, executed: after several tournament rounds,
// adopted models carry multi-silo lineages, and lineages agree across the
// replicas of a trainer.
func TestTournamentsGrowLineage(t *testing.T) {
	cfg := Config{NumTrainers: 4, RoundSteps: 2, PairSeed: 11, Metric: MetricEval}
	members := buildPopulation(t, cfg, 1, nil, func(m *Member) {
		if _, err := playRounds(m, 6); err != nil {
			t.Error(err)
		}
	})
	totalExposure := 0
	adopters := 0
	for _, m := range members {
		c := count(m.Lineage())
		if c < 1 {
			t.Fatalf("trainer %d has empty lineage", m.TrainerID)
		}
		if !has(m.Lineage(), m.TrainerID) {
			t.Fatalf("trainer %d lineage misses its own silo", m.TrainerID)
		}
		if c > 1 {
			adopters++
		}
		totalExposure += c
	}
	if adopters == 0 {
		t.Fatal("no model gained multi-silo exposure over 6 rounds of 4 trainers")
	}
	if totalExposure <= len(members) {
		t.Fatal("lineages never grew beyond the home silo")
	}
}
