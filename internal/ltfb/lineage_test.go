package ltfb

import (
	"testing"
	"testing/quick"
)

func TestLineageBasics(t *testing.T) {
	l := NewLineage(10, 3)
	if !l.Has(3) || l.Count() != 1 {
		t.Fatalf("fresh lineage wrong: %08b", l)
	}
	l.Add(7)
	l.Add(0)
	if !l.Has(0) || !l.Has(3) || !l.Has(7) || l.Count() != 3 {
		t.Fatalf("lineage = %08b, want silos 0, 3 and 7", l)
	}
	// Out-of-range ids are ignored, not panics.
	l.Add(-1)
	l.Add(1000)
	if l.Count() != 3 || l.Has(-1) || l.Has(1000) {
		t.Fatal("out-of-range ids must be ignored")
	}
}

func TestLineageMerge(t *testing.T) {
	a := NewLineage(16, 1)
	b := NewLineage(16, 9)
	b.Add(14)
	a.Merge(b)
	if !a.Has(1) || !a.Has(9) || !a.Has(14) || a.Count() != 3 {
		t.Fatalf("merged lineage = %08b, want silos 1, 9 and 14", a)
	}
	// Merge must not modify the source.
	if b.Count() != 2 {
		t.Fatal("merge modified its argument")
	}
}

func TestLineageCloneIndependent(t *testing.T) {
	a := NewLineage(8, 2)
	c := a.Clone()
	c.Add(5)
	if a.Has(5) {
		t.Fatal("clone aliases original")
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
		return l.Count() == len(distinct)
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
		if _, err := m.Loop(6); err != nil {
			t.Error(err)
		}
	})
	totalExposure := 0
	adopters := 0
	for _, m := range members {
		c := m.Lineage().Count()
		if c < 1 {
			t.Fatalf("trainer %d has empty lineage", m.TrainerID)
		}
		if !m.Lineage().Has(m.TrainerID) {
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
