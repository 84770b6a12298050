package netsim

import (
	"testing"
)

func TestValidate(t *testing.T) {
	if err := Lassen().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Lassen()
	bad.GPUFlops = 0
	if bad.Validate() == nil {
		t.Fatal("zero GPU flops must be invalid")
	}
	bad = Lassen()
	bad.NodeMemory = 0
	if bad.Validate() == nil {
		t.Fatal("zero node memory must be invalid")
	}
}

func TestNodes(t *testing.T) {
	cases := []struct{ gpus, per, want int }{{1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {16, 4, 4}, {16, 1, 16}}
	for _, c := range cases {
		if got := Nodes(c.gpus, c.per); got != c.want {
			t.Fatalf("Nodes(%d,%d) = %d, want %d", c.gpus, c.per, got, c.want)
		}
	}
}

func TestAllreduceSingleGPUFree(t *testing.T) {
	f := Lassen()
	if f.AllreduceTime(1e9, 1, 4) != 0 {
		t.Fatal("single GPU allreduce must cost nothing")
	}
}

func TestAllreduceGrowsWithBytesAndRanks(t *testing.T) {
	f := Lassen()
	if !(f.AllreduceTime(2e8, 4, 4) > f.AllreduceTime(1e8, 4, 4)) {
		t.Fatal("allreduce not monotone in bytes")
	}
	if !(f.AllreduceTime(1e8, 16, 4) > f.AllreduceTime(1e8, 4, 4)) {
		t.Fatal("allreduce across nodes must exceed intra-node")
	}
}

// The Figure 11 baseline mechanism: 16 GPUs on 16 nodes must pay much more
// for allreduce than 16 GPUs on 4 nodes.
func TestSparsePlacementPenalty(t *testing.T) {
	f := Lassen()
	dense := f.AllreduceTime(1e8, 16, 4)
	sparse := f.AllreduceTime(1e8, 16, 1)
	if !(sparse > dense*1.2) {
		t.Fatalf("sparse placement %v not sufficiently worse than dense %v", sparse, dense)
	}
}

func TestComputeTimeScalesInversely(t *testing.T) {
	f := Lassen()
	t1 := f.ComputeTime(1e12, 1)
	t4 := f.ComputeTime(1e12, 4)
	if t1/t4 < 3.99 || t1/t4 > 4.01 {
		t.Fatalf("compute scaling ratio %v, want 4", t1/t4)
	}
	if f.ComputeTime(1e12, 0) != t1 {
		t.Fatal("gpus<1 must clamp to 1")
	}
}

func TestRingTimeEdgeCases(t *testing.T) {
	f := Lassen()
	if f.ringTime(1e6, 1, 1e9, 1e-6) != 0 {
		t.Fatal("ring over one participant must be free")
	}
	if !(f.ringTime(1e6, 4, 1e9, 1e-6) > 0) {
		t.Fatal("ring time must be positive")
	}
}

func TestIBEffRailAffinity(t *testing.T) {
	f := Lassen()
	if got := f.ibEff(4); got != f.IBBandwidth {
		t.Fatalf("full node ibEff = %v, want full bandwidth", got)
	}
	if got := f.ibEff(1); got >= f.IBBandwidth {
		t.Fatalf("sparse node ibEff = %v, want degraded", got)
	}
	if got := f.ibEff(8); got != f.IBBandwidth {
		t.Fatalf("oversubscribed ibEff = %v, want capped at full", got)
	}
}
