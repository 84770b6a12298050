// Package netsim provides analytic communication-cost models for a
// CORAL-class machine (Lassen: IBM POWER9 nodes, 4 NVLink-connected V100s
// per node, dual-rail InfiniBand EDR between nodes — Section IV-A). The
// performance model composes these costs with the DES file-system model to
// regenerate the paper's epoch-time figures.
//
// The allreduce model is hierarchical, matching how NCCL/Aluminum run on
// this topology: a ring (reduce + broadcast) over NVLink within each node
// and a ring allreduce over InfiniBand between node leaders. This is the
// mechanism behind two results the model must reproduce: data-parallel
// efficiency falling to ~58% at 16 GPUs (Figure 9), and the 1-trainer
// baseline of Figure 11 — 16 GPUs spread across 16 nodes — paying far more
// for its allreduce than a 4-node trainer, part of LTFB's superlinear 70.2×.
package netsim

import "fmt"

// Fabric holds the interconnect and accelerator constants of the machine.
type Fabric struct {
	GPUsPerNode int
	// GPUFlops is the effective single-precision throughput of one GPU on
	// the surrogate's GEMM mix (well below peak for skinny matrices).
	GPUFlops float64
	// NVLinkBandwidth is bytes/s between GPUs within a node.
	NVLinkBandwidth float64
	NVLinkLatency   float64
	// IBBandwidth is bytes/s between nodes (dual-rail EDR).
	IBBandwidth float64
	IBLatency   float64
	// StepOverhead is the fixed software cost per ring step (kernel launch,
	// completion sync).
	StepOverhead float64
	// SparseNICPenalty models rail/socket affinity: a node running fewer
	// ranks than its physical GPU count cannot drive both IB rails. The
	// effective inter-node bandwidth is scaled by
	// (1-SparseNICPenalty) + SparseNICPenalty·perNode/GPUsPerNode.
	SparseNICPenalty float64
	// HostBandwidth is bytes/s of host-memory traffic per node, used for
	// data-store sample movement within a node.
	HostBandwidth float64
	// NodeMemory is bytes of host DRAM per node (data-store capacity).
	NodeMemory float64
	// MemoryPressure is the slowdown slope applied to host-memory traffic
	// as the data store approaches node capacity (cache/TLB thrash); the
	// inverse of the paper's "cache effects" superlinear speedup.
	MemoryPressure float64
}

// Lassen returns constants for the paper's machine.
func Lassen() Fabric {
	return Fabric{
		GPUsPerNode:      4,
		GPUFlops:         1.1e12,
		NVLinkBandwidth:  70e9,
		NVLinkLatency:    6e-6,
		IBBandwidth:      21e9,
		IBLatency:        1.5e-6,
		StepOverhead:     25e-6,
		SparseNICPenalty: 0.5,
		HostBandwidth:    110e9,
		NodeMemory:       256e9,
		MemoryPressure:   0.35,
	}
}

// Validate reports whether the fabric constants are usable.
func (f Fabric) Validate() error {
	if f.GPUsPerNode < 1 || f.GPUFlops <= 0 || f.NVLinkBandwidth <= 0 || f.IBBandwidth <= 0 {
		return fmt.Errorf("netsim: invalid fabric %+v", f)
	}
	if f.HostBandwidth <= 0 || f.NodeMemory <= 0 || f.MemoryPressure < 0 {
		return fmt.Errorf("netsim: invalid fabric %+v", f)
	}
	return nil
}

// Nodes returns the node count hosting gpus GPUs at gpusPerNode density.
func Nodes(gpus, gpusPerNode int) int {
	return (gpus + gpusPerNode - 1) / gpusPerNode
}

// ringTime is the cost of a ring reduce-scatter + allgather over n
// participants moving a total of bytes, on a link with the given bandwidth
// and per-step latency: 2(n-1) steps of (overhead + latency + bytes/n/bw).
func (f Fabric) ringTime(bytes float64, n int, bandwidth, latency float64) float64 {
	if n <= 1 {
		return 0
	}
	steps := float64(2 * (n - 1))
	return steps * (f.StepOverhead + latency + bytes/float64(n)/bandwidth)
}

// ibEff returns the effective inter-node bandwidth for a node running
// perNode ranks, applying the rail-affinity penalty for sparse placements.
func (f Fabric) ibEff(perNode int) float64 {
	frac := float64(perNode) / float64(f.GPUsPerNode)
	if frac > 1 {
		frac = 1
	}
	return f.IBBandwidth * ((1 - f.SparseNICPenalty) + f.SparseNICPenalty*frac)
}

// AllreduceTime returns the gradient-allreduce time for bytes of data across
// gpus GPUs packed gpusPerNode to a node (gpusPerNode may be less than the
// fabric's physical density, as in Figure 11's 1-GPU-per-node baseline).
func (f Fabric) AllreduceTime(bytes float64, gpus, gpusPerNode int) float64 {
	if gpus <= 1 {
		return 0
	}
	if gpusPerNode < 1 {
		gpusPerNode = 1
	}
	nodes := Nodes(gpus, gpusPerNode)
	if nodes == 1 {
		return f.ringTime(bytes, gpus, f.NVLinkBandwidth, f.NVLinkLatency)
	}
	perNode := gpus / nodes
	if perNode < 1 {
		perNode = 1
	}
	// Hierarchy: NVLink reduce within the node, IB ring across node
	// leaders, NVLink broadcast back.
	intra := f.ringTime(bytes, perNode, f.NVLinkBandwidth, f.NVLinkLatency)
	inter := f.ringTime(bytes, nodes, f.ibEff(perNode), f.IBLatency)
	return intra + inter
}

// ComputeTime returns the time for flops of GEMM work spread evenly over
// gpus GPUs.
func (f Fabric) ComputeTime(flops float64, gpus int) float64 {
	if gpus < 1 {
		gpus = 1
	}
	return flops / (f.GPUFlops * float64(gpus))
}
