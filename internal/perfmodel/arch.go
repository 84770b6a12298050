// Package perfmodel regenerates the paper's epoch-time results (Figures 9,
// 10 and 11) on the simulated substrate. It composes three ingredients:
//
//   - an architecture cost model (this file) that derives per-step GEMM
//     flops and per-phase gradient-allreduce bytes from the paper-scale
//     CycleGAN layer dimensions;
//   - the netsim fabric model for compute, allreduce and data-store shuffle
//     costs on Lassen's NVLink/InfiniBand topology;
//   - the des/pfs file-system simulation for naive ingestion and data-store
//     preloading, including the GPFS contention that degrades preload time
//     at 64 trainers.
//
// Absolute seconds are not expected to match the paper (the substrate is a
// model, not the machine); the calibration targets are the paper's ratios:
// 9.36× data-parallel speedup at 16 GPUs, data-store benefits of 7.73×
// (1 GPU) and 1.31×/1.43×/1.10× (16 GPUs), and LTFB's 70.2× / ~109%
// parallel efficiency at 64 trainers. See EXPERIMENTS.md for measured
// values.
//
// serving.go extends the same treatment to the inference path: an
// analytical model of internal/serve's batching queue (batch-window
// fill, per-pass cost, replica parallelism, cache hit rate, priority
// lanes) that predicts sustainable QPS and p50/p99 latency per replica
// count and batch window — calibrated by serve.CostProbe on the running
// binary rather than by the paper, and validated against a measured
// in-process benchmark by the tier-1 capacity test.
package perfmodel

// Arch captures the paper-scale CycleGAN layer dimensions (Section II-D;
// each component is a fully-connected stack). The default instance is sized
// for the full 64×64×12-image output bundle.
type Arch struct {
	InputDim  int
	OutputDim int
	LatentDim int
	// Hidden widths; the decoder mirrors the encoder.
	EncoderHidden []int
	ForwardHidden []int
	InverseHidden []int
	DiscHidden    []int
}

// PaperArch returns the architecture used for the performance model: the
// full-resolution output bundle (12 images at 64×64 plus 15 scalars =
// 49,167 outputs) with a 20-D latent space, sized to land in the parameter
// regime implied by the paper's epoch times.
func PaperArch() Arch {
	return Arch{
		InputDim:      5,
		OutputDim:     49167,
		LatentDim:     20,
		EncoderHidden: []int{768},
		ForwardHidden: []int{256, 256},
		InverseHidden: []int{128},
		DiscHidden:    []int{256, 128},
	}
}

// mlpParams returns the trainable scalar count of a fully-connected stack
// with the given layer widths (weights plus biases).
func mlpParams(dims []int) int {
	total := 0
	for i := 0; i+1 < len(dims); i++ {
		total += dims[i]*dims[i+1] + dims[i+1]
	}
	return total
}

func (a Arch) encDims() []int {
	d := append([]int{a.OutputDim}, a.EncoderHidden...)
	return append(d, a.LatentDim)
}

func (a Arch) decDims() []int {
	d := []int{a.LatentDim}
	for i := len(a.EncoderHidden) - 1; i >= 0; i-- {
		d = append(d, a.EncoderHidden[i])
	}
	return append(d, a.OutputDim)
}

func (a Arch) fwdDims() []int {
	d := append([]int{a.InputDim}, a.ForwardHidden...)
	return append(d, a.LatentDim)
}

func (a Arch) invDims() []int {
	d := append([]int{a.LatentDim}, a.InverseHidden...)
	return append(d, a.InputDim)
}

func (a Arch) dscDims() []int {
	d := append([]int{a.LatentDim}, a.DiscHidden...)
	return append(d, 1)
}

// Params returns the per-network trainable parameter counts.
func (a Arch) Params() (enc, dec, fwd, inv, disc int) {
	return mlpParams(a.encDims()), mlpParams(a.decDims()),
		mlpParams(a.fwdDims()), mlpParams(a.invDims()), mlpParams(a.dscDims())
}

// PhaseGradBytes returns the gradient bytes allreduced per training step by
// each of the three phases (autoencoder, discriminator, generator) — one
// float32 per updated parameter.
func (a Arch) PhaseGradBytes() (ae, disc, gen float64) {
	e, d, f, i, ds := a.Params()
	return 4 * float64(e+d), 4 * float64(ds), 4 * float64(f+i+d)
}

// FlopsPerSample returns the GEMM work per sample per training step across
// all three phases. Forward+backward through a dense stack costs ~6 flops
// per parameter per sample (2 forward, 4 backward); forward-only passes
// cost 2.
func (a Arch) FlopsPerSample() float64 {
	e, d, f, i, ds := a.Params()
	ae := 6 * float64(e+d)
	// Discriminator phase: D forward+backward on real and fake batches,
	// plus forward-only passes producing the latents.
	dsc := 2*6*float64(ds) + 2*float64(e) + 2*float64(f)
	// Generator phase: F, G and the decoder forward+backward, plus the
	// discriminator traversed for the adversarial gradient.
	gen := 6*float64(f+i+d) + 6*float64(ds)
	return ae + dsc + gen
}
