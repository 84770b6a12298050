// Package ensemble reproduces the paper's ensemble workflow (Section II-C):
// running the JAG simulator over a space-filling sampling plan and packaging
// the results into multi-sample bundle files — 1,000 samples per file in
// the paper, 10,000 files for the 10M-sample corpus. The paper's Merlin
// system exists because JAG is so fast that scheduler overhead dominates a
// naive one-job-per-simulation workflow; this package reproduces that
// economics by batching simulations file-at-a-time: Run hands whole files,
// and GenerateInMemory runs of samples, to parallel.For, which splits them
// over the process's cores (GOMAXPROCS). A sample's images cost one
// emission profile per view, whatever the number of channels, and its
// flattened record is the simulator's own allocation.
package ensemble

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bundle"
	"repro/internal/jag"
	"repro/internal/parallel"
)

// Config describes a dataset-generation campaign.
type Config struct {
	Geometry jag.Config
	// Samples is the total number of simulations; the plan is the Halton
	// sequence starting at PlanOffset, which must not be negative.
	Samples    int
	PlanOffset int
	// SamplesPerFile sets the bundle size (the paper uses 1,000).
	SamplesPerFile int
	// OutDir receives files named jag-00000.jagb, jag-00001.jagb, ...
	OutDir string
}

// Validate reports whether the campaign is well-formed.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Samples < 1 || c.SamplesPerFile < 1 {
		return fmt.Errorf("ensemble: invalid sizes %+v", c)
	}
	if c.PlanOffset < 0 {
		return fmt.Errorf("ensemble: negative plan offset %d", c.PlanOffset)
	}
	if c.OutDir == "" {
		return fmt.Errorf("ensemble: no output directory")
	}
	return nil
}

// Result summarizes a completed campaign.
type Result struct {
	Paths   []string
	Samples int
	Elapsed time.Duration
}

// Run executes the campaign: each of parallel.For's goroutines simulates
// and writes whole bundle files (the batched task granularity that keeps
// scheduler overhead amortized). Files are deterministic functions of the
// plan, so re-running a campaign reproduces identical bytes.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("ensemble: %w", err)
	}
	start := time.Now()
	files := (cfg.Samples + cfg.SamplesPerFile - 1) / cfg.SamplesPerFile
	paths := make([]string, files)
	errs := make([]error, files)
	parallel.For(0, files, 1, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			paths[f], errs[f] = writeFile(cfg, f)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Result{Paths: paths, Samples: cfg.Samples, Elapsed: time.Since(start)}, nil
}

// writeFile simulates and writes one bundle file.
func writeFile(cfg Config, f int) (string, error) {
	lo := f * cfg.SamplesPerFile
	hi := lo + cfg.SamplesPerFile
	if hi > cfg.Samples {
		hi = cfg.Samples
	}
	records := make([][]float32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		records = append(records, jag.SimulateAt(cfg.Geometry, cfg.PlanOffset+i).Flatten())
	}
	path := filepath.Join(cfg.OutDir, fmt.Sprintf("jag-%05d.jagb", f))
	if err := bundle.Write(path, cfg.Geometry.SampleDim(), records); err != nil {
		return "", err
	}
	return path, nil
}

// GenerateInMemory materializes n flattened samples starting at plan offset
// without touching disk — the fast path for laptop-scale experiments.
func GenerateInMemory(g jag.Config, offset, n int) [][]float32 {
	out := make([][]float32, n)
	parallel.For(0, n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = jag.SimulateAt(g, offset+i).Flatten()
		}
	})
	return out
}
