// Package ensemble reproduces the paper's ensemble workflow (Section II-C):
// running the JAG simulator over a space-filling sampling plan and packaging
// the results into multi-sample bundle files — 1,000 samples per file in
// the paper, 10,000 files for the 10M-sample corpus. The paper's Merlin
// system exists because JAG is so fast that scheduler overhead dominates a
// naive one-job-per-simulation workflow; this package reproduces that
// economics with a worker pool that batches simulations file-at-a-time. A
// sample's images cost one emission profile per view, whatever the number
// of channels, and its flattened record is the simulator's own allocation.
package ensemble

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/jag"
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
	// Workers is the worker-pool width; 0 means one.
	Workers int
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

// Run executes the campaign: each worker simulates and writes whole bundle
// files (the batched task granularity that keeps scheduler overhead
// amortized). Files are deterministic functions of the plan, so re-running
// a campaign reproduces identical bytes.
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

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range tasks {
				paths[f], errs[f] = writeFile(cfg, f)
			}
		}()
	}
	for f := 0; f < files; f++ {
		tasks <- f
	}
	close(tasks)
	wg.Wait()

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
	var wg sync.WaitGroup
	workers := 4
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = jag.SimulateAt(g, offset+i).Flatten()
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
