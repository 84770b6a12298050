package ensemble

import (
	"runtime"
	"testing"

	"repro/internal/jag"
	"repro/internal/reader"
)

func TestRunWritesReadableBundles(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{
		Geometry:       jag.Tiny8,
		Samples:        25,
		SamplesPerFile: 10,
		OutDir:         dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 3 {
		t.Fatalf("wrote %d files, want 3 (10+10+5)", len(res.Paths))
	}
	ds, err := reader.OpenBundles(res.Paths)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Len() != 25 || ds.Dim() != jag.Tiny8.SampleDim() {
		t.Fatalf("dataset %dx%d", ds.Len(), ds.Dim())
	}
	// Content matches a direct simulation of the same plan point.
	dst := make([]float32, ds.Dim())
	if err := ds.Sample(17, dst); err != nil {
		t.Fatal(err)
	}
	want := jag.SimulateAt(jag.Tiny8, 17).Flatten()
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("sample 17 differs at %d", i)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	gen := func(procs int) []float32 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		res, err := Run(Config{Geometry: jag.Tiny8, Samples: 20, SamplesPerFile: 5, OutDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := reader.OpenBundles(res.Paths)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		dst := make([]float32, ds.Dim())
		if err := ds.Sample(13, dst); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), dst...)
	}
	a, b := gen(1), gen(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("worker count changed output bytes")
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Geometry: jag.Tiny8, Samples: 0, SamplesPerFile: 5, OutDir: t.TempDir()}); err == nil {
		t.Fatal("0 samples must error")
	}
	if _, err := Run(Config{Geometry: jag.Tiny8, Samples: 5, SamplesPerFile: 5}); err == nil {
		t.Fatal("missing out dir must error")
	}
	bad := Config{Geometry: jag.Config{}, Samples: 5, SamplesPerFile: 5, OutDir: t.TempDir()}
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid geometry must error")
	}
	// A negative offset reaches the degenerate Halton points the plan
	// skips, and below -20 every sample is the cube's origin.
	neg := Config{Geometry: jag.Tiny8, Samples: 5, SamplesPerFile: 5, PlanOffset: -1, OutDir: t.TempDir()}
	if _, err := Run(neg); err == nil {
		t.Fatal("negative plan offset must error")
	}
}

func TestGenerateInMemoryMatchesPlan(t *testing.T) {
	recs := GenerateInMemory(jag.Tiny8, 100, 12)
	if len(recs) != 12 {
		t.Fatalf("got %d records", len(recs))
	}
	want := jag.SimulateAt(jag.Tiny8, 105).Flatten()
	for i := range want {
		if recs[5][i] != want[i] {
			t.Fatal("offset handling wrong")
		}
	}
}
