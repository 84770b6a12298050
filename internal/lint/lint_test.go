package lint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture package seeds every violation shape the analyzer claims
// to catch (matched by // want comments) next to the corrected forms
// (which must stay silent) — the analyzer's contract, golden-file
// style.

func TestMetricName(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "metricname"), lint.MetricName)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxflow"), lint.CtxFlow)
}

// TestSuiteCleanOnRepo is the same gate CI runs: `go vet` and every
// analyzer over every package of the module, expecting zero findings. A
// regression that reintroduces a malformed metric name, a dropped ctx or
// a copied metrics.Histogram (vet's copylocks; `go test` runs only a
// subset of vet that leaves it out) fails tier-1 here, not just the CI
// lint job.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet ./...: %v\n%s", err, out)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — loader lost the module?", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, lint.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

// TestAllNamesUnique pins the suite's shape: two analyzers, distinct
// names (lint:ignore comments address them by name).
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 2 {
		t.Errorf("suite has %d analyzers, want 2", len(seen))
	}
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	return filepath.Dir(strings.TrimSpace(string(out))), nil
}
