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

func TestAcquireRelease(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "acquirerelease"), lint.AcquireRelease)
}

func TestAtomicField(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "atomicfield"), lint.AtomicField)
}

func TestMetricName(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "metricname"), lint.MetricName)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxflow"), lint.CtxFlow)
}

// TestSuiteCleanOnRepo is the same gate CI runs: every analyzer over
// every package of the module, expecting zero findings. A regression
// that reintroduces a leaked pin or a malformed metric name fails
// tier-1 here, not just the CI lint job.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
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

// TestAllNamesUnique pins the suite's shape: four analyzers, distinct
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
	if len(seen) != 4 {
		t.Errorf("suite has %d analyzers, want 4", len(seen))
	}
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", err
	}
	return filepath.Dir(strings.TrimSpace(string(out))), nil
}
