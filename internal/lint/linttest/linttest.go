// Package linttest is the golden-file harness for the jaglint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone. A fixture directory under testdata holds
// one package of .go files annotated with expectations:
//
//	r.Counter("requests_total", "no prefix", nil) // want "does not match"
//
// Run loads the fixture, runs one analyzer, and fails the test for
// every expectation with no matching diagnostic (the analyzer went
// silent on a seeded violation) and every diagnostic with no matching
// expectation (the analyzer fired on the corrected form). A line may
// carry several expectations: `// want "a" "b"`. Each quoted string is
// a regexp matched against the diagnostic message on the same line.
//
// lint:ignore suppressions are applied before matching, so fixtures can
// also pin the suppression syntax itself.
package linttest

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe pulls the quoted regexps off a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` entry: a file, line, and message regexp.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// Run loads the fixture package at dir, runs the analyzer, and matches
// diagnostics against the fixture's // want comments.
func Run(t *testing.T, dir string, a *lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "want ")
				if idx < 0 || !strings.HasPrefix(strings.TrimLeft(c.Text, "/ "), "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
				}
			}
		}
	}

	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
