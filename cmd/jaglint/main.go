// Command jaglint is the project's static-analysis multichecker: two
// analyzers (internal/lint) that enforce the serving stack's metrics
// and lifecycle invariants — compile-time-validated metric names and
// intact context chains.
// docs/STATIC_ANALYSIS.md documents each invariant with bad/good
// examples and the suppression syntax.
//
// Usage:
//
//	jaglint [packages]      # default ./...
//	jaglint -list           # print the analyzer suite and exit
//	jaglint -only ctxflow,metricname ./internal/serve/...
//
// jaglint exits 1 when any analyzer reports a finding, 2 on usage or
// load errors — the same convention as go vet, so CI treats it as a
// gate. Suppress a single finding with an explanation:
//
//	ctx := context.Background() // lint:ignore ctxflow audit write must outlive the request
//
// The driver typechecks from source against build-cache export data
// (`go list -export`), so it needs no network and no modules beyond
// the standard library.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jaglint [-list] [-only a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "jaglint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaglint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jaglint:", err)
		os.Exit(2)
	}

	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaglint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "jaglint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}
