// Command figures regenerates every table and figure of the paper's
// evaluation section (Figures 7–13 plus the abstract's headline numbers)
// and prints them as text tables. Systems figures (9, 10, 11) come from the
// calibrated performance model; quality figures (7, 8, 12, 13) come from
// real training runs at laptop scale. Figure S1 extends the treatment to
// the serving path: it probes the forward-pass cost on this host
// (serve.CostProbe) and prints the predicted serving capacity — QPS and
// p50/p99 latency versus replica count and submission path (HTTP
// request, or Server.Call under a batch window) — plus a
// projection to the paper-scale architecture.
//
// Usage:
//
//	figures            # everything
//	figures -fig 11    # one figure
//	figures -fig S1    # serving-capacity sweep only
//	figures -scale medium   # larger (slower) quality experiments
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/cyclegan"
	"repro/internal/jag"
	"repro/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10, 11, 12, 13, S1, headline, sensitivity, or all")
	scale := flag.String("scale", "small", "quality-experiment scale: small or medium")
	flag.Parse()

	surrSteps := 2000
	surrSamples := 1024
	counts12 := []int{1, 2, 4}
	counts13 := []int{2, 4, 8}
	if *scale == "medium" {
		surrSteps = 3000
		surrSamples = 2048
		counts12 = []int{1, 2, 4, 8}
		counts13 = []int{2, 4, 8}
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("7") || want("8") {
		cfg := cyclegan.DefaultConfig(jag.Tiny8)
		cfg.EncoderHidden = []int{48}
		cfg.ForwardHidden = []int{32, 32}
		cfg.InverseHidden = []int{16}
		cfg.DiscHidden = []int{16}
		fmt.Println("training surrogate for figures 7/8 (~1 min) ...")
		model, err := core.TrainSurrogate(cfg, surrSamples, surrSteps, 32, 7)
		if err != nil {
			log.Fatal(err)
		}
		if want("7") {
			fmt.Print(core.Figure7(model, 16).Render())
			fmt.Println()
		}
		if want("8") {
			fmt.Print(core.Figure8(model, 16).Render())
			fmt.Println()
		}
	}
	if want("9") {
		fmt.Print(core.Figure9Table().Render())
		fmt.Println()
	}
	if want("10") {
		fmt.Print(core.Figure10Table().Render())
		fmt.Println()
	}
	if want("11") {
		fmt.Print(core.Figure11Table().Render())
		fmt.Println()
	}
	if want("12") {
		fmt.Println("running figure 12 populations (~2 min) ...")
		cfg12 := core.Figure12Config()
		if *scale == "medium" {
			cfg12.Rounds = 16
		}
		tab, err := core.Figure12(counts12, cfg12)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(tab.Render())
		fmt.Println()
	}
	if want("13") {
		fmt.Println("running figure 13 populations (near-convergence schedule, ~1-2 min) ...")
		cfg13 := core.Figure13Config()
		if *scale == "medium" {
			cfg13.TrainSamples = 1024
			cfg13.Rounds = 16
		}
		tab, err := core.Figure13(counts13, cfg13)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(tab.Render())
		fmt.Println()
	}
	if want("S1") {
		cost, probedCfg, err := core.ProbeServingCost()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(core.FigureS1Table(cost).Render())
		fmt.Println()
		paper, err := core.FigureS1PaperTable(cost, probedCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(paper.Render())
		fmt.Println()
	}
	if want("headline") || *fig == "all" {
		fmt.Print(core.HeadlineTable().Render())
	}
	if want("sensitivity") {
		fmt.Println("\nsensitivity of the 64-trainer headline to the modelled mechanisms:")
		fmt.Print(perfmodel.SensitivitySummary(perfmodel.SweepHeadline(5)))
	}
}
