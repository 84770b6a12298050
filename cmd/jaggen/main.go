// Command jaggen runs the ensemble workflow: it executes the synthetic JAG
// simulator over the Halton sampling plan and packs the results into bundle
// files, reproducing (at configurable scale) the paper's 10,000-file HDF5
// corpus generation. A sample's images cost one emission profile per view,
// so -channels adds little time; -size sets it, quadratically. Bundle files
// are simulated on as many cores as GOMAXPROCS allows, and their bytes do
// not depend on how many.
//
// Usage:
//
//	jaggen -out data/ -samples 10000 -per-file 1000 -size 16
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ensemble"
	"repro/internal/jag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jaggen: ")
	out := flag.String("out", "data", "output directory for bundle files")
	samples := flag.Int("samples", 10000, "total simulations to run")
	perFile := flag.Int("per-file", 1000, "samples per bundle file")
	size := flag.Int("size", 16, "image resolution per side")
	views := flag.Int("views", 3, "X-ray lines of sight")
	channels := flag.Int("channels", 4, "hyperspectral channels per view")
	offset := flag.Int("offset", 0, "sampling-plan offset (use a disjoint offset for validation sets)")
	flag.Parse()

	cfg := ensemble.Config{
		Geometry:       jag.Config{ImageSize: *size, Views: *views, Channels: *channels},
		Samples:        *samples,
		PlanOffset:     *offset,
		SamplesPerFile: *perFile,
		OutDir:         *out,
	}
	res, err := ensemble.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d samples into %d bundle files under %s in %v\n",
		res.Samples, len(res.Paths), *out, res.Elapsed.Round(1e6))
	fmt.Printf("sample width: %d floats (%d bytes)\n", cfg.Geometry.SampleDim(), 4*cfg.Geometry.SampleDim())
}
