// Command tune runs the brute-force auto-tuning stage of the paper: it
// prices every kernel configuration on every GEMM shape extracted from the
// VGG/ResNet/MobileNet workloads for a chosen device model and writes the
// resulting dataset as CSV (the analogue of the paper's published dataset).
//
// Usage:
//
//	tune [-device r9nano|gen9|mali] [-o dataset.csv] [-workers N]
package main

import (
	"flag"
	"log"
	"os"
	"sort"

	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tune: ")
	devName := flag.String("device", "r9nano", "device model: r9nano, gen9 or mali")
	out := flag.String("o", "", "output CSV path (default stdout)")
	workers := flag.Int("workers", 0, "worker pool size for pricing (0 = GOMAXPROCS)")
	flag.Parse()

	dev, err := device.Lookup(*devName)
	if err != nil {
		log.Fatalf("unknown device %q (want r9nano, gen9 or mali)", *devName)
	}

	shapes, per := workload.DatasetShapes()
	var names []string
	for n := range per {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		log.Printf("%-12s %3d shapes", n, per[n])
	}
	log.Printf("union: %d shapes × %d configurations on %s", len(shapes), len(gemm.AllConfigs()), dev.Name)

	ds := dataset.BuildParallel(sim.New(dev), shapes, gemm.AllConfigs(), *workers)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		log.Printf("wrote %s", *out)
	}
}
