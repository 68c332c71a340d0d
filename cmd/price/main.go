// Command price explains the modelled performance of one kernel
// configuration on one GEMM shape: the analytical model's full breakdown
// (occupancy, utilisation, traffic, roofline sides) next to the wave-level
// microsimulator's independent estimate — the debugging lens for the
// substituted benchmark platform.
//
// Usage:
//
//	price -config t4x4a4_wg16x16 -shape 3136x576x128 [-device r9nano|gen9|mali]
package main

import (
	"flag"
	"fmt"
	"log"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/simwave"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("price: ")
	cfgStr := flag.String("config", "t4x4a4_wg16x16", "kernel configuration name")
	shapeStr := flag.String("shape", "3136x576x128", "GEMM shape as MxKxN")
	devName := flag.String("device", "r9nano", "device model: r9nano, gen9 or mali")
	flag.Parse()

	cfg, err := gemm.ParseConfig(*cfgStr)
	if err != nil {
		log.Fatal(err)
	}
	var m, k, n int
	if _, err := fmt.Sscanf(*shapeStr, "%dx%dx%d", &m, &k, &n); err != nil {
		log.Fatalf("bad -shape %q: %v", *shapeStr, err)
	}
	shape := gemm.Shape{M: m, K: k, N: n}
	if err := shape.Validate(); err != nil {
		log.Fatal(err)
	}

	dev, err := device.Lookup(*devName)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %v, %s (peak %.0f GFLOP/s, %.0f GB/s)\n\n",
		cfg, shape, dev.Name, dev.PeakGFLOPS(), dev.DRAMBandwidthGB)
	fmt.Println("analytical model (internal/sim):")
	fmt.Println(sim.New(dev).Price(cfg, shape))

	micro := simwave.New(dev)
	g, err := micro.GFLOPS(cfg, shape)
	if err != nil {
		log.Fatal(err)
	}
	t, _ := micro.KernelTime(cfg, shape)
	fmt.Printf("\nwave-level microsimulator (internal/simwave):\ntotal=%.3gs → %.1f GFLOP/s\n", t, g)
}
