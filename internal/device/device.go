// Package device describes the GPU-like targets the performance model in
// internal/sim can price kernels for. The paper's abstract motivates kernel
// selection "on a range of heterogeneous devices from desktop GPUs to
// embedded accelerators"; this package supplies representatives of that
// range, headed by the paper's actual benchmark platform (AMD R9 Nano).
package device

import "fmt"

// Spec describes a device for the analytical performance model. The
// parameters follow the GCN3 ("Fiji") machine organisation but are general
// enough for other SIMT designs: compute units composed of SIMD pipes, a
// register file and local scratchpad per CU, and a two-level cache in front
// of DRAM.
type Spec struct {
	Name string

	ComputeUnits   int // number of CUs
	SIMDsPerCU     int // SIMD pipes per CU
	WaveSize       int // work-items per hardware wave
	MaxWavesPerSIM int // resident wave slots per SIMD
	VGPRsPerLane   int // 32-bit registers available per lane per SIMD
	LDSBytesPerCU  int // local scratchpad per CU

	IssueClocksPerWave int // clocks a SIMD needs to issue one wave (4 on GCN: SIMD16 × wave64)

	ClockMHz        int     // shader clock
	FMAsPerLane     int     // fused multiply-adds issued per lane per clock
	DRAMBandwidthGB float64 // GB/s
	L1BytesPerCU    int
	L2Bytes         int
	CacheLineBytes  int

	LaunchOverheadUS float64 // fixed per-kernel dispatch cost in microseconds
}

// Validate reports whether the specification is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.ComputeUnits <= 0, s.SIMDsPerCU <= 0, s.WaveSize <= 0,
		s.MaxWavesPerSIM <= 0, s.VGPRsPerLane <= 0, s.LDSBytesPerCU <= 0,
		s.IssueClocksPerWave <= 0,
		s.ClockMHz <= 0, s.FMAsPerLane <= 0, s.DRAMBandwidthGB <= 0,
		s.L1BytesPerCU <= 0, s.L2Bytes <= 0, s.CacheLineBytes <= 0:
		return fmt.Errorf("device: %q has a non-positive parameter", s.Name)
	case s.LaunchOverheadUS < 0:
		return fmt.Errorf("device: %q has negative launch overhead", s.Name)
	}
	return nil
}

// PeakGFLOPS returns the single-precision peak in GFLOP/s
// (2 flops per FMA per effective lane per clock across the whole device).
func (s Spec) PeakGFLOPS() float64 {
	eff := float64(s.ComputeUnits) * float64(s.EffectiveLanesPerCU())
	return eff * float64(s.FMAsPerLane) * 2 * float64(s.ClockMHz) / 1000
}

// EffectiveLanesPerCU returns the FMA lanes a CU retires per clock. On GCN
// each of the 4 SIMDs is physically 16 lanes wide executing a wave64 over 4
// clocks, so a CU retires 4 × 64/4 = 64 lanes per clock.
func (s Spec) EffectiveLanesPerCU() int {
	return s.SIMDsPerCU * s.WaveSize / s.IssueClocksPerWave
}

// R9Nano returns the paper's benchmark platform: AMD R9 Nano (Fiji XT,
// GCN3): 64 CUs, 4×SIMD16 per CU, wave64, 256 VGPRs, 64 KiB LDS per CU,
// 1000 MHz, 8.19 TFLOP/s fp32, 4 GiB HBM at 512 GB/s, 16 KiB L1 per CU,
// 2 MiB L2.
func R9Nano() Spec {
	return Spec{
		Name:               "amd-r9-nano",
		ComputeUnits:       64,
		SIMDsPerCU:         4,
		WaveSize:           64,
		MaxWavesPerSIM:     10,
		IssueClocksPerWave: 4,
		VGPRsPerLane:       256,
		LDSBytesPerCU:      64 << 10,
		ClockMHz:           1000,
		FMAsPerLane:        1,
		DRAMBandwidthGB:    512,
		L1BytesPerCU:       16 << 10,
		L2Bytes:            2 << 20,
		CacheLineBytes:     64,
		LaunchOverheadUS:   8,
	}
}

// EmbeddedMaliG72 returns an embedded-class accelerator model loosely shaped
// like an Arm Mali G72 MP12: far fewer lanes, modest bandwidth, small
// caches, and higher relative launch cost — the "embedded accelerators" end
// of the paper's device range.
func EmbeddedMaliG72() Spec {
	return Spec{
		Name:               "embedded-mali-g72",
		ComputeUnits:       12,
		SIMDsPerCU:         1,
		WaveSize:           16,
		MaxWavesPerSIM:     6,
		IssueClocksPerWave: 4,
		VGPRsPerLane:       128,
		LDSBytesPerCU:      32 << 10,
		ClockMHz:           850,
		FMAsPerLane:        2,
		DRAMBandwidthGB:    14.9,
		L1BytesPerCU:       8 << 10,
		L2Bytes:            1 << 20,
		CacheLineBytes:     64,
		LaunchOverheadUS:   25,
	}
}

// IntegratedGen9 returns a desktop integrated-GPU model loosely shaped like
// an Intel Gen9 GT3e: mid lane count, shared-DRAM bandwidth, generous
// caches — the middle of the device range.
func IntegratedGen9() Spec {
	return Spec{
		Name:               "integrated-gen9",
		ComputeUnits:       24,
		SIMDsPerCU:         2,
		WaveSize:           32,
		MaxWavesPerSIM:     8,
		IssueClocksPerWave: 4,
		VGPRsPerLane:       128,
		LDSBytesPerCU:      64 << 10,
		ClockMHz:           1150,
		FMAsPerLane:        1,
		DRAMBandwidthGB:    34,
		L1BytesPerCU:       16 << 10,
		L2Bytes:            1536 << 10,
		CacheLineBytes:     64,
		LaunchOverheadUS:   12,
	}
}

// All returns every built-in device, benchmark platform first. These are the
// training devices: multi-device datasets and the unified selector are built
// over exactly this list.
func All() []Spec {
	return []Spec{R9Nano(), IntegratedGen9(), EmbeddedMaliG72()}
}

// Synthetics returns held-out device specs that no selector trains on:
// perturbations of the three real devices sweeping the axes the performance
// model's regimes pivot on (CU count, LDS capacity, DRAM bandwidth). They
// exist to measure generalization — a unified selector's score on these is
// its score on hardware it has never seen — and are deliberately excluded
// from All().
func Synthetics() []Spec {
	half := R9Nano()
	half.Name = "synthetic-fiji-32cu"
	half.ComputeUnits = 32
	half.DRAMBandwidthGB = 320

	hbm2 := R9Nano()
	hbm2.Name = "synthetic-fiji-hbm2"
	hbm2.DRAMBandwidthGB = 1024
	hbm2.L2Bytes = 4 << 20
	hbm2.ClockMHz = 1200

	wide := IntegratedGen9()
	wide.Name = "synthetic-gen9-lowlds"
	wide.ComputeUnits = 48
	wide.LDSBytesPerCU = 32 << 10
	wide.DRAMBandwidthGB = 51

	bigMali := EmbeddedMaliG72()
	bigMali.Name = "synthetic-mali-28cu"
	bigMali.ComputeUnits = 28
	bigMali.DRAMBandwidthGB = 25.6
	bigMali.LDSBytesPerCU = 64 << 10

	return []Spec{half, hbm2, wide, bigMali}
}

// ByName returns the built-in device whose Spec.Name matches. Synthetic
// held-out specs resolve too, so a unified serving daemon can route requests
// for devices outside the training set.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range Synthetics() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("device: unknown device %q", name)
}

// Lookup resolves a command-line device name: the short aliases r9nano,
// gen9 and mali first, then any full name ByName knows — which covers the
// synthetic held-out specs a unified artifact can serve without ever having
// trained on them.
func Lookup(name string) (Spec, error) {
	switch name {
	case "r9nano":
		return R9Nano(), nil
	case "gen9":
		return IntegratedGen9(), nil
	case "mali":
		return EmbeddedMaliG72(), nil
	}
	if spec, err := ByName(name); err == nil {
		return spec, nil
	}
	return Spec{}, fmt.Errorf("unknown device %q", name)
}

// NumFeatures is the width of the vector Features returns.
const NumFeatures = 7

// FeatureNames returns identifier-safe names for the columns of Features, in
// the same order — the device half of the variable names generated selector
// code uses (gemm shapes supply m, k, n).
func FeatureNames() []string {
	return []string{
		"devCUs",
		"devLanes",
		"devGFLOPS",
		"devBandwidthGB",
		"devLDSBytes",
		"devL2Bytes",
		"devLaunchUS",
	}
}

// Features returns the device as an ML feature vector, the cross-device
// counterpart of gemm.Shape.Features: a selector trained on shape features
// with these appended can condition its dispatch on the deployment target.
// The fields chosen are the ones the performance model's regimes pivot on —
// parallel width, peak throughput, bandwidth, on-chip capacities, and
// dispatch cost.
func (s Spec) Features() []float64 {
	return []float64{
		float64(s.ComputeUnits),
		float64(s.EffectiveLanesPerCU()),
		s.PeakGFLOPS(),
		s.DRAMBandwidthGB,
		float64(s.LDSBytesPerCU),
		float64(s.L2Bytes),
		s.LaunchOverheadUS,
	}
}
