package main

import (
	"os"
	"path/filepath"
	"testing"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

func TestTrainerAndPrunerLookup(t *testing.T) {
	for _, name := range []string{"tree", "forest", "1nn", "3nn", "linear-svm", "radial-svm"} {
		if _, err := core.SelectorTrainerByFlag(name); err != nil {
			t.Errorf("SelectorTrainerByFlag(%q): %v", name, err)
		}
	}
	if _, err := core.SelectorTrainerByFlag("martian"); err == nil {
		t.Error("unknown trainer accepted")
	}
	for _, name := range []string{"top-n", "k-means", "hdbscan", "pca+k-means", "decision-tree", "greedy-cover"} {
		if _, err := prunerFor(name); err != nil {
			t.Errorf("prunerFor(%q): %v", name, err)
		}
	}
	if _, err := prunerFor("martian"); err == nil {
		t.Error("unknown pruner accepted")
	}
	names := []string{"r9nano", "gen9", "mali"}
	for _, s := range device.Synthetics() {
		names = append(names, s.Name) // held-out specs are servable by name
	}
	for _, name := range names {
		if _, err := device.Lookup(name); err != nil {
			t.Errorf("device.Lookup(%q): %v", name, err)
		}
	}
	if _, err := device.Lookup("martian"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestParseBudgets(t *testing.T) {
	got, err := parseBudgets(" r9nano=64, gen9=16 ")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{device.R9Nano().Name: 64, device.IntegratedGen9().Name: 16}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("budget[%q] = %d, want %d", k, got[k], v)
		}
	}

	if got, err := parseBudgets(""); err != nil || got != nil {
		t.Errorf("empty flag: %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"r9nano", "martian=4", "r9nano=0", "r9nano=-2", "r9nano=x", "r9nano=1,r9nano=2", " , "} {
		if _, err := parseBudgets(bad); err == nil {
			t.Errorf("parseBudgets(%q): expected error", bad)
		}
	}
}

func TestCacheCapacityFlagMapping(t *testing.T) {
	if got := cacheCapacity(0); got != -1 {
		t.Errorf("cacheCapacity(0) = %d, want -1 (disabled)", got)
	}
	if got := cacheCapacity(-3); got != -1 {
		t.Errorf("cacheCapacity(-3) = %d, want -1", got)
	}
	if got := cacheCapacity(512); got != 512 {
		t.Errorf("cacheCapacity(512) = %d", got)
	}
}

// TestBuildLibraryFromArtifact checks the persisted-artifact path: a library
// saved to disk is what the daemon loads back.
func TestBuildLibraryFromArtifact(t *testing.T) {
	model := sim.New(device.R9Nano())
	shapes := []gemm.Shape{
		{M: 1, K: 4096, N: 1000}, {M: 3136, K: 64, N: 64}, {M: 784, K: 1152, N: 256},
		{M: 49, K: 4608, N: 512}, {M: 196, K: 384, N: 64}, {M: 3136, K: 128, N: 128},
		{M: 12544, K: 27, N: 32}, {M: 49, K: 960, N: 160}, {M: 100352, K: 3, N: 64},
		{M: 196, K: 512, N: 512},
	}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:80])
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)

	path := filepath.Join(t.TempDir(), "lib.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveLibrary(f, lib); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := loadLibrary(path, device.R9Nano().Name, false)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SelectorName() != lib.SelectorName() {
		t.Fatalf("selector %q, want %q", loaded.SelectorName(), lib.SelectorName())
	}
	for _, s := range shapes {
		if loaded.Choose(s) != lib.Choose(s) {
			t.Fatalf("loaded library disagrees on %v", s)
		}
	}

	if _, err := loadLibrary(filepath.Join(t.TempDir(), "missing.json"), "", false); err == nil {
		t.Error("missing artifact accepted")
	}

	// The artifact above is untagged (SaveLibrary): fine for a single-device
	// daemon, rejected when -devices names several devices and every artifact
	// must prove which backend it belongs to.
	if _, err := loadLibrary(path, device.R9Nano().Name, true); err == nil {
		t.Error("untagged artifact accepted in strict (multi-device) mode")
	}

	// A specialist artifact is not a unified one.
	if _, err := loadUnifiedLibrary(path); err == nil {
		t.Error("shape-only artifact accepted by the unified loader")
	}
}

// A device-tagged artifact must refuse to load for a different device, and
// load cleanly for its own.
func TestLoadLibraryDeviceTag(t *testing.T) {
	model := sim.New(device.IntegratedGen9())
	shapes := []gemm.Shape{{M: 8, K: 8, N: 8}, {M: 64, K: 64, N: 64}, {M: 256, K: 256, N: 256}}
	ds := dataset.Build(model, shapes, gemm.AllConfigs()[:40])
	lib := core.BuildLibrary(ds, core.TopN{}, core.DecisionTreeSelector{}, 4, 42)

	path := filepath.Join(t.TempDir(), "gen9.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveLibraryForDevice(f, lib, device.IntegratedGen9().Name); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := loadLibrary(path, device.IntegratedGen9().Name, false); err != nil {
		t.Fatalf("own device rejected: %v", err)
	}
	if _, err := loadLibrary(path, device.R9Nano().Name, false); err == nil {
		t.Fatal("foreign device tag accepted")
	}
	// A properly tagged artifact passes strict mode too.
	if _, err := loadLibrary(path, device.IntegratedGen9().Name, true); err != nil {
		t.Fatalf("tagged artifact rejected in strict mode: %v", err)
	}
}

func TestDevicesForParsing(t *testing.T) {
	specs, err := devicesFor("r9nano, gen9,mali")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != device.R9Nano().Name {
		t.Fatalf("parsed %d specs, first %q", len(specs), specs[0].Name)
	}
	for _, bad := range []string{"", " , ", "r9nano,martian", "gen9,gen9"} {
		if _, err := devicesFor(bad); err == nil {
			t.Errorf("devicesFor(%q): expected error", bad)
		}
	}
}
