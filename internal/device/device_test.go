package device

import (
	"fmt"
	"testing"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestValidateRejectsBrokenSpec(t *testing.T) {
	s := R9Nano()
	s.ComputeUnits = 0
	if s.Validate() == nil {
		t.Fatal("zero compute units accepted")
	}
	s = R9Nano()
	s.LaunchOverheadUS = -1
	if s.Validate() == nil {
		t.Fatal("negative launch overhead accepted")
	}
}

func TestR9NanoPeak(t *testing.T) {
	// Fiji XT: 64 CU × 64 lanes × 2 flops × 1.0 GHz = 8192 GFLOP/s.
	got := R9Nano().PeakGFLOPS()
	if got != 8192 {
		t.Fatalf("R9 Nano peak = %v GFLOP/s, want 8192", got)
	}
}

func TestEffectiveLanes(t *testing.T) {
	if got := R9Nano().EffectiveLanesPerCU(); got != 64 {
		t.Fatalf("R9 Nano lanes/CU = %d, want 64", got)
	}
}

func TestDeviceOrderingByPeak(t *testing.T) {
	// The device range must actually span desktop → integrated → embedded.
	r9, gen9, mali := R9Nano(), IntegratedGen9(), EmbeddedMaliG72()
	if !(r9.PeakGFLOPS() > gen9.PeakGFLOPS() && gen9.PeakGFLOPS() > mali.PeakGFLOPS()) {
		t.Fatalf("peaks not ordered: %v %v %v", r9.PeakGFLOPS(), gen9.PeakGFLOPS(), mali.PeakGFLOPS())
	}
	if !(r9.DRAMBandwidthGB > gen9.DRAMBandwidthGB && gen9.DRAMBandwidthGB > mali.DRAMBandwidthGB) {
		t.Fatal("bandwidths not ordered")
	}
}

func TestAllReturnsBenchmarkPlatformFirst(t *testing.T) {
	all := All()
	if len(all) != 3 || all[0].Name != "amd-r9-nano" {
		t.Fatalf("All() = %v", all)
	}
}

func TestByName(t *testing.T) {
	for _, want := range All() {
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.Name, err)
		}
		if got != want {
			t.Fatalf("ByName(%q) returned a different spec", want.Name)
		}
	}
	if _, err := ByName("martian-npu"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestFeaturesWidthAndDistinctness(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(All(), Synthetics()...) {
		f := s.Features()
		if len(f) != NumFeatures {
			t.Fatalf("%s: %d features, want %d", s.Name, len(f), NumFeatures)
		}
		for i, v := range f {
			if v <= 0 {
				t.Fatalf("%s: feature %d is %v, want positive", s.Name, i, v)
			}
		}
		key := fmt.Sprint(f)
		if seen[key] {
			t.Fatalf("%s: feature vector collides with another device", s.Name)
		}
		seen[key] = true
	}
}

func TestFeatureNamesMatchWidth(t *testing.T) {
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("%d feature names for %d features", len(names), NumFeatures)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("feature names not unique and non-empty: %v", names)
		}
		seen[n] = true
	}
}

func TestSyntheticsValidateAndStayHeldOut(t *testing.T) {
	trained := map[string]bool{}
	for _, s := range All() {
		trained[s.Name] = true
	}
	syn := Synthetics()
	if len(syn) < 3 {
		t.Fatalf("%d synthetic specs, want at least 3 for the held-out table", len(syn))
	}
	seen := map[string]bool{}
	for _, s := range syn {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if trained[s.Name] {
			t.Errorf("%s: synthetic spec shadows a training device", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("%s: duplicate synthetic name", s.Name)
		}
		seen[s.Name] = true

		got, err := ByName(s.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", s.Name, err)
		} else if got != s {
			t.Errorf("ByName(%q) returned a different spec", s.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	cases := []struct {
		name, want string // want "" means unknown
	}{
		{"r9nano", R9Nano().Name},
		{"gen9", IntegratedGen9().Name},
		{"mali", EmbeddedMaliG72().Name},
		{R9Nano().Name, R9Nano().Name},
		{EmbeddedMaliG72().Name, EmbeddedMaliG72().Name},
		{Synthetics()[0].Name, Synthetics()[0].Name},
		{"martian", ""},
		{"", ""},
		{"R9NANO", ""},
		{" gen9", ""},
	}
	for _, tc := range cases {
		got, err := Lookup(tc.name)
		if tc.want == "" {
			if err == nil || err.Error() != fmt.Sprintf("unknown device %q", tc.name) {
				t.Errorf("Lookup(%q) = %q, %v; want the unknown-device error", tc.name, got.Name, err)
			}
			continue
		}
		if err != nil || got.Name != tc.want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", tc.name, got.Name, err, tc.want)
		}
	}
}
