package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"kernelselect/internal/device"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// waitWarm blocks until the generation's warm pass completes or the test
// deadline expires.
func waitWarm(t *testing.T, gen *generation) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !gen.warmDone.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("warm pass did not complete: %d/%d shapes", gen.warmed.Load(), gen.warmTotal)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmFillsCache is the steady-state guarantee: with warming enabled,
// every warm shape is a cache hit before the first client request arrives,
// and the warm progress is visible on /healthz and /metrics.
func TestWarmFillsCache(t *testing.T) {
	model := sim.New(device.R9Nano())
	lib := buildLib(t, model, 6)
	srv := New(lib, model, Options{FallbackShapes: reloadShapes, Warm: true})
	be := srv.backends[0]
	gen := be.gen.Load()
	waitWarm(t, gen)

	if n := gen.cache.len(); n != len(reloadShapes) {
		t.Fatalf("warm cache holds %d entries, want %d", n, len(reloadShapes))
	}
	for _, s := range reloadShapes {
		d, err := srv.Decide(context.Background(), be.name, s)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Cached {
			t.Fatalf("shape %v missed the cache after warm completion", s)
		}
		if d.Degraded || d.PredictedGFLOPS <= 0 || d.Generation != gen.id {
			t.Fatalf("warm decision for %v is not full quality: %+v", s, d)
		}
		if d.Config != lib.Configs[d.Index].String() || d.Index != lib.ChooseIndex(s) {
			t.Fatalf("warm decision for %v disagrees with the library: %+v", s, d)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz := decodeResp[healthzResponse](t, resp)
	b := hz.Backends[0]
	if !b.WarmComplete || b.WarmShapes != len(reloadShapes) || b.Warmed != uint64(len(reloadShapes)) {
		t.Fatalf("healthz warm state %+v, want complete %d/%d", b, len(reloadShapes), len(reloadShapes))
	}

	m := metricsSnapshot(t, ts)
	for series, want := range map[string]float64{
		`selectd_warm_complete{device="` + model.Dev.Name + `"}`:     1,
		`selectd_warm_shapes_total{device="` + model.Dev.Name + `"}`: 12,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
}

// Without warming (the default), a generation reports vacuous completion so
// healthz never blocks readiness on a pass that will not run.
func TestWarmDisabledVacuouslyComplete(t *testing.T) {
	model := sim.New(device.R9Nano())
	srv := New(buildLib(t, model, 4), model, Options{FallbackShapes: reloadShapes})
	gen := srv.backends[0].gen.Load()
	total, warmed, done := gen.warmSnapshot()
	if !done || total != 0 || warmed != 0 {
		t.Fatalf("warm state %d/%d done=%v, want vacuous 0/0 done", warmed, total, done)
	}
	if n := gen.cache.len(); n != 0 {
		t.Fatalf("disabled warming cached %d entries", n)
	}
}

// TestReloadMidWarmNoStaleEntries reloads repeatedly while warm passes are in
// flight: the displaced generations' passes are cancelled, and once the final
// generation finishes warming its cache must contain only its own entries —
// full-quality decisions stamped with the final generation id. A stale
// generation's warm worker writing into a newer cache would fail the audit.
func TestReloadMidWarmNoStaleEntries(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	model := sim.New(device.R9Nano())
	libA := buildLib(t, model, 6)
	libB := buildLib(t, model, 4)
	srv := New(libA, model, Options{FallbackShapes: reloadShapes, Warm: true, WarmShapes: shapes})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before := metricsSnapshot(t, ts)

	// Swap libraries back and forth with no settling time, landing every
	// reload mid-warm.
	for i := 0; i < 8; i++ {
		lib := libA
		if i%2 == 0 {
			lib = libB
		}
		if _, err := srv.Reload("", lib, nil); err != nil {
			t.Fatal(err)
		}
	}
	gen := srv.backends[0].gen.Load()
	waitWarm(t, gen)

	// The warm counter is cumulative across the displaced generations'
	// partial passes — it may only grow through the storm, and the final
	// complete pass alone accounts for every warm shape.
	after := metricsSnapshot(t, ts)
	assertCountersMonotonic(t, before, after)
	if warmed := after[`selectd_warm_shapes_total{device="amd-r9-nano"}`]; warmed < float64(len(shapes)) {
		t.Errorf("cumulative warm counter %v after a complete pass over %d shapes", warmed, len(shapes))
	}

	audited := 0
	gen.cache.forEach(func(d Decision) {
		audited++
		if d.Generation != gen.id {
			t.Errorf("cache entry from generation %d in generation %d's cache", d.Generation, gen.id)
		}
		if d.Degraded || d.PredictedGFLOPS <= 0 {
			t.Errorf("degraded or unpriced warm entry cached: %+v", d)
		}
	})
	if audited != len(shapes) {
		t.Fatalf("final cache holds %d entries, want %d", audited, len(shapes))
	}
}
