package serve

import (
	"context"
	"math"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/obs"
	"kernelselect/internal/sim"
)

// The fallback config must match the offline best-geomean computation
// exactly, across devices and library sizes.
func TestFallbackMatchesOfflineGeomean(t *testing.T) {
	shapes := reloadShapes
	cases := []struct {
		spec device.Spec
		n    int
	}{
		{device.R9Nano(), 4},
		{device.R9Nano(), 8},
		{device.IntegratedGen9(), 4},
		{device.IntegratedGen9(), 6},
		{device.EmbeddedMaliG72(), 4},
	}
	for _, tc := range cases {
		model := sim.New(tc.spec)
		ds := dataset.Build(model, shapes, gemm.AllConfigs()[:120])
		lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, tc.n, 42)
		srv := New(lib, model, Options{FallbackShapes: shapes})

		// Offline: argmax over configs of the geometric-mean GFLOPS.
		best, bestScore := 0, math.Inf(-1)
		for i, cfg := range lib.Configs {
			sum := 0.0
			for _, s := range shapes {
				sum += math.Log(model.GFLOPS(cfg, s))
			}
			if score := sum / float64(len(shapes)); score > bestScore {
				best, bestScore = i, score
			}
		}

		fb := *srv.backends[0].gen.Load().fb.Load()
		if fb.Index != best {
			t.Errorf("%s n=%d: fallback index %d, offline geomean best %d", tc.spec.Name, tc.n, fb.Index, best)
		}
		if fb.Config != lib.Configs[best].String() {
			t.Errorf("%s n=%d: fallback config %q, want %q", tc.spec.Name, tc.n, fb.Config, lib.Configs[best])
		}
		if !fb.Degraded || fb.Generation == 0 {
			t.Errorf("%s n=%d: fallback template %+v not marked degraded/stamped", tc.spec.Name, tc.n, fb)
		}
	}
}

// When the compute-cost EWMA says the remaining deadline cannot cover a
// pricing pass, the request degrades immediately instead of starting work it
// must abandon.
func TestDeadlineTooShortDegrades(t *testing.T) {
	srv, ts := testServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	be := srv.backends[0]
	// Teach the estimator that a pricing pass takes far longer than any
	// deadline this server hands out.
	ewmaObserve(&be.computeEWMA, 10*time.Second)

	d := decodeResp[Decision](t, postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 11, K: 12, N: 13}))
	if !d.Degraded || d.DegradedReason != "deadline" {
		t.Fatalf("short-deadline request not degraded(deadline): %+v", d)
	}
	if _, ok := be.gen.Load().cache.get(gemm.Shape{M: 11, K: 12, N: 13}); ok {
		t.Fatal("deadline-degraded decision was cached")
	}
}

// flakyPricer fails while `failing` is set and prices through the model
// otherwise — the deterministic stand-in for a pricing dependency that goes
// down and recovers.
type flakyPricer struct {
	model   *sim.Model
	failing atomic.Bool
	calls   atomic.Uint64
}

type pricerError struct{}

func (pricerError) Error() string { return "pricing backend down" }

func (p *flakyPricer) PriceGFLOPS(_ context.Context, cfg gemm.Config, s gemm.Shape) (float64, error) {
	p.calls.Add(1)
	if p.failing.Load() {
		return 0, pricerError{}
	}
	return p.model.GFLOPS(cfg, s), nil
}

// The circuit breaker must trip to fallback-only after K consecutive pricing
// failures (serving degraded answers without touching the pricer), half-open
// after the cooldown, and close again on a successful trial.
func TestCircuitBreakerTripsAndRecovers(t *testing.T) {
	model := sim.New(device.R9Nano())
	lib := buildLib(t, model, 6)
	pricer := &flakyPricer{model: model}
	srv, err := NewMulti(
		[]Backend{{Device: model.Dev.Name, Lib: lib, Model: model, Pricer: pricer}},
		Options{FallbackShapes: reloadShapes, BreakerThreshold: 3, BreakerCooldown: 30 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	be := srv.backends[0]

	// Healthy: full service.
	d, err := srv.Decide(context.Background(), be.name, gemm.Shape{M: 64, K: 64, N: 64})
	if err != nil || d.Degraded {
		t.Fatalf("healthy decide: %+v, %v", d, err)
	}

	// Pricing goes down: each attempt fails and degrades with reason
	// "error"; the third consecutive failure trips the breaker.
	pricer.failing.Store(true)
	for i := 0; i < 3; i++ {
		d, err := srv.Decide(context.Background(), be.name, gemm.Shape{M: 100 + i, K: 7, N: 7})
		if err != nil || !d.Degraded || d.DegradedReason != "error" {
			t.Fatalf("failure %d: %+v, %v", i, d, err)
		}
		if _, ok := be.gen.Load().cache.get(gemm.Shape{M: 100 + i, K: 7, N: 7}); ok {
			t.Fatalf("failure %d: degraded decision cached", i)
		}
	}
	if state, trips := be.breaker.snapshot(); state != breakerOpen || trips != 1 {
		t.Fatalf("after threshold failures: state %v trips %d, want open/1", state, trips)
	}

	// Open: requests degrade with reason "breaker" and never call the
	// pricer.
	before := pricer.calls.Load()
	d, err = srv.Decide(context.Background(), be.name, gemm.Shape{M: 200, K: 7, N: 7})
	if err != nil || !d.Degraded || d.DegradedReason != "breaker" {
		t.Fatalf("open-breaker decide: %+v, %v", d, err)
	}
	if pricer.calls.Load() != before {
		t.Fatal("open breaker still called the pricer")
	}

	// After the cooldown a trial goes through; with pricing recovered it
	// closes the breaker and full service resumes.
	pricer.failing.Store(false)
	time.Sleep(40 * time.Millisecond)
	d, err = srv.Decide(context.Background(), be.name, gemm.Shape{M: 300, K: 7, N: 7})
	if err != nil || d.Degraded {
		t.Fatalf("trial decide: %+v, %v", d, err)
	}
	if state, _ := be.breaker.snapshot(); state != breakerClosed {
		t.Fatalf("after successful trial: state %v, want closed", state)
	}
}

// Breaker state-machine unit test: half-open failure re-opens (and
// re-counts a trip), concurrent trials are excluded, aborts release the
// trial slot without judging the pricing path.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := breaker{threshold: 2, cooldown: time.Second, trips: new(obs.Counter)}

	if !b.allow(now) {
		t.Fatal("closed breaker refused")
	}
	b.onFailure(now)
	if !b.allow(now) {
		t.Fatal("one failure below threshold tripped")
	}
	b.onFailure(now)
	if b.allow(now) {
		t.Fatal("threshold failures did not trip")
	}
	if b.allow(now.Add(999 * time.Millisecond)) {
		t.Fatal("open breaker allowed before cooldown")
	}

	// Cooldown elapsed: exactly one trial may proceed.
	trialTime := now.Add(time.Second)
	if !b.allow(trialTime) {
		t.Fatal("half-open refused the trial")
	}
	if b.allow(trialTime) {
		t.Fatal("second concurrent trial allowed")
	}
	// Trial fails: straight back to open, one more trip.
	b.onFailure(trialTime)
	if state, trips := b.snapshot(); state != breakerOpen || trips != 2 {
		t.Fatalf("failed trial: state %v trips %d, want open/2", state, trips)
	}

	// Next trial aborts (deadline death): the slot frees without closing or
	// re-opening, so another trial may run and succeed.
	t2 := trialTime.Add(time.Second)
	if !b.allow(t2) {
		t.Fatal("second cooldown refused the trial")
	}
	b.onAbort()
	if !b.allow(t2) {
		t.Fatal("aborted trial did not release the slot")
	}
	b.onSuccess()
	if state, _ := b.snapshot(); state != breakerClosed {
		t.Fatalf("successful trial left state %v", state)
	}
	if !b.allow(t2) {
		t.Fatal("closed breaker refused after recovery")
	}
}

// The degraded and breaker series must appear on the metrics page with
// device and reason labels.
func TestDegradedMetricsSeries(t *testing.T) {
	srv, ts := testServer(t, Options{MaxInFlight: 1})
	be := srv.backends[0]
	rel, ok := be.acquire()
	if !ok {
		t.Fatal("could not take the only token")
	}
	resp := postJSON(t, ts.URL+"/v1/select", shapeRequest{M: 5, K: 5, N: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp.Body.Close()
	rel()

	page := metricsPage(t, ts)
	for _, metric := range []string{
		`selectd_degraded_total{device="amd-r9-nano",reason="budget"}`,
		`selectd_degraded_total{device="amd-r9-nano",reason="breaker"}`,
		`selectd_breaker_state{device="amd-r9-nano"}`,
		`selectd_breaker_trips_total{device="amd-r9-nano"}`,
		`selectd_generation{device="amd-r9-nano"}`,
		`selectd_budget_capacity{device="amd-r9-nano"}`,
	} {
		metricValue(t, page, metric) // fails the test if the series is absent
	}
	if got := metricValue(t, page, `selectd_degraded_total{device="amd-r9-nano",reason="budget"}`); got != 1 {
		t.Errorf("degraded(budget) %v, want 1", got)
	}
}
