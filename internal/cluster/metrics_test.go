package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/device"
	"kernelselect/internal/obs"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// replicaSeries and routerSeries pin every sample name each tier exposes.
// Dashboards and the serving benchmark scrape these names, so a rename or a
// dropped series must show up here.
var replicaSeries = []string{
	"selectd_breaker_state", "selectd_breaker_trips_total",
	"selectd_budget_capacity", "selectd_budget_tokens",
	"selectd_cache_entries", "selectd_cache_hits_total", "selectd_cache_misses_total",
	"selectd_compiled_selector",
	"selectd_decisions_sampled_total", "selectd_decisions_total", "selectd_decisions_unsampled_total",
	"selectd_degraded_total", "selectd_drift_score", "selectd_fallback_updates_total",
	"selectd_generation", "selectd_inflight_requests", "selectd_info", "selectd_latency_ewma_seconds",
	"selectd_regret_bucket", "selectd_regret_count", "selectd_regret_sum",
	"selectd_regret_degraded_bucket", "selectd_regret_degraded_count", "selectd_regret_degraded_sum",
	"selectd_regret_dropped_total",
	"selectd_request_seconds_bucket", "selectd_request_seconds_count", "selectd_request_seconds_sum",
	"selectd_requests_total",
	"selectd_retrain_errors_total", "selectd_retrain_promoted_total", "selectd_retrain_rejected_total",
	"selectd_shed_total", "selectd_uptime_seconds",
	"selectd_warm_complete", "selectd_warm_shapes_total", "selectd_window_size",
}

var routerSeries = []string{
	"router_fallback_total", "router_gossip_merges_total", "router_hedge_wins_total",
	"router_hedges_total", "router_probes_total", "router_reloads_total",
	"router_replica_errors_total", "router_replica_up", "router_replica_wins_total",
	"router_requests_total", "router_retries_total", "router_warmed_shapes_total",
	"selectrouter_batchsize_bucket", "selectrouter_batchsize_count", "selectrouter_batchsize_sum",
	"selectrouter_cache_hits_total", "selectrouter_cache_invalidations_total",
	"selectrouter_cache_misses_total", "selectrouter_coalesced_total",
}

// TestMetricsConformance scrapes both tiers after real traffic — a
// two-device replica sampling every decision for regret, behind a router
// with the edge cache and the micro-batcher on that has served hits and
// misses — and holds every page to the exposition rules: each family has
// exactly one HELP and one TYPE before its samples, counters end in _total,
// histogram buckets are cumulative with +Inf equal to _count, and the sample
// names are exactly the pinned set.
func TestMetricsConformance(t *testing.T) {
	nano, gen9 := sim.New(device.R9Nano()), sim.New(device.IntegratedGen9())
	lib := buildFleetLib(t, nano, 6)
	srv, err := serve.NewMulti([]serve.Backend{
		{Device: "r9nano", Lib: lib, Model: nano},
		{Device: "gen9", Lib: buildFleetLib(t, gen9, 6), Model: gen9},
	}, serve.Options{FallbackShapes: fleetShapes, RegretSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep := httptest.NewServer(srv.Handler())
	defer rep.Close()
	local := serve.New(lib, nano, serve.Options{FallbackShapes: fleetShapes})
	defer local.Close()
	router, err := New(Options{
		Replicas:      []*Replica{NewReplica(replicaName(0), rep.URL, nil)},
		Local:         local,
		EdgeCacheSize: 64,
		BatchWindow:   100 * time.Microsecond,
		HedgeDelay:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	for i := 0; i < 2; i++ { // a miss, then an edge hit, per device
		for _, dev := range []string{"r9nano", "gen9"} {
			resp, err := http.Post(rts.URL+"/v1/select", "application/json",
				strings.NewReader(`{"m":784,"k":1152,"n":256,"device":"`+dev+`"}`))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("select on %s: status %d", dev, resp.StatusCode)
			}
		}
	}

	rp := checkExposition(t, "replica", rep.URL, replicaSeries)
	if got := rp.Series[`selectd_decisions_sampled_total{device="gen9"}`]; got == 0 {
		t.Error("replica sampled no gen9 decision for regret")
	}
	ro := checkExposition(t, "router", rts.URL, routerSeries)
	if ro.Series["selectrouter_cache_hits_total"] == 0 || ro.Series["selectrouter_cache_misses_total"] == 0 {
		t.Errorf("router served hits %v and misses %v, want both", ro.Series["selectrouter_cache_hits_total"], ro.Series["selectrouter_cache_misses_total"])
	}
}

func checkExposition(t *testing.T, tier, url string, want []string) *obs.Page {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("%s: Content-Type %q, want %q", tier, ct, obs.ContentType)
	}
	p, err := obs.ParseText(resp.Body) // one HELP and TYPE at most, before the samples
	if err != nil {
		t.Fatalf("%s: %v", tier, err)
	}
	names := map[string]bool{}
	for _, f := range p.Families {
		if f.Help == "" || f.Type == "" {
			t.Errorf("%s: family %s has HELP %q and TYPE %q, want both", tier, f.Name, f.Help, f.Type)
		}
		if f.Type == "counter" && !strings.HasSuffix(f.Name, "_total") {
			t.Errorf("%s: counter %s does not end in _total", tier, f.Name)
		}
		// Per series (the labels other than le): the last bucket seen, the
		// +Inf bucket, and _count.
		last, inf, count := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for _, s := range f.Samples {
			names[s.Name] = true
			series := labelsWithout(s, "le")
			switch s.Name {
			case f.Name + "_bucket":
				if s.Value < last[series] {
					t.Errorf("%s: %s{%s} buckets not cumulative at le=%s", tier, f.Name, series, s.Label("le"))
				}
				last[series] = s.Value
				if s.Label("le") == "+Inf" {
					inf[series] = s.Value
				}
			case f.Name + "_count":
				count[series] = s.Value
			}
		}
		for series, n := range count {
			if v, ok := inf[series]; !ok || v != n {
				t.Errorf("%s: %s{%s} +Inf bucket %v (present %v) != _count %v", tier, f.Name, series, v, ok, n)
			}
		}
	}
	var got []string
	for n := range names {
		got = append(got, n)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s sample names:\n got  %v\n want %v", tier, got, want)
	}
	return p
}

// labelsWithout renders a sample's labels other than one, so a histogram's
// samples group by the series they belong to.
func labelsWithout(s obs.Sample, label string) string {
	var parts []string
	for _, l := range s.Labels {
		if l.Name != label {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	return strings.Join(parts, ",")
}
