package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/cluster"
	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// smallLibraries trains two different small libraries for one device (on
// disjoint halves of a few dataset shapes), cheap enough for unit tests.
func smallLibraries(t *testing.T, spec device.Spec) (*sim.Model, [2]*core.Library, []gemm.Shape) {
	t.Helper()
	shapes, _ := workload.DatasetShapes()
	shapes = shapes[:32]
	model := sim.New(spec)
	var libs [2]*core.Library
	for i := range libs {
		ds := dataset.Build(model, shapes[i*16:(i+1)*16], gemm.AllConfigs()[:96])
		libs[i] = core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, 4, 42)
	}
	return model, libs, shapes
}

func TestPromDeltaOnRealPages(t *testing.T) {
	spec := device.R9Nano()
	model, libs, shapes := smallLibraries(t, spec)
	srv := serve.New(libs[0], model, serve.Options{FallbackShapes: shapes})
	defer srv.Close()
	rts := httptest.NewServer(srv.Handler())
	defer rts.Close()
	local := serve.New(libs[0], model, serve.Options{FallbackShapes: shapes})
	defer local.Close()
	router, err := cluster.New(cluster.Options{
		Replicas:      []*cluster.Replica{cluster.NewReplica("replica-0", rts.URL, nil)},
		Local:         local,
		EdgeCacheSize: 64,
		WarmConns:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	urls := []string{rts.URL, front.URL}
	before, err := scrapeAll(client, urls)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no series parsed")
	}
	// Three distinct shapes through the router, each twice: the second
	// round is answered from the router's edge cache.
	for round := 0; round < 2; round++ {
		for _, s := range shapes[:3] {
			resp, err := client.Post(front.URL+"/v1/select", "application/json", bytes.NewReader(appendBody(nil, s, spec.Name)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
		}
	}
	after, err := scrapeAll(client, urls)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"selectd_requests_total", []string{`endpoint="select"`, `code="200"`}, 3},
		{"selectd_cache_hits_total", nil, 0},
		{"selectrouter_cache_hits_total", nil, 3},
		{"selectrouter_cache_misses_total", nil, 3},
		{"router_requests_total", []string{`endpoint="select"`}, 6},
	} {
		if got := delta(before, after, tc.name, tc.labels...); got != tc.want {
			t.Errorf("delta %s%v = %v, want %v", tc.name, tc.labels, got, tc.want)
		}
	}
}

func TestParsePromFormat(t *testing.T) {
	page, err := parseProm(strings.NewReader(`# HELP x_total Things.
# TYPE x_total counter
x_total{device="a b",le="+Inf"} 3
x_total{device="c"} 4 1700000000
plain 2.5e-3
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := page.sum("x_total"); got != 7 {
		t.Fatalf("sum x_total = %v, want 7", got)
	}
	if got := page.sum("x_total", `device="a b"`); got != 3 {
		t.Fatalf("labelled sum = %v, want 3", got)
	}
	if got := page.sum("plain"); got != 0.0025 {
		t.Fatalf("plain = %v", got)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("a sample line without a value must be refused")
	}
}
