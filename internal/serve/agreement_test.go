package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

// referenceDecision builds the answer the serving stack must give for a
// shape from the references alone: the interpreted selector's index and the
// scalar model's GFLOPS over every library configuration.
func referenceDecision(dev string, lib *core.Library, model *sim.Model, shape gemm.Shape, gen uint64, cached bool) Decision {
	idx := lib.ChooseIndex(shape)
	best, chosen := 0.0, 0.0
	for i, cfg := range lib.Configs {
		v := model.GFLOPS(cfg, shape)
		best = max(best, v)
		if i == idx {
			chosen = v
		}
	}
	norm := 0.0
	if best > 0 {
		norm = chosen / best
	}
	cfg := lib.Configs[idx]
	return Decision{
		Device: dev, Shape: shape.String(), Config: cfg.String(), Index: idx,
		KernelID: cfg.KernelID(), PredictedGFLOPS: chosen, PredictedNorm: norm,
		Cached: cached, Generation: gen,
	}
}

func postRaw(t *testing.T, url string, body any) []byte {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// Every path into the decide ladder — select miss, select hit, batch miss,
// batch hit, Engine.Decide miss and hit — answers every dataset shape on
// r9nano and gen9 with exactly the encoding/json bytes of the reference
// decision; only "cached" differs between a miss and a hit. Each cold shape
// sent over HTTP counts one cache miss, and each repeat one hit.
func TestDecisionsMatchReferenceOnEveryPath(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	var backends []Backend
	refModels := map[string]*sim.Model{}
	for _, spec := range []device.Spec{device.R9Nano(), device.IntegratedGen9()} {
		model := sim.New(spec)
		backends = append(backends, Backend{Device: spec.Name, Lib: buildLib(t, model, 8), Model: model})
		refModels[spec.Name] = sim.New(spec)
	}
	opts := Options{FallbackShapes: reloadShapes}
	srv, err := NewMulti(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	engine, err := NewMulti(backends, opts) // fresh caches for Engine.Decide misses
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	encode := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	for _, b := range backends {
		gen, _ := srv.Generation(b.Device)
		ref := func(sh gemm.Shape, cached bool) Decision {
			return referenceDecision(b.Device, b.Lib, refModels[b.Device], sh, gen, cached)
		}
		batch := func(shs []gemm.Shape, cached bool) {
			req := batchRequest{Device: b.Device}
			want := batchResponse{}
			for _, sh := range shs {
				req.Shapes = append(req.Shapes, batchShape{M: sh.M, K: sh.K, N: sh.N})
				want.Results = append(want.Results, ref(sh, cached))
			}
			if got := string(postRaw(t, ts.URL+"/v1/select/batch", req)); got != encode(want) {
				t.Errorf("%s batch (cached=%v):\n got  %s\n want %s", b.Device, cached, got, encode(want))
			}
		}
		selectOne := func(sh gemm.Shape, cached bool) {
			req := shapeRequest{M: sh.M, K: sh.K, N: sh.N, Device: b.Device}
			if got := string(postRaw(t, ts.URL+"/v1/select", req)); got != encode(ref(sh, cached)) {
				t.Errorf("%s select %v (cached=%v):\n got  %s\n want %s", b.Device, sh, cached, got, encode(ref(sh, cached)))
			}
		}

		// Cold: even shapes through select, odd shapes through one batch.
		var odd []gemm.Shape
		for i, sh := range shapes {
			if i%2 == 0 {
				selectOne(sh, false)
			} else {
				odd = append(odd, sh)
			}
		}
		batch(odd, false)
		// Warm: every shape through select, then all of them in one batch.
		for _, sh := range shapes {
			selectOne(sh, true)
		}
		batch(shapes, true)

		page := metricsPage(t, ts)
		label := fmt.Sprintf(`{device=%q}`, b.Device)
		if got := metricValue(t, page, "selectd_cache_misses_total"+label); got != float64(len(shapes)) {
			t.Errorf("%s: selectd_cache_misses_total %v, want %d (one per cold shape)", b.Device, got, len(shapes))
		}
		if got := metricValue(t, page, "selectd_cache_hits_total"+label); got != float64(2*len(shapes)) {
			t.Errorf("%s: selectd_cache_hits_total %v, want %d", b.Device, got, 2*len(shapes))
		}

		egen, _ := engine.Generation(b.Device)
		for _, cached := range []bool{false, true} {
			for _, sh := range shapes {
				d, err := engine.Decide(context.Background(), b.Device, sh)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceDecision(b.Device, b.Lib, refModels[b.Device], sh, egen, cached)
				if encode(d) != encode(want) {
					t.Errorf("%s Engine.Decide %v (cached=%v):\n got  %s\n want %s", b.Device, sh, cached, encode(d), encode(want))
				}
			}
		}
	}
}

// Serving prices through a memo-less copy of the model: fresh shapes on
// every path (select, batch, warm pass, regret sampling, fallback
// relearning) leave the model's pricing memo exactly as it was.
func TestServingDoesNotGrowModelMemo(t *testing.T) {
	model := sim.New(device.R9Nano())
	lib := buildLib(t, model, 8)
	srv := New(lib, model, Options{
		FallbackShapes: reloadShapes,
		Warm:           true,
		RegretSample:   0.01,
		RegretUniverse: gemm.AllConfigs()[:120],
	})
	defer srv.Close()
	be := srv.backends[0]
	deadline := time.Now().Add(5 * time.Second)
	for _, _, done := be.gen.Load().warmSnapshot(); !done; _, _, done = be.gen.Load().warmSnapshot() {
		if time.Now().After(deadline) {
			t.Fatal("warm pass never completed")
		}
		time.Sleep(time.Millisecond)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, _, before := model.CacheStats()

	const fresh, perBatch = 10000, 1000
	shape := func(i int) gemm.Shape { return gemm.Shape{M: 5000 + i, K: 3 + i%509, N: 7 + i%251} }
	for start := 0; start < fresh; start += perBatch {
		req := batchRequest{}
		for i := start; i < start+perBatch-10; i++ {
			sh := shape(i)
			req.Shapes = append(req.Shapes, batchShape{M: sh.M, K: sh.K, N: sh.N})
		}
		postRaw(t, ts.URL+"/v1/select/batch", req)
		for i := start + perBatch - 10; i < start+perBatch; i++ {
			sh := shape(i)
			postRaw(t, ts.URL+"/v1/select", shapeRequest{M: sh.M, K: sh.K, N: sh.N})
		}
	}
	waitSettled(t, be)
	srv.Maintain()

	if got := be.cacheMisses.Load(); got != fresh {
		t.Fatalf("%d cache misses, want %d fresh shapes", got, fresh)
	}
	if _, _, after := model.CacheStats(); after != before {
		t.Errorf("serving %d fresh shapes grew the model memo from %d to %d entries", fresh, before, after)
	}
}
