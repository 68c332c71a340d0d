package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// replayItems is how many stream requests one replay pass covers.
const replayItems = 4096

// nsPerOp times fn over items repeatedly until at least 20ms have passed,
// three times, and returns the median ns per item.
func nsPerOp(items int, fn func(i int)) float64 {
	var trials []float64
	for t := 0; t < 3; t++ {
		ops := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for i := 0; i < items; i++ {
				fn(i)
			}
			ops += items
		}
		trials = append(trials, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(trials)
}

// sink keeps replayed results alive so the calls are not optimized away.
var sink int

// replayLayers times each layer's public function on the workload's own
// requests: the stream block [base, base+replayItems) and the decisions the
// generator received.
func replayLayers(st *stream, base uint64, devs []trained, kept []serve.Decision) (map[string]float64, error) {
	reqs := make([]request, replayItems)
	bodies := make([][]byte, replayItems)
	for i := range reqs {
		reqs[i] = st.at(base + uint64(i))
		bodies[i] = appendBody(nil, reqs[i].shape, st.devices[reqs[i].dev])
	}
	out := map[string]float64{}

	out["serve.parse_ns"] = nsPerOp(len(bodies), func(i int) {
		m, _, _, _, _ := serve.ParseSelectWire(bodies[i])
		sink += m
	})
	if len(kept) > 0 {
		buf := make([]byte, 0, 512)
		out["serve.encode_ns"] = nsPerOp(len(kept), func(i int) {
			buf = serve.AppendDecisionJSON(buf[:0], &kept[i])
		})
	}

	choosers := make([]func(gemm.Shape) int, len(devs))
	pricers := make([]*sim.BatchPricer, len(devs))
	rows := make([][]float64, len(devs))
	for d, t := range devs {
		fn, ok := t.lib.CompiledChooser()
		if !ok {
			return nil, fmt.Errorf("%s: library selector does not compile", t.spec.Name)
		}
		choosers[d] = fn
		pricers[d] = t.model.Batch(t.lib.Configs)
		rows[d] = make([]float64, len(t.lib.Configs))
	}
	out["core.choose_ns"] = nsPerOp(len(reqs), func(i int) { sink += choosers[reqs[i].dev](reqs[i].shape) })
	out["core.choose_interp_ns"] = nsPerOp(len(reqs), func(i int) { sink += devs[reqs[i].dev].lib.ChooseIndex(reqs[i].shape) })
	out["sim.price_row_ns"] = nsPerOp(len(reqs), func(i int) {
		d := reqs[i].dev
		pricers[d].PriceRow(rows[d], reqs[i].shape)
	})

	// Decide runs the whole engine ladder against a fresh, warmed server
	// with the same options, on a stream block no earlier pass has seen,
	// so the miss workload stays all misses.
	backends := make([]serve.Backend, len(devs))
	for d, t := range devs {
		backends[d] = serve.Backend{Device: t.spec.Name, Lib: t.lib, Model: t.model}
	}
	srv, err := serve.NewMulti(backends, selectdOptions())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	if err := waitWarmInProcess(srv); err != nil {
		return nil, err
	}
	ctx := context.Background()
	var trials []float64
	next := base + replayItems
	for t := 0; t < 3; t++ {
		block := make([]request, replayItems)
		for i := range block {
			block[i] = st.at(next)
			next++
		}
		start := time.Now()
		for _, r := range block {
			d, err := srv.Decide(ctx, st.devices[r.dev], r.shape)
			if err != nil {
				return nil, fmt.Errorf("decide replay: %w", err)
			}
			sink += d.Index
		}
		trials = append(trials, float64(time.Since(start).Nanoseconds())/replayItems)
	}
	out["serve.decide_ns"] = median(trials)
	return out, nil
}

// waitWarmInProcess polls the server's /healthz through its handler, with
// no listener, until every backend's warm pass is complete.
func waitWarmInProcess(srv *serve.Server) error {
	h := srv.Handler()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code == http.StatusOK && !bytes.Contains(rec.Body.Bytes(), []byte(`"warm_complete":false`)) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("replay server not warm after 30s")
}
