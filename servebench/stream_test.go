package main

import (
	"encoding/json"
	"testing"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/workload"
)

var testDevices = []string{"amd-r9-nano", "integrated-gen9"}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newStream(w, 7, testDevices)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newStream(w, 7, testDevices)
		c, _ := newStream(w, 8, testDevices)
		differ := 0
		for i := uint64(0); i < 2000; i++ {
			if a.at(i) != b.at(i) {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w, i)
			}
			if a.at(i) != c.at(i) {
				differ++
			}
		}
		if differ < 500 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of 2000 requests", w, 2000-differ)
		}
	}
}

func TestStreamMixes(t *testing.T) {
	shapes, _ := workload.DatasetShapes()
	inDataset := map[gemm.Shape]bool{}
	for _, s := range shapes {
		inDataset[s] = true
	}
	const n = 20000
	for _, tc := range []struct {
		workload string
		lo, hi   float64 // bounds on the share of shapes outside the dataset
	}{
		{wlHot, 0, 0},
		{wlMiss, 0.99, 1},
		{wlFleet, 0.18, 0.22},
	} {
		st, _ := newStream(tc.workload, 3, testDevices)
		fresh, devs := 0, [2]int{}
		for i := uint64(0); i < n; i++ {
			r := st.at(i)
			devs[r.dev]++
			if err := r.shape.Validate(); err != nil {
				t.Fatalf("%s: request %d: %v", tc.workload, i, err)
			}
			if !inDataset[r.shape] {
				fresh++
				if r.shape.M > maxFreshDim || r.shape.K > maxFreshDim || r.shape.N > maxFreshDim {
					t.Fatalf("%s: fresh request %d has shape %v beyond %d", tc.workload, i, r.shape, maxFreshDim)
				}
			}
		}
		share := float64(fresh) / n
		if share < tc.lo || share > tc.hi {
			t.Errorf("%s: fresh share %.3f outside [%.2f, %.2f]", tc.workload, share, tc.lo, tc.hi)
		}
		if devs[0] < n*45/100 || devs[1] < n*45/100 {
			t.Errorf("%s: device split %v is not even", tc.workload, devs)
		}
	}
}

// The generated bodies are canonical: the server's fast scanner accepts
// them and they are byte-identical to encoding/json's rendering.
func TestAppendBodyCanonical(t *testing.T) {
	st, _ := newStream(wlMiss, 5, testDevices)
	for i := uint64(0); i < 500; i++ {
		r := st.at(i)
		body := appendBody(nil, r.shape, testDevices[r.dev])
		m, k, n, dev, ok := serve.ParseSelectWire(body)
		if !ok || m != r.shape.M || k != r.shape.K || n != r.shape.N || string(dev) != testDevices[r.dev] {
			t.Fatalf("fast scanner rejects or misreads %s", body)
		}
		want, _ := json.Marshal(struct {
			M      int    `json:"m"`
			K      int    `json:"k"`
			N      int    `json:"n"`
			Device string `json:"device"`
		}{r.shape.M, r.shape.K, r.shape.N, testDevices[r.dev]})
		if string(body) != string(want) {
			t.Fatalf("body %s, encoding/json renders %s", body, want)
		}
		if got := string(appendShape(nil, r.shape)); got != r.shape.String() {
			t.Fatalf("appendShape %q, Shape.String %q", got, r.shape.String())
		}
	}
}
