package serve

import (
	"encoding/json"
	"math"
	"testing"

	"kernelselect/internal/xrand"
)

// TestAppendDecisionMatchesStdlib pins the append encoder to encoding/json
// byte for byte — field order, omitempty, float formatting, string escaping —
// so swapping the encoder can never change what clients parse.
func TestAppendDecisionMatchesStdlib(t *testing.T) {
	cases := []Decision{
		{},
		{
			Device: "amd-r9-nano", Shape: "784x1152x256", Config: "t8x8a4_wg16x16",
			Index: 3, KernelID: "t8x8a4", PredictedGFLOPS: 1472.1126384445024,
			PredictedNorm: 0.9376, Cached: true, Generation: 7,
		},
		{
			Device: "intel-gen9", Shape: "1x1x1", Config: "c", Index: 0,
			KernelID: "k", Degraded: true, DegradedReason: "budget", Generation: 1,
		},
		{Device: `quo"te\dev`, Shape: "<&>", Config: "ünïcode", PredictedGFLOPS: 1e-9},
		{PredictedGFLOPS: 1e21, PredictedNorm: 1e-7},
		{PredictedGFLOPS: -0.000125, PredictedNorm: math.MaxFloat64},
	}
	for _, d := range cases {
		want, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendDecision(nil, &d); string(got) != string(want) {
			t.Errorf("decision %+v:\n append: %s\n stdlib: %s", d, got, want)
		}
	}
}

func TestAppendJSONFloatMatchesStdlib(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 1.0 / 3.0, 1e-6, 9.9e-7, 1e21, 9.99e20, -1e21,
		1472.1126384445024, 1e-300, 1e300, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 123456789.123456789,
	}
	rng := xrand.New(17)
	for i := 0; i < 2000; i++ {
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(int(rng.Float64()*60))-30)
		vals = append(vals, v)
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Errorf("float %v: append %s, stdlib %s", v, got, want)
		}
	}
}

// TestParseSelectBody checks the fast scanner accepts exactly the canonical
// forms (agreeing with the strict decoder on values) and punts everything
// doubtful, so stdlib semantics govern every edge case.
func TestParseSelectBody(t *testing.T) {
	accept := []struct {
		body    string
		m, k, n int
		device  string
	}{
		{`{"m":1,"k":2,"n":3}`, 1, 2, 3, ""},
		{`{"n":3,"m":1,"k":2}`, 1, 2, 3, ""},
		{` { "m" : 10 , "k" : 20 , "n" : 30 } `, 10, 20, 30, ""},
		{`{"m":1,"k":2,"n":3,"device":"gpu-a"}`, 1, 2, 3, "gpu-a"},
		{`{"device":"x","m":-5,"k":2,"n":3}`, -5, 2, 3, "x"},
		{`{"m":1,"k":2,"n":3,"m":9}`, 9, 2, 3, ""}, // duplicate: last wins, as stdlib
		{`{}`, 0, 0, 0, ""},
		{`{"m":0,"k":-0,"n":3}`, 0, 0, 3, ""},
	}
	for _, c := range accept {
		p, ok := parseSelectBody([]byte(c.body))
		if !ok {
			t.Errorf("body %q: fast parser punted, want accept", c.body)
			continue
		}
		if p.m != c.m || p.k != c.k || p.n != c.n || string(p.device) != c.device {
			t.Errorf("body %q: parsed m=%d k=%d n=%d device=%q", c.body, p.m, p.k, p.n, p.device)
		}
		// Cross-check against the strict decoder on accepted bodies.
		var req shapeRequest
		if err := decodeStrict([]byte(c.body), &req); err != nil {
			t.Errorf("body %q: fast parser accepted what stdlib rejects: %v", c.body, err)
		} else if req.M != p.m || req.K != p.k || req.N != p.n || req.Device != string(p.device) {
			t.Errorf("body %q: fast (%d,%d,%d,%q) != stdlib (%d,%d,%d,%q)",
				c.body, p.m, p.k, p.n, p.device, req.M, req.K, req.N, req.Device)
		}
	}

	punt := []string{
		``, `null`, `[]`, `{`, `{"m":1`, `{"m":1.5,"k":2,"n":3}`,
		`{"m":1e3,"k":2,"n":3}`, `{"m":"1","k":2,"n":3}`,
		`{"m":1,"k":2,"n":3,"extra":4}`, `{"m":1,"k":2,"n":3}x`,
		`{"m":1,"k":2,"n":3} {"m":4}`, `{"device":"a\"b","m":1,"k":2,"n":3}`,
		`{"device":"ü","m":1,"k":2,"n":3}`, `{"m":12345678901234567890,"k":2,"n":3}`,
		`{"m":null,"k":2,"n":3}`, `{"m":1,"k":2,"n":3,}`,
		`{"m":0784,"k":1152,"n":256}`, `{"m":-07,"k":1,"n":1}`, // leading zeros are not JSON
	}
	for _, body := range punt {
		if _, ok := parseSelectBody([]byte(body)); ok {
			t.Errorf("body %q: fast parser accepted, want punt to stdlib", body)
		}
	}
}

func TestAppendBatchMatchesStdlib(t *testing.T) {
	results := []Decision{
		{Device: "a", Shape: "1x2x3", Config: "c0", KernelID: "k0", PredictedGFLOPS: 12.5, PredictedNorm: 1},
		{Device: "a", Shape: "4x5x6", Config: "c1", Index: 1, KernelID: "k1", Cached: true, Generation: 2},
		{Device: "a", Shape: "7x8x9", Config: "c2", Degraded: true, DegradedReason: "breaker"},
	}
	want, err := json.Marshal(batchResponse{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendBatch(nil, results); string(got) != string(want) {
		t.Errorf("batch:\n append: %s\n stdlib: %s", got, want)
	}
	if got, want := string(appendBatch(nil, nil)), `{"results":[]}`; got != want {
		t.Errorf("empty batch: %s, want %s", got, want)
	}
}
