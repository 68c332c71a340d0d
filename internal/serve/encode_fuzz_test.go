package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSelectBody holds the fast select scanner to its contract: every
// body it accepts, the strict stdlib decoder accepts too, with the same
// fields. Punting is always allowed — false negatives only cost speed. The
// exported ParseSelectWire the router scans with must agree exactly.
// Committed corpus: testdata/fuzz/FuzzParseSelectBody.
func FuzzParseSelectBody(f *testing.F) {
	for _, seed := range []string{
		`{"m":784,"k":1152,"n":256}`,
		`{"m":784,"k":1152,"n":256,"device":"amd-r9-nano"}`,
		` { "n" : 3 , "device" : "x" , "m" : -1 , "k" : 0 } `,
		`{"m":1,"k":2,"n":3,"m":9}`,
		`{"m":0784,"k":1152,"n":256}`,
		`{"m":-0,"k":1,"n":1}`,
		`{"m":1.0,"k":1e2,"n":1}`,
		`{"M":1,"k":1,"n":1}`,
		`{"device":"ab","m":1,"k":1,"n":1}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, ok := parseSelectBody(body)
		m, k, n, dev, wok := ParseSelectWire(body)
		if wok != ok || m != p.m || k != p.k || n != p.n || !bytes.Equal(dev, p.device) {
			t.Fatalf("ParseSelectWire (%d,%d,%d,%q,%v) != parseSelectBody (%d,%d,%d,%q,%v)",
				m, k, n, dev, wok, p.m, p.k, p.n, p.device, ok)
		}
		if !ok {
			return
		}
		var req shapeRequest
		if err := decodeStrict(body, &req); err != nil {
			t.Fatalf("fast scanner accepted %q, stdlib rejects it: %v", body, err)
		}
		if req.M != p.m || req.K != p.k || req.N != p.n || req.Device != string(p.device) {
			t.Fatalf("%q: fast (%d,%d,%d,%q) != stdlib (%d,%d,%d,%q)",
				body, p.m, p.k, p.n, p.device, req.M, req.K, req.N, req.Device)
		}
	})
}

// FuzzAppendDecision holds the append encoders to encoding/json over fuzzed
// field values: appendDecision and appendBatch must render every Decision
// json.Marshal renders, byte for byte. Values json.Marshal rejects (NaN,
// ±Inf) are skipped; decisions never carry them. The router's degraded
// fallback and its coalesced answers are encoded this way. Committed corpus:
// testdata/fuzz/FuzzAppendDecision.
func FuzzAppendDecision(f *testing.F) {
	f.Add("amd-r9-nano", "784x1152x256", "t8x8a4_wg16x16", 3, "t8x8a4", 1472.1126384445024, 0.9376, true, uint64(7), false, "")
	f.Add("intel-gen9", "1x1x1", "c", 0, "k", 0.0, 0.0, false, uint64(1), true, "replica_down")
	f.Add(`quo"te\dev`, "<&>", "ünïcode", -1, "\x00\xff", 1e-9, 1e21, false, uint64(0), false, "budget")
	f.Fuzz(func(t *testing.T, dev, shape, config string, index int, kernel string, gflops, norm float64, cached bool, gen uint64, degraded bool, reason string) {
		d := Decision{
			Device: dev, Shape: shape, Config: config, Index: index, KernelID: kernel,
			PredictedGFLOPS: gflops, PredictedNorm: norm, Cached: cached,
			Generation: gen, Degraded: degraded, DegradedReason: reason,
		}
		want, err := json.Marshal(d)
		if err != nil {
			return
		}
		if got := appendDecision(nil, &d); !bytes.Equal(got, want) {
			t.Fatalf("appendDecision:\n append: %s\n stdlib: %s", got, want)
		}
		results := []Decision{d, {Device: dev, Generation: gen}}
		want, err = json.Marshal(batchResponse{Results: results})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBatch(nil, results); !bytes.Equal(got, want) {
			t.Fatalf("appendBatch:\n append: %s\n stdlib: %s", got, want)
		}
	})
}
