package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

// FuzzScanDecisionMeta holds the router's body scanner to encoding/json:
// every body it accepts, json.Unmarshal accepts too (a type error in some
// other field still binds the rest), with the same generation and degraded
// flag. That is what keeps a degraded answer out of the edge cache whatever
// the spelling of its keys. Committed corpus:
// testdata/fuzz/FuzzScanDecisionMeta.
func FuzzScanDecisionMeta(f *testing.F) {
	for _, d := range []Decision{
		{Device: "amd-r9-nano", Shape: "784x1152x256", Config: "c", Index: 3, PredictedGFLOPS: 1.5, Generation: 7},
		{Device: "d", Generation: 2, Degraded: true, DegradedReason: "budget"},
	} {
		f.Add(appendDecision(nil, &d))
	}
	for _, seed := range []string{
		`{"generation":5,"degraded":true}`,
		`{"generation":1,"generation":2}`,
		`{"index":"x","generation":4}`,
		`{"shape":"a\u003cb","generation":9}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		gen, degraded, ok := ScanDecisionMeta(body)
		if !ok {
			return
		}
		var d Decision
		if err := json.Unmarshal(body, &d); err != nil {
			var typeErr *json.UnmarshalTypeError
			if !errors.As(err, &typeErr) {
				t.Fatalf("scanner accepted %q, json rejects it: %v", body, err)
			}
		}
		if d.Generation != gen || d.Degraded != degraded {
			t.Fatalf("%q: scanner (gen %d, degraded %v) != json (gen %d, degraded %v)",
				body, gen, degraded, d.Generation, d.Degraded)
		}
	})
}
