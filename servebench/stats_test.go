package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: summarize must sort
	}
	return v
}

func TestSummarizeTenBeyondRule(t *testing.T) {
	s, err := summarize(ramp(1000))
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Beyond != 10 {
		t.Fatalf("1000 samples: got %+v, want N=1000 P50=500 P99=990 Beyond=10", s)
	}
	s, err = summarize(ramp(999))
	if err == nil {
		t.Fatalf("999 samples leave %d beyond p99 and must be refused", s.Beyond)
	}
	if s.N != 999 || s.Beyond != 9 {
		t.Fatalf("999 samples: got %+v, want N=999 Beyond=9", s)
	}
}

func TestQuantileEdges(t *testing.T) {
	if v, b := quantile(nil, 0.5); !math.IsNaN(v) || b != 0 {
		t.Fatalf("empty: %v %d", v, b)
	}
	if v, b := quantile([]float64{4}, 0.99); v != 4 || b != 0 {
		t.Fatalf("one sample: %v %d", v, b)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median %v, want 2.5", m)
	}
}

func TestCovered(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 150}}
	if got := covered(parent, kids); got != 40 { // [10,40] + [90,100]
		t.Fatalf("covered %d, want 40", got)
	}
}

// The open loop pools every segment, and a failed request counts as
// infinitely late.
func TestOpenLatencyPoolsSegments(t *testing.T) {
	const per = 1000
	var segs []phaseResult
	for w := 0; w < 10; w++ {
		p := phaseResult{name: "open"}
		for i := 0; i < per; i++ {
			r := record{lat: int64(i+1) * 1e3}
			if w == 7 && i == 0 {
				r.out = outTransport
			}
			p.records = append(p.records, r)
		}
		segs = append(segs, p)
	}
	s, err := openLatency(segs)
	if err != nil {
		t.Fatal(err)
	}
	// The failed request displaces one 1-us sample to the top of the pool,
	// shifting the ranks up by one value.
	if s.N != 10*per || s.P50 != 501 || s.P99 != 991 || s.Beyond != 100 {
		t.Fatalf("pool %+v, want N=10000 P50=501 P99=991 Beyond=100", s.tailSummary)
	}
	if len(s.segP99) != 10 || s.segP99[0] != 990 || s.segP99[7] != 991 {
		t.Fatalf("segment p99s %v, want 990, and 991 for segment 7", s.segP99)
	}
}

func TestClosedRatesCountCorrectAnswers(t *testing.T) {
	seg := func(n int, d time.Duration) phaseResult {
		p := phaseResult{name: "closed", elapsed: d}
		for i := 0; i < n; i++ {
			p.records = append(p.records, record{i: uint64(i)})
		}
		return p
	}
	even := func(r record) bool { return r.i%2 == 0 }
	perSeg, pooled := closedRates([]phaseResult{seg(10, 2*time.Second), seg(3, time.Second)}, even)
	// 5 correct answers in 2 s and 2 in 1 s: 7 in 3 s pooled.
	if len(perSeg) != 2 || perSeg[0] != 2.5 || perSeg[1] != 2 || pooled != 7.0/3 {
		t.Fatalf("rates %v pooled %v, want [2.5 2] and 7/3", perSeg, pooled)
	}
}
