package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail quantile is only reported where the sample supports it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) values
// and the number of samples strictly beyond that rank.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailSummary is a latency distribution reported as its median and p99,
// with the sample count behind them.
type tailSummary struct {
	N      int
	P50    float64
	P99    float64
	Beyond int // samples above the p99 rank
}

// summarize sorts vals in place and reports p50/p99. It fails when fewer
// than minBeyond samples lie beyond the p99 rank: such a p99 is one sample
// of noise, not a percentile.
func summarize(vals []float64) (tailSummary, error) {
	sort.Float64s(vals)
	p50, _ := quantile(vals, 0.50)
	p99, beyond := quantile(vals, 0.99)
	s := tailSummary{N: len(vals), P50: p50, P99: p99, Beyond: beyond}
	if beyond < minBeyond {
		return s, fmt.Errorf("p99 over %d samples leaves %d beyond it, want >= %d", len(vals), beyond, minBeyond)
	}
	return s, nil
}

// median returns the median of vals (sorting a copy); 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// openSummary is the open loop's latency report.
type openSummary struct {
	tailSummary           // P50, P99, N and Beyond over every segment's samples
	segP99      []float64 // each segment's p99 (us)
	lateP99     float64   // generator wake-up error p99 (us): sends whose worker was idle at the due time
	queued      int       // sends that waited for a busy connection
	queuedP99   float64   // p99 of those waits (us)
}

// openLatency pools the latencies of an open loop's segments, each timed
// from its request's due time; a failed request counts as infinitely late.
// The pool must leave minBeyond samples beyond its p99. How late the
// generator ran is split into its own wake-up error and the waits for a
// connection still busy with an earlier answer.
func openLatency(segs []phaseResult) (openSummary, error) {
	var out openSummary
	var own, queued, all []float64
	for _, p := range segs {
		vals := make([]float64, 0, len(p.records))
		for _, r := range p.records {
			if r.queued {
				queued = append(queued, float64(r.late)/1e3)
			} else {
				own = append(own, float64(r.late)/1e3)
			}
			v := float64(r.lat) / 1e3
			if r.out != outOK {
				v = math.Inf(1)
			}
			vals = append(vals, v)
		}
		out.segP99 = append(out.segP99, pct(vals, 0.99))
		all = append(all, vals...)
	}
	out.lateP99, out.queued, out.queuedP99 = pct(own, 0.99), len(queued), pct(queued, 0.99)
	s, err := summarize(all)
	out.tailSummary = s
	if err != nil {
		return out, fmt.Errorf("open loop: %w", err)
	}
	return out, nil
}

// closedRates returns each closed-loop segment's answers per second that
// pass ok, and the pooled rate: all those answers over all the segments'
// time.
func closedRates(segs []phaseResult, ok func(record) bool) (perSeg []float64, pooled float64) {
	n, secs := 0, 0.0
	for _, p := range segs {
		k := 0
		for _, r := range p.records {
			if ok(r) {
				k++
			}
		}
		perSeg = append(perSeg, float64(k)/p.elapsed.Seconds())
		n += k
		secs += p.elapsed.Seconds()
	}
	return perSeg, float64(n) / secs
}

// startHeapSampler samples the process's in-use heap spans (HeapInuse:
// heap objects plus unused heap span bytes) every heapEvery without
// stopping the world; the returned func stops it and reports the peak MiB.
func startHeapSampler() func() float64 {
	samples := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	read := func() uint64 {
		metrics.Read(samples)
		return samples[0].Value.Uint64() + samples[1].Value.Uint64()
	}
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		peak := read()
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, read())
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(stop)
		return float64(<-done) / (1 << 20)
	}
}
