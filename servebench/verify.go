package main

import (
	"fmt"
	"math"

	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/sim"
)

// verify checks every record of a phase, tallies it, and returns the
// phase's succeeded (200 and oracle-correct) and failed counts.
func verify(o *oracle, st *stream, p phaseResult, tal *tally) (ok, failed int) {
	for _, r := range p.records {
		tal.attempted++
		if err := checkRecord(o, st, r); err != nil {
			tal.fail(fmt.Sprintf("%s phase: %v", p.name, err))
			failed++
			continue
		}
		ok++
		if r.degraded {
			tal.degraded++
		}
	}
	return ok, failed
}

// checkRecord returns why a record failed, or nil.
func checkRecord(o *oracle, st *stream, r record) error {
	req := st.at(r.i)
	switch r.out {
	case outTransport:
		return fmt.Errorf("request %d: transport error", r.i)
	case outStatus:
		return fmt.Errorf("request %d: status %d", r.i, r.status)
	case outMismatch:
		return fmt.Errorf("request %d: answer does not match the request", r.i)
	}
	if r.degraded {
		return nil
	}
	return o.check(answer{
		device: st.devices[req.dev],
		shape:  req.shape,
		sent:   r.sent,
		gen:    r.gen,
		index:  int(r.index),
		config: allConfigs[r.config],
	})
}

// quality is the paper's Table I metric over the answers: the geometric
// mean of GFLOPS(chosen config) / GFLOPS(best of the 640-config universe),
// priced with a separate device model on every qualityEach-th stream index.
func quality(devices []string, st *stream, phases []phaseResult) float64 {
	pricers := make([]*sim.BatchPricer, len(devices))
	for d, name := range devices {
		spec, err := device.ByName(name)
		if err != nil {
			return math.NaN()
		}
		// A model without the memo cache: the quality pass prices each
		// sampled shape once, and memoising 640 configs per fresh shape
		// would only fill memory.
		pricers[d] = (&sim.Model{Dev: spec, P: sim.DefaultParams()}).Batch(allConfigs)
	}
	type key struct {
		dev   int
		shape gemm.Shape
		cfg   int16
	}
	memo := map[key]float64{}
	row := make([]float64, len(allConfigs))
	logSum, n := 0.0, 0
	for _, p := range phases {
		for _, r := range p.records {
			if r.out != outOK || r.i%qualityEach != 0 {
				continue
			}
			req := st.at(r.i)
			k := key{req.dev, req.shape, r.config}
			q, seen := memo[k]
			if !seen {
				pricers[req.dev].PriceRow(row, req.shape)
				best := 0.0
				for _, v := range row {
					best = max(best, v)
				}
				q = row[r.config] / best
				memo[k] = q
			}
			logSum += math.Log(q)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}
