package main

// Sampled-regret reporting: after a fixed-rate run the generator scrapes the
// server's /metrics page and folds each device's selectd_regret histogram
// into a quantile summary, so the load report carries selection quality next
// to latency. Regret is measured by the server itself — a sampled fraction of
// live decisions re-priced off the request path against the full config
// universe — which keeps the generator honest: it reports what the server
// observed, not what a second client-side model would predict.

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"kernelselect/internal/obs"
)

// regretSummary is one device's sampled-regret digest for the JSON report.
type regretSummary struct {
	Device  string  `json:"device"`
	Sampled uint64  `json:"sampled"`
	Dropped uint64  `json:"dropped"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Drift   float64 `json:"drift_score"`
	Window  int     `json:"window_size"`
}

// scrapeRegret polls url/metrics until every device's regret accounting has
// settled (regret measurement is asynchronous: sampled decisions queue to a
// background pricer) or the timeout passes, then summarizes the histograms.
// Devices that sampled nothing are omitted; a server without the closed loop
// enabled returns an empty slice, not an error.
func scrapeRegret(url string, timeout time.Duration) ([]regretSummary, error) {
	deadline := time.Now().Add(timeout)
	var p *obs.Page
	for {
		var err error
		if p, err = scrapeMetrics(url); err != nil {
			return nil, err
		}
		if regretSettled(p) || time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	var out []regretSummary
	for _, dev := range metricDevices(p, "selectd_decisions_sampled_total") {
		at := deviceSeries(p, dev)
		sampled := uint64(at("selectd_decisions_sampled_total"))
		if sampled == 0 {
			continue
		}
		rs := regretSummary{
			Device:  dev,
			Sampled: sampled,
			Dropped: uint64(at("selectd_regret_dropped_total")),
			Drift:   at("selectd_drift_score"),
			Window:  int(at("selectd_window_size")),
		}
		if count := at("selectd_regret_count"); count > 0 {
			rs.Mean = at("selectd_regret_sum") / count
			buckets := histogramBuckets(p, "selectd_regret", dev)
			rs.P50 = histogramQuantile(buckets, 0.50)
			rs.P95 = histogramQuantile(buckets, 0.95)
			rs.P99 = histogramQuantile(buckets, 0.99)
		}
		out = append(out, rs)
	}
	return out, nil // in metricDevices' sorted order
}

// regretSettled reports whether every sampled decision has been measured or
// accounted as dropped, per device — the point where the histograms are
// consistent with the run that just finished.
func regretSettled(p *obs.Page) bool {
	for _, dev := range metricDevices(p, "selectd_decisions_sampled_total") {
		at := deviceSeries(p, dev)
		if at("selectd_regret_count")+at("selectd_regret_degraded_count")+at("selectd_regret_dropped_total") <
			at("selectd_decisions_sampled_total") {
			return false
		}
	}
	return true
}

// deviceSeries reads one device's value of a device-labelled series.
func deviceSeries(p *obs.Page, dev string) func(name string) float64 {
	return func(name string) float64 { return p.Series[fmt.Sprintf("%s{device=%q}", name, dev)] }
}

// scrapeMetrics fetches and parses url/metrics.
func scrapeMetrics(url string) (*obs.Page, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	p, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	return p, nil
}

// metricDevices lists the device labels present in one family.
func metricDevices(p *obs.Page, family string) []string {
	var devs []string
	if f := p.Families[family]; f != nil {
		for _, s := range f.Samples {
			devs = append(devs, s.Label("device"))
		}
	}
	sort.Strings(devs)
	return devs
}

type bucket struct {
	le  float64
	cum float64
}

// histogramBuckets extracts one device's cumulative buckets, sorted by bound.
func histogramBuckets(p *obs.Page, family, dev string) []bucket {
	var bs []bucket
	if f := p.Families[family]; f != nil {
		for _, s := range f.Samples {
			if s.Name != family+"_bucket" || s.Label("device") != dev {
				continue
			}
			if le, err := strconv.ParseFloat(s.Label("le"), 64); err == nil { // "+Inf" parses too
				bs = append(bs, bucket{le: le, cum: s.Value})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

// histogramQuantile interpolates the q-th quantile from cumulative buckets,
// Prometheus-style: linear within the bucket that crosses the target rank,
// and the last finite bound when the rank lands in the +Inf bucket.
func histogramQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	target := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(target-prevCum)/(b.cum-prevCum)
		}
		if !math.IsInf(b.le, 1) {
			prevLE = b.le
		}
		prevCum = b.cum
	}
	return prevLE
}

func printRegret(w *os.File, sums []regretSummary) {
	fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s %8s %7s %7s\n",
		"sampled regret", "sampled", "mean", "p50", "p95", "p99", "dropped", "drift", "window")
	for _, rs := range sums {
		fmt.Fprintf(w, "%-22s %8d %10.6f %10.6f %10.6f %10.6f %8d %7.3f %7d\n",
			rs.Device, rs.Sampled, rs.Mean, rs.P50, rs.P95, rs.P99, rs.Dropped, rs.Drift, rs.Window)
	}
}

// gateRegret enforces -max-regret: every device that sampled decisions must
// hold its mean regret at or under the ceiling, and at least one device must
// have sampled something — a run that measured nothing proves nothing.
func gateRegret(w *os.File, sums []regretSummary, max float64) bool {
	if len(sums) == 0 {
		fmt.Fprintf(w, "FAIL regret gate: no device exported sampled regret\n")
		return false
	}
	pass := true
	for _, rs := range sums {
		if rs.Mean > max {
			pass = false
			fmt.Fprintf(w, "FAIL %s mean sampled regret %.6f > ceiling %.6f\n", rs.Device, rs.Mean, max)
		} else {
			fmt.Fprintf(w, "ok   %s mean sampled regret %.6f <= ceiling %.6f\n", rs.Device, rs.Mean, max)
		}
	}
	return pass
}
