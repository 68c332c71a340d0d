package serve

import (
	"time"

	"kernelselect/internal/obs"
)

// latencyBuckets are the request-latency histogram upper bounds in seconds.
// Selection is microseconds (a tree walk plus at most one pricing pass), so
// the buckets concentrate there and fan out to catch stragglers.
var latencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// regretBuckets are the selectd_regret histogram upper bounds. Regret lives
// in [0, 1] and a working selector concentrates near 0 — the le="0" bucket
// exists so "picked the per-shape optimum exactly" is countable on its own —
// while the coarse upper bounds catch a selector losing to distribution
// shift.
var regretBuckets = []float64{0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.15, 0.25, 0.5}

// metrics is selectd's registry plus the counter and histogram families the
// request path writes; bind resolves one backend's series from them. Gauges
// read the backends at scrape time, so they need no handle here.
type metrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec
	latency  *obs.HistogramVec

	cacheHits, cacheMisses, shed, degraded, warmed  *obs.CounterVec
	decisions, sampled, unsampled, regretDropped    *obs.CounterVec
	regret, regretDegraded                          *obs.HistogramVec
	retrainPromoted, retrainRejected, retrainErrors *obs.CounterVec
	fallbackUpdates, breakerTrips                   *obs.CounterVec
}

// newMetrics registers every selectd family, in exposition order.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	started := time.Now()
	gauge := func(name, help string, v func(be *backend) float64) {
		reg.Gauge(name, help, []string{"device"}, func(emit obs.Emit) {
			for _, be := range s.backends {
				emit(v(be), be.name)
			}
		})
	}
	counter := func(name, help string) *obs.CounterVec { return reg.Counter(name, help, "device") }
	m := &metrics{reg: reg}

	reg.Gauge("selectd_info", "Serving daemon metadata, one line per device backend.",
		[]string{"selector", "device"}, func(emit obs.Emit) {
			for _, be := range s.backends {
				emit(1, be.gen.Load().lib.SelectorName(), be.name)
			}
		})
	reg.Gauge("selectd_uptime_seconds", "Time since the server started.", nil, func(emit obs.Emit) {
		emit(time.Since(started).Seconds())
	})
	m.requests = reg.Counter("selectd_requests_total", "Requests served, by endpoint and status code.", "endpoint", "code")
	m.latency = reg.Histogram("selectd_request_seconds", "Full-service request latency histogram, by endpoint.", latencyBuckets, "endpoint")
	gauge("selectd_generation", "Library generation currently serving, by device.",
		func(be *backend) float64 { return float64(be.gen.Load().id) })
	m.cacheHits = counter("selectd_cache_hits_total", "Decision-cache hits, by device.")
	m.cacheMisses = counter("selectd_cache_misses_total", "Decision-cache misses, by device.")
	gauge("selectd_cache_entries", "Decisions currently cached, by device.",
		func(be *backend) float64 { return float64(be.gen.Load().cache.len()) })
	gauge("selectd_inflight_requests", "Requests currently being served, by device.",
		func(be *backend) float64 { return float64(be.inflight.Load()) })
	gauge("selectd_budget_tokens", "Admission tokens currently free, by device.",
		func(be *backend) float64 { return float64(be.budgetFree()) })
	gauge("selectd_budget_capacity", "Admission budget size, by device.",
		func(be *backend) float64 { return float64(be.budgetCap) })
	m.shed = counter("selectd_shed_total", "Requests rejected 429 at the latency shed threshold, by device.")
	gauge("selectd_compiled_selector", "Whether the serving generation uses a compiled selector (1) or the interpreted model (0), by device.",
		func(be *backend) float64 { return flag(be.gen.Load().compiled) })
	m.degraded = reg.Counter("selectd_degraded_total", "Requests answered with the fallback config, by device and reason.", "device", "reason")
	gauge("selectd_latency_ewma_seconds", "Full-service latency EWMA, by device.",
		func(be *backend) float64 { return ewmaValue(&be.latencyEWMA).Seconds() })
	m.warmed = counter("selectd_warm_shapes_total", "Shapes cached by the speculative warm pass for the serving generation, by device.")
	gauge("selectd_warm_complete", "Whether the serving generation's warm pass has cached every warm shape (1) or is still cold (0), by device.",
		func(be *backend) float64 { _, _, done := be.gen.Load().warmSnapshot(); return flag(done) })

	m.decisions = counter("selectd_decisions_total", "Decisions served (full-quality and degraded), by device.")
	m.sampled = counter("selectd_decisions_sampled_total", "Decisions stamped for background regret measurement, by device.")
	m.unsampled = counter("selectd_decisions_unsampled_total", "Decisions not selected for regret measurement, by device.")
	m.regretDropped = counter("selectd_regret_dropped_total", "Regret samples dropped because the measurement queue was full, by device.")
	m.regret = reg.Histogram("selectd_regret", "Sampled decision regret vs the per-shape optimum of the config universe (1 - achieved/best), by device.", regretBuckets, "device")
	m.regretDegraded = reg.Histogram("selectd_regret_degraded", "Sampled regret of degraded (fallback-config) decisions, by device.", regretBuckets, "device")
	gauge("selectd_drift_score", "Population-stability drift of the live shape mix vs the training mix, by device.",
		func(be *backend) float64 { return be.driftScore() })
	gauge("selectd_window_size", "Served shapes currently held in the drift window, by device.",
		func(be *backend) float64 {
			if be.window == nil {
				return 0
			}
			return float64(be.window.size())
		})
	m.retrainPromoted = counter("selectd_retrain_promoted_total", "Shadow-retrained candidates promoted to serving, by device.")
	m.retrainRejected = counter("selectd_retrain_rejected_total", "Shadow-retrained candidates rejected by a verification gate, by device.")
	m.retrainErrors = counter("selectd_retrain_errors_total", "Shadow-retrain attempts that failed before gating, by device.")
	m.fallbackUpdates = counter("selectd_fallback_updates_total", "Online fallback-config changes learned from the served shape window, by device.")

	gauge("selectd_breaker_state", "Circuit-breaker state, by device (0 closed, 1 half-open, 2 open).",
		func(be *backend) float64 { state, _ := be.breaker.snapshot(); return float64(state) })
	m.breakerTrips = counter("selectd_breaker_trips_total", "Circuit-breaker open transitions, by device.")
	return m
}

// bind resolves a new backend's counters and histograms, so its series are
// on the page from the start and its hot paths hold plain pointers.
func (m *metrics) bind(be *backend) {
	dev := be.name
	be.cacheHits = m.cacheHits.With(dev)
	be.cacheMisses = m.cacheMisses.With(dev)
	be.shed = m.shed.With(dev)
	for r := range be.degraded {
		be.degraded[r] = m.degraded.With(dev, reasonNames[r])
	}
	be.warmedTotal = m.warmed.With(dev)
	be.decisions = m.decisions.With(dev)
	be.sampled = m.sampled.With(dev)
	be.unsampled = m.unsampled.With(dev)
	be.regretDropped = m.regretDropped.With(dev)
	be.regretHist = m.regret.With(dev)
	be.regretDegradedHist = m.regretDegraded.With(dev)
	be.retrainPromoted = m.retrainPromoted.With(dev)
	be.retrainRejected = m.retrainRejected.With(dev)
	be.retrainErrors = m.retrainErrors.With(dev)
	be.fallbackUpdates = m.fallbackUpdates.With(dev)
	be.breaker.trips = m.breakerTrips.With(dev)
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
