package cluster

import "kernelselect/internal/obs"

// sizeBounds are the selectrouter_batchsize bucket upper bounds; sizes above
// the last land in +Inf.
var sizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// routerMetrics is the router's registry and the series its paths write,
// each resolved once here so a hot path pays one atomic add. The requests
// map is filled here and only read afterwards.
type routerMetrics struct {
	reg      *obs.Registry
	requests map[string]*obs.CodeCounters // by endpoint

	retries, hedges, hedgeWins, fallbacks, probes, merges, reloads, warmed, repErrors *obs.Counter

	edgeHits, edgeMisses, edgeInvalidations, coalesced *obs.Counter
	batchSizes                                         *obs.Histogram

	// wins counts, per replica, responses actually returned to a client —
	// a hedged request increments exactly one replica's counter.
	wins []*obs.Counter
}

// newRouterMetrics registers the router families; the replica_up gauge
// reads health at scrape time.
func newRouterMetrics(replicas []string, health *healthTable) *routerMetrics {
	reg := obs.NewRegistry()
	counter := func(name, help string) *obs.Counter { return reg.Counter(name, help).With() }
	reqs := reg.Counter("router_requests_total", "Responses returned to clients, by endpoint and status code.", "endpoint", "code")
	m := &routerMetrics{
		reg:      reg,
		requests: make(map[string]*obs.CodeCounters),

		retries:   counter("router_retries_total", "Sequential failover attempts beyond the first."),
		hedges:    counter("router_hedges_total", "Hedged attempts launched."),
		hedgeWins: counter("router_hedge_wins_total", "Requests answered by the hedged attempt."),
		fallbacks: counter("router_fallback_total", "Degraded answers from the router-local engine with no routable replica."),
		probes:    counter("router_probes_total", "Replica health probes issued."),
		merges:    counter("router_gossip_merges_total", "Replica health entries adopted from peer gossip."),
		reloads:   counter("router_reloads_total", "Replica reloads orchestrated."),
		warmed:    counter("router_warmed_shapes_total", "Shapes peer-warmed into reloading replicas."),
		repErrors: counter("router_replica_errors_total", "Failed replica attempts: transport errors, 5xx answers and 200s that did not decode."),

		edgeHits:          counter("selectrouter_cache_hits_total", "Selects answered from the edge cache."),
		edgeMisses:        counter("selectrouter_cache_misses_total", "Selects the edge cache could not answer."),
		edgeInvalidations: counter("selectrouter_cache_invalidations_total", "Edge-cache entries evicted by a replica generation bump."),
		coalesced:         counter("selectrouter_coalesced_total", "Selects that joined an in-flight upstream call for the same shape."),
		batchSizes: reg.Histogram("selectrouter_batchsize", "Distinct shapes per upstream dispatch of the micro-batcher (a solo dispatch observes 1).",
			sizeBounds).With(),
	}
	for _, ep := range []string{"select", "batch", "reload", "cluster"} {
		m.requests[ep] = reqs.Codes(ep)
	}
	wins := reg.Counter("router_replica_wins_total", "Responses returned to clients, by the replica that answered.", "replica")
	for _, name := range replicas {
		m.wins = append(m.wins, wins.With(name))
	}
	reg.Gauge("router_replica_up", "Whether a replica is up in the router's health view (1) or not (0).", []string{"replica"}, func(emit obs.Emit) {
		for _, name := range replicas {
			up := 0.0
			if health.state(name) == StateUp {
				up = 1
			}
			emit(up, name)
		}
	})
	return m
}

// request counts one response returned to a client.
func (m *routerMetrics) request(endpoint string, code int) {
	m.requests[endpoint].For(code).Add(1)
}
