package serve

import (
	"context"

	"kernelselect/internal/par"
)

// Speculative generation warming. A freshly swapped generation starts with an
// empty decision cache, so every distinct shape pays one full pricing pass
// before steady-state traffic goes back to O(1) cache hits — under load, that
// cold-start window is exactly when the admission budget saturates and the
// latency EWMA spikes. When Options.Warm is set, startWarm prices the
// configured warm-shape universe (the paper's dataset shapes by default) in
// the background on every generation swap, so by the time real traffic
// arrives the cache already holds a full-quality decision for every expected
// shape and the miss path is never exercised in steady state.
//
// The warm pass runs outside the serving ladder on purpose: it takes no
// admission token, feeds no latency EWMA and no circuit breaker (it describes
// the warm pass, not client service). A request racing the warm pass for the
// same shape may duplicate one pricing pass; both sides put identical
// values. Warm decisions are computed by the generation itself, so a
// cancelled pass can never leak a stale generation's decision into a newer
// generation's cache: each generation only ever warms its own private cache.

// startWarm launches the generation's warm pass, or latches warmDone
// immediately when there is nothing to warm (warming disabled, no cache to
// fill, or an empty warm-shape set — vacuously complete). Callers invoke it
// before publishing the generation, so requests never observe a generation
// whose warm bookkeeping is uninitialised. The backend carries the
// cumulative warm counter (selectd_warm_shapes_total) so the series keeps
// growing across generation swaps instead of resetting.
func (s *Server) startWarm(be *backend, gen *generation) {
	shapes := s.opts.WarmShapes
	if !s.opts.Warm || gen.cache == nil || len(shapes) == 0 {
		gen.warmDone.Store(true)
		return
	}
	gen.warmTotal = len(shapes)
	ctx, cancel := context.WithCancel(context.Background())
	gen.warmStop = cancel
	go func() {
		defer cancel()
		par.Do(s.opts.Workers, len(shapes), func(i int) {
			if ctx.Err() != nil {
				return
			}
			d, err := gen.compute(ctx, shapes[i])
			if err != nil || d.Degraded {
				return
			}
			gen.cache.put(shapes[i], d)
			gen.warmed.Add(1)
			be.warmedTotal.Add(1)
		})
		// Complete only when every shape landed: a cancelled or partially
		// failed pass leaves warmDone false, which /healthz and the metrics
		// surface as "still cold" rather than lying about readiness.
		if gen.warmed.Load() == uint64(gen.warmTotal) {
			gen.warmDone.Store(true)
		}
	}()
}

// stopWarm cancels the generation's warm pass, if one is running. Reload
// calls it on the displaced generation after the swap lands, so at most one
// warm pass runs per backend and a reload storm cannot pile up workers
// pricing shapes for caches nothing will ever read.
func (g *generation) stopWarm() {
	if g.warmStop != nil {
		g.warmStop()
	}
}

// warmSnapshot reports the generation's warm progress for healthz, reload
// responses and the metrics endpoint.
func (g *generation) warmSnapshot() (total int, warmed uint64, done bool) {
	return g.warmTotal, g.warmed.Load(), g.warmDone.Load()
}
