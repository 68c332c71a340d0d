package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// The micro-batcher is the router's second layer: concurrent cache misses
// destined for the same replica coalesce into one upstream
// POST /v1/select/batch instead of N parallel /v1/select round trips, and
// identical shapes inside a window share a single upstream decision
// (single-flight). Batching is adaptive — the window only opens when the
// replica already has router traffic in flight, so an isolated request takes
// the ordinary retry/hedge ladder with zero added latency and p50 never
// regresses at low concurrency.

const (
	// maxCoalesce caps one upstream batch; a full group flushes immediately
	// instead of waiting out the window.
	maxCoalesce = 128
	// flushTimeout bounds an upstream batch call. Flushes run detached from
	// any single client context (many waiters share one flush), so the bound
	// is generous: it exists to reclaim the goroutine, not to pace clients.
	flushTimeout = 30 * time.Second
)

// shapeCall is one coalesced decision slot: every waiter for the same shape
// in the same pending group blocks on done and shares the rendered body.
type shapeCall struct {
	done chan struct{}
	body []byte // newline-terminated decision body; immutable once done closes
	ok   bool
}

// batchGroup is one pending flush: the distinct shapes bound for one replica
// on one device channel during the current window.
type batchGroup struct {
	device string
	shapes []gemm.Shape
	calls  map[gemm.Shape]*shapeCall
}

// repBatcher coalesces misses destined for one replica. inflight counts this
// replica's router-issued upstream calls (solo or batch); a miss arriving
// while it is zero dispatches solo, because there is nothing to share a round
// trip with and waiting out the window would only add latency.
type repBatcher struct {
	mu       sync.Mutex
	pending  map[string]*batchGroup // device channel -> open window
	inflight atomic.Int32
}

// routeCoalesced answers one miss through the adaptive batcher. ok=false
// means no upstream candidate answered (or the client context expired) and
// the caller should fall back locally.
func (r *Router) routeCoalesced(ctx context.Context, device string, shape gemm.Shape, alive []int) (int, []byte, bool) {
	b := &r.batchers[alive[0]]
	b.mu.Lock()
	g := b.pending[device]
	if g == nil && b.inflight.Load() == 0 {
		// Low concurrency: dispatch solo through the full retry/hedge ladder.
		b.inflight.Add(1)
		b.mu.Unlock()
		res, ok := r.tryReplicas(ctx, alive, device, shape)
		b.inflight.Add(-1)
		if !ok {
			return 0, nil, false
		}
		r.metrics.wins[res.idx].Add(1)
		if res.hedge {
			r.metrics.hedgeWins.Add(1)
		}
		r.metrics.batchSizes.Observe(1)
		r.cacheFillBody(device, shape, res.idx, res.status, res.body)
		return res.status, res.body, true
	}
	if g == nil {
		g = &batchGroup{device: device, calls: make(map[gemm.Shape]*shapeCall, 8)}
		b.pending[device] = g
		grp := g
		time.AfterFunc(r.opts.BatchWindow, func() { r.flushWindow(b, device, grp) })
	}
	call := g.calls[shape]
	if call == nil {
		call = &shapeCall{done: make(chan struct{})}
		g.calls[shape] = call
		g.shapes = append(g.shapes, shape)
		if len(g.shapes) >= maxCoalesce {
			delete(b.pending, device)
			grp := g
			go r.flushBatch(b, grp)
		}
	} else {
		r.metrics.coalesced.Add(1)
	}
	b.mu.Unlock()

	select {
	case <-ctx.Done():
		// The flush keeps running for the other waiters; this client is gone.
		return 0, nil, false
	case <-call.done:
	}
	if !call.ok {
		return 0, nil, false
	}
	return http.StatusOK, call.body, true
}

// flushWindow fires when a group's window expires; a group already flushed on
// size is left alone.
func (r *Router) flushWindow(b *repBatcher, device string, g *batchGroup) {
	b.mu.Lock()
	if b.pending[device] != g {
		b.mu.Unlock()
		return
	}
	delete(b.pending, device)
	b.mu.Unlock()
	r.flushBatch(b, g)
}

// flushBatch prices one group with a single upstream batch call, walking the
// group's candidate order on failure exactly like a single request would, and
// distributes per-shape rendered bodies to every waiter. Total failure closes
// the calls unfilled; each waiter falls back locally on its own context.
func (r *Router) flushBatch(b *repBatcher, g *batchGroup) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	r.metrics.batchSizes.Observe(float64(len(g.shapes)))

	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	alive := r.routable(r.ring.candidates(g.device, g.shapes[0]))
	tried := 0
	for _, idx := range alive {
		if tried > r.opts.Retries {
			break
		}
		tried++
		decs, err := r.replicas[idx].Batch(ctx, g.device, g.shapes)
		if err != nil {
			r.noteBatchError(ctx, idx, err)
			continue
		}
		for i, shape := range g.shapes {
			call := g.calls[shape]
			d := decs[i]
			body := serve.AppendDecisionJSON(make([]byte, 0, 256), &d)
			body = append(body, '\n')
			call.body, call.ok = body, true
			if !d.Degraded {
				r.cacheFillDecision(g.device, shape, idx, d.Generation, body)
			}
			close(call.done)
		}
		r.metrics.wins[idx].Add(1)
		return
	}
	for _, call := range g.calls {
		close(call.done)
	}
}

// noteBatchError classifies one failed upstream batch call: a non-200 status
// means the replica is alive but unwilling (saturation, draining) and earns
// backoff, while a transport error with a live context marks it down so its
// shards re-hash.
func (r *Router) noteBatchError(ctx context.Context, idx int, err error) {
	r.metrics.repErrors.Add(1)
	var se *statusError
	if errors.As(err, &se) {
		if se.status == http.StatusTooManyRequests || se.status >= 500 {
			r.setBackoff(idx, r.opts.RetryBackoff)
		}
		return
	}
	if ctx.Err() == nil {
		r.health.observe(r.replicas[idx].Name, StateDown, nil, err.Error())
	}
}
