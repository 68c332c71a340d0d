package cluster

import (
	"context"
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
// in the same pending group blocks on done and shares the answer.
type shapeCall struct {
	done chan struct{}
	ans  answer // a 200 carries a newline-terminated decision body; immutable once done closes
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
func (r *Router) routeCoalesced(ctx context.Context, device string, shape gemm.Shape, alive []int) (answer, bool) {
	b := &r.batchers[alive[0]]
	b.mu.Lock()
	g := b.pending[device]
	if g == nil && b.inflight.Load() == 0 {
		// Low concurrency: dispatch solo through the full retry/hedge ladder.
		b.inflight.Add(1)
		b.mu.Unlock()
		a, ok := r.solo(ctx, alive, device, shape)
		b.inflight.Add(-1)
		if ok {
			r.metrics.batchSizes.Observe(1)
		}
		return a, ok
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
		return answer{}, false
	case <-call.done:
	}
	return call.ans, call.ok
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

// flushBatch prices one group as a single replica batch call through the
// upstream ladder, over the candidate order of the group's first shape, and
// hands every waiter its answer: its own rendered decision on a 200, the
// replica's answer verbatim on a refusal. When the ladder finds no answer
// the calls close unfilled and each waiter falls back locally on its own
// context.
func (r *Router) flushBatch(b *repBatcher, g *batchGroup) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	r.metrics.batchSizes.Observe(float64(len(g.shapes)))

	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	alive := r.routable(r.ring.candidates(g.device, g.shapes[0]))
	res, ok := r.tryReplicas(ctx, alive, batchCall(g.device, g.shapes))
	for i, shape := range g.shapes {
		call := g.calls[shape]
		call.ok = ok
		switch {
		case !ok:
		case res.status != http.StatusOK:
			call.ans = res.answer()
		default:
			body := append(serve.AppendDecisionJSON(make([]byte, 0, 256), &res.decs[i]), '\n')
			call.ans = answer{status: http.StatusOK, body: body}
			r.fill(g.device, shape, res.idx, body)
		}
		close(call.done)
	}
}
