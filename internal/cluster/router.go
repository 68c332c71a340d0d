package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/obs"
	"kernelselect/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Name identifies this router in gossiped views.
	Name string
	// Replicas is the fleet roster, in shard-index order. The roster is
	// static for the router's lifetime; liveness is tracked per entry.
	Replicas []*Replica
	// Local is the router-local decision engine: the degraded last resort
	// that answers priceable shapes when every ring candidate is down.
	// Required — the no-5xx guarantee is built on it.
	Local serve.Engine
	// Retries bounds sequential failover attempts beyond the first (default
	// 2). The hedge does not count against it.
	Retries int
	// RetryBackoff is the pause between sequential attempts (default 5ms),
	// and the default backoff for a saturated replica when its response
	// carries no Retry-After.
	RetryBackoff time.Duration
	// HedgeDelay launches one cross-shard hedged attempt when the primary
	// has not answered in time (default 25ms; negative disables hedging).
	HedgeDelay time.Duration
	// BackoffCap bounds how long a Retry-After can hold a replica out of
	// preference (default 1s).
	BackoffCap time.Duration
	// Vnodes per replica on the hash ring (default 128).
	Vnodes int
	// WarmTop bounds hot shapes gathered from each peer window during a
	// peer-warmed reload (default 64).
	WarmTop int
	// ProbeInterval runs the background probe+gossip loop when positive;
	// zero leaves probing to explicit ProbeOnce calls (tests, chaos).
	ProbeInterval time.Duration
	// Peers are sibling router base URLs; each probe round pushes this
	// router's view to them (gossip).
	Peers []string

	// EdgeCacheSize enables the generation-aware edge cache when positive:
	// up to this many pre-rendered decision bodies are kept per device
	// channel and served with zero allocations. Entries are stamped with the
	// owning replica's generation and evicted the moment the health view (or
	// a newer body) reports a bump; degraded answers are never cached.
	// 0 disables (default).
	EdgeCacheSize int
	// BatchWindow enables adaptive micro-batching when positive: concurrent
	// cache misses bound for the same replica within the window coalesce
	// into one upstream batch call, with single-flight dedup per shape. An
	// isolated miss still dispatches immediately through the retry/hedge
	// ladder, so low-concurrency p50 does not regress. 0 disables (default).
	BatchWindow time.Duration
	// WarmConns pre-establishes this many persistent connections per replica
	// at Start — sized to the batch fan-out so the first burst of routed
	// traffic reuses warm sockets (default 8; negative disables).
	WarmConns int
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "router"
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 25 * time.Millisecond
	}
	if o.BackoffCap == 0 {
		o.BackoffCap = time.Second
	}
	if o.WarmTop == 0 {
		o.WarmTop = 64
	}
	if o.WarmConns == 0 {
		o.WarmConns = 8
	}
	return o
}

// Router fronts N selectd replicas with consistent-hash sharding keyed on
// (device, shape-bucket), bounded retry with backoff, one cross-shard hedged
// attempt, and a router-local degraded fallback so a priceable shape is never
// answered with a 5xx. Health observations gossip between routers as
// Seq-versioned views on /v1/cluster. On top of the routing ladder sits the
// fast path: a generation-aware edge cache answering repeats with zero
// allocations, and an adaptive micro-batcher coalescing concurrent misses
// into single upstream batch calls.
type Router struct {
	name     string
	replicas []*Replica
	local    serve.Engine
	ring     *ring
	health   *healthTable
	metrics  *routerMetrics
	opts     Options

	// edge is the generation-aware response cache (nil when disabled);
	// batchers holds one micro-batch coalescer per replica (nil when
	// disabled). selectHit is the pre-resolved select|200 request counter
	// the cache-hit path adds to.
	edge      *edgeCache
	batchers  []repBatcher
	selectHit *obs.Counter

	// backoffUntil holds per-replica unix-nano timestamps: a saturated
	// replica (429/5xx with Retry-After) is deprioritized until then, but
	// only when an unsaturated candidate exists — backoff must never cause
	// a degraded answer on its own.
	backoffUntil []atomic.Int64

	reloadMu sync.Mutex // one orchestrated reload at a time

	gossipHC *http.Client
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New wires a router over a replica roster and a local fallback engine.
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas")
	}
	if opts.Local == nil {
		return nil, errors.New("cluster: nil local engine (required for degraded fallback)")
	}
	opts = opts.withDefaults()
	names := make([]string, len(opts.Replicas))
	for i, rep := range opts.Replicas {
		names[i] = rep.Name
	}
	health := newHealthTable(names)
	r := &Router{
		name:         opts.Name,
		replicas:     opts.Replicas,
		local:        opts.Local,
		ring:         newRing(len(opts.Replicas), opts.Vnodes),
		health:       health,
		metrics:      newRouterMetrics(names, health),
		opts:         opts,
		backoffUntil: make([]atomic.Int64, len(opts.Replicas)),
		gossipHC:     &http.Client{Timeout: 2 * time.Second},
		stop:         make(chan struct{}),
	}
	r.selectHit = r.metrics.requests["select"].For(http.StatusOK)
	if opts.EdgeCacheSize > 0 {
		r.edge = newEdgeCache(opts.EdgeCacheSize, len(opts.Replicas), r.metrics)
		// Every generation the health view learns — probes, gossip merges —
		// flows into the cache's registers, so a bump observed anywhere
		// evicts that replica's stale entries before the next hit.
		idx := make(map[string]int, len(names))
		for i, n := range names {
			idx[n] = i
		}
		r.health.onGens = func(name string, gens map[string]uint64) {
			if i, ok := idx[name]; ok {
				r.edge.noteGens(i, gens)
			}
		}
	}
	if opts.BatchWindow > 0 {
		r.batchers = make([]repBatcher, len(opts.Replicas))
		for i := range r.batchers {
			r.batchers[i].pending = make(map[string]*batchGroup, 2)
		}
	}
	return r, nil
}

// Start launches the background probe+gossip loop when ProbeInterval is set,
// and pre-warms each replica's persistent connection pool.
func (r *Router) Start() {
	if r.opts.WarmConns > 0 {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for _, rep := range r.replicas {
				wg.Add(1)
				go func(rep *Replica) {
					defer wg.Done()
					rep.WarmConns(ctx, r.opts.WarmConns)
				}(rep)
			}
			wg.Wait()
		}()
	}
	if r.opts.ProbeInterval <= 0 {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(r.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeInterval)
				view := r.ProbeOnce(ctx)
				r.gossip(ctx, view)
				cancel()
			}
		}
	}()
}

// Close stops the probe loop.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// gossip pushes this router's view to each configured peer.
func (r *Router) gossip(ctx context.Context, view View) {
	body, err := json.Marshal(view)
	if err != nil {
		return
	}
	for _, peer := range r.opts.Peers {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/cluster", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if resp, err := r.gossipHC.Do(req); err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
		}
	}
}

// View reports the router's current gossiped health/generation view.
func (r *Router) View() View { return r.health.snapshot(r.name) }

// MarkDown force-marks a replica down (operator action and tests).
func (r *Router) MarkDown(name string) { r.health.observe(name, StateDown, nil, "marked down") }

// MarkUp force-marks a replica up.
func (r *Router) MarkUp(name string) { r.health.observe(name, StateUp, nil, "") }

// setBackoff deprioritizes a replica until now+d (capped).
func (r *Router) setBackoff(idx int, d time.Duration) {
	if d > r.opts.BackoffCap {
		d = r.opts.BackoffCap
	}
	r.backoffUntil[idx].Store(time.Now().Add(d).UnixNano())
}

// routable filters a candidate order down to replicas worth trying: up and
// not in backoff. If backoff would empty the list, backed-off (but up)
// replicas are readmitted — backoff sheds preference, never availability.
// With no up candidate at all, replicas mid-reload (warming) are admitted
// before the shape falls to the router-local engine: a warming replica still
// answers at full quality, and the local engine may not host the device.
func (r *Router) routable(order []int) []int {
	now := time.Now().UnixNano()
	alive := make([]int, 0, len(order))
	backedOff := make([]int, 0, 2)
	for _, idx := range order {
		if r.health.state(r.replicas[idx].Name) != StateUp {
			continue
		}
		if r.backoffUntil[idx].Load() > now {
			backedOff = append(backedOff, idx)
			continue
		}
		alive = append(alive, idx)
	}
	alive = append(alive, backedOff...)
	if len(alive) == 0 {
		for _, idx := range order {
			if r.health.state(r.replicas[idx].Name) == StateWarming {
				alive = append(alive, idx)
			}
		}
	}
	return alive
}

// attemptResult is one replica attempt's outcome: the replica's raw answer
// and, for a 200 batch answer, its decoded results.
type attemptResult struct {
	idx    int
	hedge  bool
	status int
	hdr    http.Header
	body   []byte
	decs   []serve.Decision
	err    error
}

// answer is the client-facing part of an accepted attempt: the replica's
// status and body verbatim, with its Retry-After.
func (res attemptResult) answer() answer {
	return answer{status: res.status, body: res.body, retryAfter: res.hdr.Get("Retry-After")}
}

// answer is one response bound for a client.
type answer struct {
	status     int
	body       []byte
	retryAfter string // forwarded Retry-After header, "" for none
}

// replicaCall is one upstream round trip the ladder can launch against a
// replica. A non-nil err is a replica fault: the transport failed, or a 200
// did not decode.
type replicaCall func(ctx context.Context, rep *Replica) attemptResult

// selectCall asks for one decision; any answer is passed through as is.
func selectCall(device string, shape gemm.Shape) replicaCall {
	return func(ctx context.Context, rep *Replica) (res attemptResult) {
		res.status, res.hdr, res.body, res.err = rep.Select(ctx, device, shape)
		return res
	}
}

// batchCall prices shapes in one replica batch call. A 200 must decode to
// exactly one result per shape.
func batchCall(device string, shapes []gemm.Shape) replicaCall {
	return func(ctx context.Context, rep *Replica) (res attemptResult) {
		res.status, res.hdr, res.body, res.err = rep.Batch(ctx, device, shapes)
		if res.err == nil && res.status == http.StatusOK {
			res.decs, res.err = decodeBatch(rep.Name, res.body, len(shapes))
		}
		return res
	}
}

// attempt runs one replica call and classifies its outcome. This is the one
// failure rule for every upstream call:
//   - a fault (transport error, undecodable 200) marks the replica down, so
//     its shard re-hashes on the next request;
//   - a 429 or 5xx arms backoff from the replica's Retry-After;
//   - faults and 5xx fail over and count as replica errors.
//
// An attempt whose context was cancelled lost a race to a sibling (or the
// client left): that says nothing about the replica, so it is neither
// counted nor marked down.
func (r *Router) attempt(ctx context.Context, idx int, hedge bool, call replicaCall, ch chan<- attemptResult) {
	rep := r.replicas[idx]
	res := call(ctx, rep)
	res.idx, res.hedge = idx, hedge
	if res.status == http.StatusTooManyRequests || res.status >= 500 {
		r.setBackoff(idx, retryAfterOrDefault(res.hdr, r.opts.RetryBackoff))
	}
	if !acceptable(res) && ctx.Err() == nil {
		r.metrics.repErrors.Add(1)
		if res.err != nil {
			r.health.observe(rep.Name, StateDown, nil, res.err.Error())
		}
	}
	ch <- res
}

// acceptable is the one acceptance rule: an answer below 500 that decoded is
// final and goes back to the client verbatim — 2xx, 4xx and a shed 429 with
// its Retry-After alike. Faults and 5xx stay inside the router.
func acceptable(res attemptResult) bool {
	return res.err == nil && res.status < 500
}

// tryReplicas is the router's one upstream ladder, shared by a solo select,
// a coalesced flush and each shard group of a client batch: launch call on
// the first candidate, hedge to the second after HedgeDelay, and on failure
// walk the remaining candidates sequentially with backoff, up to Retries
// extra attempts. The first acceptable answer wins and is counted exactly
// once; the moment it returns, every losing in-flight arm is cancelled
// through its own context, so hedges stop burning replica budget on work
// nobody will read.
func (r *Router) tryReplicas(ctx context.Context, alive []int, call replicaCall) (attemptResult, bool) {
	if len(alive) == 0 {
		return attemptResult{}, false
	}
	ch := make(chan attemptResult, len(alive))
	cancels := make([]context.CancelFunc, 0, len(alive))
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(idx int, hedge bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go r.attempt(actx, idx, hedge, call, ch)
	}
	next := 1
	pending := 1
	seqAttempts := 1
	launch(alive[0], false)

	var hedgeC <-chan time.Time
	if r.opts.HedgeDelay > 0 && len(alive) > 1 {
		t := time.NewTimer(r.opts.HedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}

	for {
		select {
		case <-ctx.Done():
			return attemptResult{}, false
		case <-hedgeC:
			hedgeC = nil
			if next < len(alive) {
				r.metrics.hedges.Add(1)
				pending++
				launch(alive[next], true)
				next++
			}
		case res := <-ch:
			pending--
			if acceptable(res) {
				r.metrics.wins[res.idx].Add(1)
				if res.hedge {
					r.metrics.hedgeWins.Add(1)
				}
				return res, true
			}
			if pending > 0 {
				continue // an in-flight sibling may still win
			}
			if next >= len(alive) || seqAttempts > r.opts.Retries {
				return attemptResult{}, false
			}
			r.metrics.retries.Add(1)
			seqAttempts++
			select {
			case <-ctx.Done():
				return attemptResult{}, false
			case <-time.After(r.opts.RetryBackoff):
			}
			pending++
			launch(alive[next], false)
			next++
		}
	}
}

// errorBody mirrors serve's error envelope.
func errorBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	return b
}

// fallback answers from the router-local engine, stamped degraded with reason
// replica_down. This is the no-5xx backstop: a priceable shape always gets a
// usable (if conservative) configuration even with the whole fleet dark. A
// shape it cannot answer comes back as the error answer the client gets
// instead (status not 200).
func (r *Router) fallback(ctx context.Context, device string, shape gemm.Shape) (serve.Decision, answer) {
	d, err := r.local.Decide(ctx, device, shape)
	if err != nil {
		if ctx.Err() != nil {
			return d, answer{status: http.StatusServiceUnavailable, body: errorBody("deadline exceeded"), retryAfter: "1"}
		}
		// Unpriceable: unknown device or invalid shape — a client error on
		// any topology, single replica or fleet.
		return d, answer{status: http.StatusBadRequest, body: errorBody(err.Error())}
	}
	d.Degraded = true
	d.DegradedReason = "replica_down"
	d.Cached = false
	r.metrics.fallbacks.Add(1)
	return d, answer{status: http.StatusOK}
}

// fill is the edge cache's one feed: it caches a replica's 200 decision body
// under the replica that produced it, stamped with the generation the body
// carries. The body is read with encoding/json, exactly as a client reads
// it; a degraded, unstamped or undecodable body is not cached.
func (r *Router) fill(device string, shape gemm.Shape, rep int, body []byte) {
	if r.edge == nil {
		return
	}
	var meta struct {
		Generation uint64 `json:"generation"`
		Degraded   bool   `json:"degraded"`
	}
	if json.Unmarshal(body, &meta) != nil || meta.Degraded || meta.Generation == 0 {
		return
	}
	if body[len(body)-1] != '\n' {
		body = append(body[:len(body):len(body)], '\n')
	}
	r.edge.put(device, shape, rep, meta.Generation, body)
}

// solo sends one select miss through the ladder on its own and refills the
// edge cache from the answer.
func (r *Router) solo(ctx context.Context, alive []int, device string, shape gemm.Shape) (answer, bool) {
	res, ok := r.tryReplicas(ctx, alive, selectCall(device, shape))
	if !ok {
		return answer{}, false
	}
	if res.status == http.StatusOK {
		r.fill(device, shape, res.idx, res.body)
	}
	return res.answer(), true
}

// route answers one select request through the full ladder: consistent-hash
// candidates, liveness filter, micro-batcher or a solo dispatch, local
// degraded fallback.
func (r *Router) route(ctx context.Context, device string, shape gemm.Shape) answer {
	alive := r.routable(r.ring.candidates(device, shape))
	var a answer
	var ok bool
	if r.batchers != nil && len(alive) > 0 {
		a, ok = r.routeCoalesced(ctx, device, shape, alive)
	} else {
		a, ok = r.solo(ctx, alive, device, shape)
	}
	if ok {
		return a
	}
	d, a := r.fallback(ctx, device, shape)
	if a.status == http.StatusOK {
		a.body = append(serve.AppendDecisionJSON(make([]byte, 0, 256), &d), '\n')
	}
	return a
}

// selectBufPool holds per-request scratch for the select proxy loop: the
// request body lands in it and is scanned in place, so a cache hit touches
// the heap zero times.
var selectBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

var jsonContentType = []string{"application/json"}

func (r *Router) handleSelect(w http.ResponseWriter, req *http.Request) {
	bp := selectBufPool.Get().(*[]byte)
	defer selectBufPool.Put(bp)
	body, err := serve.ReadRequestBody(w, req, (*bp)[:0])
	*bp = body[:0]
	if err != nil {
		r.writeResponse(w, "select", http.StatusBadRequest, errorBody(err.Error()), "")
		return
	}
	var shape gemm.Shape
	var deviceB []byte // aliases body; consumed before the buffer is released
	if m, k, n, dev, ok := serve.ParseSelectWire(body); ok {
		shape = gemm.Shape{M: m, K: k, N: n}
		deviceB = dev
	} else {
		// Anything beyond the canonical form keeps the lenient stdlib
		// semantics the router has always had for passthrough requests.
		var sr selectShape
		if err := json.Unmarshal(body, &sr); err != nil {
			r.writeResponse(w, "select", http.StatusBadRequest, errorBody(err.Error()), "")
			return
		}
		shape = gemm.Shape{M: sr.M, K: sr.K, N: sr.N}
		deviceB = []byte(sr.Device)
	}
	if err := shape.Validate(); err != nil {
		r.writeResponse(w, "select", http.StatusBadRequest, errorBody(err.Error()), "")
		return
	}
	if r.edge != nil {
		if cached := r.edge.get(deviceB, shape); cached != nil {
			h := w.Header()
			h["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusOK)
			w.Write(cached)
			r.selectHit.Add(1)
			return
		}
	}
	a := r.route(req.Context(), string(deviceB), shape)
	r.writeResponse(w, "select", a.status, a.body, a.retryAfter)
}

// writeResponse commits one response and counts it once.
func (r *Router) writeResponse(w http.ResponseWriter, endpoint string, status int, body []byte, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
	r.metrics.request(endpoint, status)
}

// handleBatch shards a batch across the fleet: shapes group by their ring
// primary, each group rides the upstream ladder as one replica batch call,
// and shapes whose candidates are all down get individual local fallback
// answers. Results return in request order. A group answered below 500 but
// not 200 (the replica refused it: unknown device, shed) is final: the one
// holding the earliest request index answers the whole batch, as a single
// replica would have.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var br batchWire
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body, &br)
	}
	if err != nil {
		r.writeResponse(w, "batch", http.StatusBadRequest, errorBody(err.Error()), "")
		return
	}
	shapes := make([]gemm.Shape, len(br.Shapes))
	for i, s := range br.Shapes {
		shapes[i] = gemm.Shape{M: s.M, K: s.K, N: s.N}
		if err := shapes[i].Validate(); err != nil {
			r.writeResponse(w, "batch", http.StatusBadRequest, errorBody(fmt.Sprintf("shape %d: %v", i, err)), "")
			return
		}
	}

	// Group request indices by ring primary among routable candidates.
	groups := make(map[int][]int)
	var orphans []int // no routable candidate at all
	for i, shape := range shapes {
		alive := r.routable(r.ring.candidates(br.Device, shape))
		if len(alive) == 0 {
			orphans = append(orphans, i)
			continue
		}
		groups[alive[0]] = append(groups[alive[0]], i)
	}

	// Each goroutine writes only its own indices of results.
	ctx := req.Context()
	results := make([]serve.Decision, len(shapes))
	var mu sync.Mutex
	refusedAt, refusal := len(shapes), answer{}
	refuse := func(i int, a answer) {
		mu.Lock()
		if i < refusedAt {
			refusedAt, refusal = i, a
		}
		mu.Unlock()
	}
	fallbackOne := func(i int) {
		d, a := r.fallback(ctx, br.Device, shapes[i])
		if a.status != http.StatusOK {
			refuse(i, a)
			return
		}
		results[i] = d
	}
	var wg sync.WaitGroup
	for _, idxs := range groups {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			group := make([]gemm.Shape, len(idxs))
			for j, i := range idxs {
				group[j] = shapes[i]
			}
			// The primary first, then the same successor order a single
			// request would fail over to.
			alive := r.routable(r.ring.candidates(br.Device, group[0]))
			res, ok := r.tryReplicas(ctx, alive, batchCall(br.Device, group))
			switch {
			case !ok:
				for _, i := range idxs {
					fallbackOne(i)
				}
			case res.status != http.StatusOK:
				refuse(idxs[0], res.answer())
			default:
				for j, i := range idxs {
					results[i] = res.decs[j]
				}
			}
		}(idxs)
	}
	for _, i := range orphans {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fallbackOne(i) }(i)
	}
	wg.Wait()
	if refusedAt < len(shapes) {
		r.writeResponse(w, "batch", refusal.status, refusal.body, refusal.retryAfter)
		return
	}

	bp := selectBufPool.Get().(*[]byte)
	out := serve.AppendBatchJSON((*bp)[:0], results)
	r.writeResponse(w, "batch", http.StatusOK, out, "")
	*bp = out[:0]
	selectBufPool.Put(bp)
}

// maxBody mirrors serve's request body cap for the control endpoints; select
// bodies go through serve.ReadRequestBody and share the serving tier's cap.
const maxBody = 1 << 20

func (r *Router) handleClusterGet(w http.ResponseWriter, _ *http.Request) {
	b, _ := json.Marshal(r.View())
	r.writeResponse(w, "cluster", http.StatusOK, b, "")
}

func (r *Router) handleClusterPost(w http.ResponseWriter, req *http.Request) {
	var v View
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	if err != nil {
		r.writeResponse(w, "cluster", http.StatusBadRequest, errorBody(err.Error()), "")
		return
	}
	adopted := r.health.merge(v)
	r.metrics.merges.Add(uint64(adopted))
	b, _ := json.Marshal(struct {
		Adopted int `json:"adopted"`
	}{Adopted: adopted})
	r.writeResponse(w, "cluster", http.StatusOK, b, "")
}

// reloadSummary is the router's POST /v1/reload body: one entry per replica
// rolled.
type reloadSummary struct {
	Replica    string `json:"replica"`
	Device     string `json:"device,omitempty"`
	Generation uint64 `json:"generation"`
	Warmed     int    `json:"warmed"`
	Err        string `json:"error,omitempty"`
}

func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	var rr struct {
		Replica string `json:"replica,omitempty"`
		Device  string `json:"device,omitempty"`
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBody))
	if err == nil && len(bytes.TrimSpace(body)) > 0 {
		err = json.Unmarshal(body, &rr)
	}
	if err != nil {
		r.writeResponse(w, "reload", http.StatusBadRequest, errorBody(err.Error()), "")
		return
	}
	targets := make([]int, 0, len(r.replicas))
	if rr.Replica != "" {
		found := -1
		for i, rep := range r.replicas {
			if rep.Name == rr.Replica {
				found = i
				break
			}
		}
		if found < 0 {
			r.writeResponse(w, "reload", http.StatusBadRequest, errorBody(fmt.Sprintf("unknown replica %q", rr.Replica)), "")
			return
		}
		targets = append(targets, found)
	} else {
		for i := range r.replicas {
			targets = append(targets, i)
		}
	}

	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	summaries := make([]reloadSummary, 0, len(targets))
	failed := false
	for _, idx := range targets {
		s := r.reloadReplica(req.Context(), idx, rr.Device)
		if s.Err != "" {
			failed = true
		}
		summaries = append(summaries, s)
	}
	out, _ := json.Marshal(struct {
		Reloads []reloadSummary `json:"reloads"`
	}{Reloads: summaries})
	code := http.StatusOK
	if failed {
		code = http.StatusBadGateway
	}
	r.writeResponse(w, "reload", code, out, "")
}

// reloadReplica rolls one replica onto a fresh generation with peer
// cache-warming: the replica leaves rotation (state warming, so its shards
// re-hash to successors and gather traffic there), reloads, pre-prices the
// hottest shapes its peers observed for its shards, and only then cuts back
// in. The new generation goes live warm instead of eating a cold-start
// latency cliff on its own shard.
func (r *Router) reloadReplica(ctx context.Context, idx int, device string) reloadSummary {
	rep := r.replicas[idx]
	sum := reloadSummary{Replica: rep.Name, Device: device}
	if r.health.state(rep.Name) == StateDown {
		sum.Err = "replica down"
		return sum
	}
	r.health.observe(rep.Name, StateWarming, nil, "")
	defer func() {
		if sum.Err == "" {
			r.health.observe(rep.Name, StateUp, nil, "")
		} else {
			r.health.observe(rep.Name, StateDown, nil, sum.Err)
		}
	}()

	rw, err := rep.Reload(ctx, device)
	if err != nil {
		sum.Err = err.Error()
		return sum
	}
	sum.Generation = rw.Generation
	r.metrics.reloads.Add(1)
	if r.edge != nil {
		// Eagerly advance the shard's generation register: the reloaded
		// replica's old-generation entries are stale the instant the swap
		// lands, before any probe round confirms it.
		r.edge.noteGens(idx, map[string]uint64{rw.Device: rw.Generation})
	}

	warm := r.gatherWarmShapes(ctx, idx, device)
	if len(warm) > 0 {
		if status, _, _, err := rep.Batch(ctx, device, warm); err == nil && status == http.StatusOK {
			sum.Warmed = len(warm)
			r.metrics.warmed.Add(uint64(len(warm)))
		}
	}
	return sum
}

// gatherWarmShapes collects, from every up peer's served-shape window, the
// hot shapes whose all-up ring primary is the reloading replica — exactly the
// traffic that re-hashed away while it was out, and exactly what will come
// back at cutover. Deduped and ordered hottest-first.
func (r *Router) gatherWarmShapes(ctx context.Context, idx int, device string) []gemm.Shape {
	type hot struct {
		shape gemm.Shape
		count int
	}
	var hots []hot
	seen := make(map[gemm.Shape]bool)
	for i, peer := range r.replicas {
		if i == idx || r.health.state(peer.Name) != StateUp {
			continue
		}
		shapes, err := peer.Window(ctx, device, r.opts.WarmTop)
		if err != nil {
			continue
		}
		for _, hs := range shapes {
			shape := gemm.Shape{M: hs.M, K: hs.K, N: hs.N}
			if seen[shape] {
				continue
			}
			// Primary on the all-up ring: where this shape's traffic lives
			// when the fleet is healthy — warming anything else would heat a
			// cache the replica will never be asked from.
			if r.ring.candidates(device, shape)[0] != idx {
				continue
			}
			seen[shape] = true
			hots = append(hots, hot{shape: shape, count: hs.Count})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].count != hots[j].count {
			return hots[i].count > hots[j].count
		}
		return hots[i].shape.String() < hots[j].shape.String()
	})
	if len(hots) > r.opts.WarmTop {
		hots = hots[:r.opts.WarmTop]
	}
	out := make([]gemm.Shape, len(hots))
	for i, h := range hots {
		out[i] = h.shape
	}
	return out
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// The router itself is always serviceable: with the fleet dark it still
	// answers degraded from the local engine, so healthz reports topology
	// rather than gating on replica liveness.
	b, _ := json.Marshal(struct {
		Status      string `json:"status"`
		ReplicasUp  int    `json:"replicas_up"`
		ReplicasAll int    `json:"replicas_total"`
	}{Status: "ok", ReplicasUp: r.health.upCount(), ReplicasAll: len(r.replicas)})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	w.Write([]byte("\n"))
}

// Handler returns the router's full HTTP surface.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", r.handleSelect)
	mux.HandleFunc("POST /v1/select/batch", r.handleBatch)
	mux.HandleFunc("GET /v1/cluster", r.handleClusterGet)
	mux.HandleFunc("POST /v1/cluster", r.handleClusterPost)
	mux.HandleFunc("POST /v1/reload", r.handleReload)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.Handle("GET /metrics", r.metrics.reg)
	return mux
}
