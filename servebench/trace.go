package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. depth orders them for self-time: a span's
// children are the same request's spans at the next deeper layer present.
const (
	layerClient   = iota // generator: request sent to response decoded
	layerRouter          // (*cluster.Router).Handler()
	layerUpstream        // router -> replica round trip (the replica client's transport)
	layerFlush           // micro-batch flush: a root span, one upstream batch call
	layerReplica         // (*serve.Server).Handler()
	numLayers
)

var layerNames = [numLayers]string{"client", "router", "upstream", "flush", "replica"}
var layerDepth = [numLayers]int{0, 1, 2, 2, 3}

// traceHeader carries a request's trace id across loopback hops; inside a
// process the id rides in the request context.
const traceHeader = "X-Bench-Trace"

type traceKey struct{}

// span is one timed interval at a layer boundary. Spans of one request
// share id; count is the member count of a flush span.
type span struct {
	id         uint64
	layer      uint8
	count      int32
	start, end int64 // ns since the tracer's base
}

// tracer records spans in memory while on; they are written out at the end
// of the run. All wrappers are installed in traced runs only and check on
// per request, so one run can measure with tracing off and then on.
type tracer struct {
	on     atomic.Bool
	base   time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// idFrom reads the trace id a request carries in its header.
func idFrom(h http.Header) uint64 {
	v := h.Get(traceHeader)
	if v == "" {
		return 0
	}
	id, _ := strconv.ParseUint(v, 10, 64) // a malformed id is just untraced
	return id
}

// wrapHandler times a server's public handler. The id from the header is
// put into the request context so the router's upstream calls inherit it.
func (t *tracer) wrapHandler(layer uint8, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := idFrom(r.Header)
		if !t.on.Load() || id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, id)))
		t.add(span{id: id, layer: layer, start: start, end: t.now()})
	})
}

// tracedTransport wraps the http.Client a cluster.Replica uses. A select
// call made on behalf of a traced request becomes an upstream span of that
// request; a batch call made with no request in its context is a
// micro-batch flush and becomes a root span of its own. The span ends when
// the response body is closed, so it covers the whole round trip.
type tracedTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	path := req.URL.Path
	if !t.on.Load() || (path != "/v1/select" && path != "/v1/select/batch") {
		return tt.next.RoundTrip(req)
	}
	s := span{layer: layerUpstream}
	if id, ok := req.Context().Value(traceKey{}).(uint64); ok {
		s.id = id
	} else {
		s.id = t.nextID.Add(1)
		s.layer = layerFlush
		s.count = int32(batchMembers(req))
	}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, strconv.FormatUint(s.id, 10))
	s.start = t.now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.end = t.now()
		t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// batchMembers counts the shapes in an outgoing batch body.
func batchMembers(req *http.Request) int {
	if req.GetBody == nil {
		return 0
	}
	rc, err := req.GetBody()
	if err != nil {
		return 0
	}
	defer rc.Close()
	b, _ := io.ReadAll(rc) // a short read only undercounts the members
	return bytes.Count(b, []byte(`"m":`))
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// layerStats summarizes one layer's spans: durations and self times (span
// duration minus the part of it its child spans cover), in microseconds.
type layerStats struct {
	Spans    int     `json:"spans"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	SelfP50  float64 `json:"self_p50_us"`
	SelfP99  float64 `json:"self_p99_us"`
	MeanSize float64 `json:"mean_members,omitempty"`
	dur      []float64
	self     []float64
}

// analyze groups spans by request id and computes per-layer duration and
// self-time distributions, plus the per-request time the client saw beyond
// the outermost server span (loopback and net/http: "unattributed").
func analyze(spans []span) (stats [numLayers]*layerStats, unattributed []float64) {
	for i := range stats {
		stats[i] = &layerStats{}
	}
	byID := map[uint64][]span{}
	for _, s := range spans {
		byID[s.id] = append(byID[s.id], s)
	}
	members := 0.0
	for _, group := range byID {
		sort.Slice(group, func(i, j int) bool { return group[i].start < group[j].start })
		for _, s := range group {
			d := layerDepth[s.layer]
			childDepth := -1
			for _, c := range group {
				if cd := layerDepth[c.layer]; cd > d && (childDepth < 0 || cd < childDepth) {
					childDepth = cd
				}
			}
			var children []span
			for _, c := range group {
				if layerDepth[c.layer] == childDepth {
					children = append(children, c)
				}
			}
			dur := float64(s.end-s.start) / 1e3
			self := dur - float64(covered(s, children))/1e3
			ls := stats[s.layer]
			ls.dur = append(ls.dur, dur)
			ls.self = append(ls.self, self)
			if s.layer == layerFlush {
				members += float64(s.count)
			}
			if s.layer == layerClient {
				var outer *span
				for k := range group {
					c := &group[k]
					if c.layer != layerClient && (outer == nil || layerDepth[c.layer] < layerDepth[outer.layer]) {
						outer = c
					}
				}
				if outer != nil {
					unattributed = append(unattributed, dur-float64(outer.end-outer.start)/1e3)
				}
			}
		}
	}
	for i, ls := range stats {
		ls.Spans = len(ls.dur)
		if ls.Spans == 0 {
			continue
		}
		ls.P50us, ls.P99us = pct(ls.dur, 0.5), pct(ls.dur, 0.99)
		ls.SelfP50, ls.SelfP99 = pct(ls.self, 0.5), pct(ls.self, 0.99)
		if i == layerFlush {
			ls.MeanSize = members / float64(ls.Spans)
		}
	}
	return stats, unattributed
}

// pct is quantile without the beyond count, on a sorted copy; 0 when
// there are no samples.
func pct(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	v, _ := quantile(c, q)
	return v
}

// covered is how much of parent's interval the union of children covers.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps spans as JSON lines: id, layer, start/end ns, members.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"layer":%q,"start_ns":%d,"end_ns":%d,"members":%d}`+"\n",
			s.id, layerNames[s.layer], s.start, s.end, s.count)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
