// Package obs is the metrics registry both serving tiers share: atomic
// counters, fixed-bound histograms and scrape-time gauges, registered once
// per family with a name, help text, type and label names, and rendered by
// one Prometheus text writer. A set of label values resolves once to a
// *Counter or *Histogram, so a hot path holds the pointer and pays one
// atomic add per event, with no lock and no allocation.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic count. The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increases the count by n and returns the new count.
func (c *Counter) Add(n uint64) uint64 { return c.v.Add(n) }

// Load reads the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram counts observations into fixed upper bounds (le semantics, plus
// an implicit +Inf bucket) and keeps their exact float64 sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // one per bound, plus +Inf at the end
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// count moves last, so a reader that sees count == n also sees the
	// bucket and sum updates of those n observations.
	h.count.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of the observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Emit writes one gauge sample with its label values, in label-name order.
type Emit func(v float64, labelValues ...string)

type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64  // histograms
	collect         func(Emit) // gauges

	mu     sync.Mutex
	series map[string]*series // by label values joined with \xff
	order  []*series          // creation order, the order on the page
}

type series struct {
	values  []string
	counter *Counter
	hist    *Histogram
}

// with resolves (creating on first use) the series for one set of label
// values. It is the slow path: callers keep the result.
func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{values: append([]string(nil), values...)}
		if f.typ == "histogram" {
			s.hist = &Histogram{bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
		} else {
			s.counter = new(Counter)
		}
		f.series[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Registry holds metric families in registration order and serves their
// text exposition as an http.Handler.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f.series = make(map[string]*series)
	r.families = append(r.families, f)
	return f
}

// CounterVec is a counter family.
type CounterVec struct{ f *family }

// Counter registers a counter family. Counter names end in _total.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.add(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// With returns the counter for one set of label values, creating it (and so
// its series on the page) on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).counter }

// Codes returns the per-status-code counters of a family whose last label is
// an HTTP status code, with the leading label values fixed.
func (v *CounterVec) Codes(values ...string) *CodeCounters {
	return &CodeCounters{vec: v, values: values}
}

// CodeCounters resolves a status code to its counter without locking or
// allocating once that code has been seen. A code's series appears on the
// page with its first response.
type CodeCounters struct {
	vec    *CounterVec
	values []string
	byCode [1000]atomic.Pointer[Counter] // net/http allows codes 100-999
}

// For returns the counter for one status code.
func (c *CodeCounters) For(code int) *Counter {
	if p := c.byCode[code].Load(); p != nil {
		return p
	}
	p := c.vec.With(append(c.values[:len(c.values):len(c.values)], strconv.Itoa(code))...)
	c.byCode[code].Store(p) // With is idempotent, so racing stores agree
	return p
}

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// Histogram registers a histogram family over ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: " + name + " bounds are not ascending")
	}
	return &HistogramVec{r.add(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: bounds})}
}

// With returns the histogram for one set of label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).hist }

// Gauge registers a gauge family whose samples collect emits at scrape time,
// so a gauge reads live state instead of being kept up to date.
func (r *Registry) Gauge(name, help string, labels []string, collect func(Emit)) {
	r.add(&family{name: name, help: help, typ: "gauge", labels: labels, collect: collect})
}

// ContentType is the media type of the text exposition.
const ContentType = "text/plain; version=0.0.4"

// ServeHTTP writes the text exposition. A failed write means the scraper
// went away; there is no one left to tell.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_ = r.WriteText(w)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)

// WriteText writes the Prometheus text exposition of every family, in
// registration order: HELP and TYPE, then the samples: counter and histogram
// series in the order they were created, gauge samples in emit order.
// A histogram's _count is its +Inf bucket as read, so the two agree even
// under concurrent observations.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b []byte
	for _, f := range fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		if f.collect != nil {
			f.collect(func(v float64, values ...string) { b = appendSample(b, f.name, f.labels, values, v) })
			continue
		}
		f.mu.Lock()
		order := f.order
		f.mu.Unlock()
		for _, s := range order {
			if s.hist == nil {
				b = appendSample(b, f.name, f.labels, s.values, float64(s.counter.Load()))
				continue
			}
			labels := append(f.labels[:len(f.labels):len(f.labels)], "le")
			values := append(s.values[:len(s.values):len(s.values)], "+Inf") // le, set per bucket
			var cum uint64
			for i := range s.hist.buckets {
				cum += s.hist.buckets[i].Load()
				if i < len(f.bounds) {
					values[len(values)-1] = strconv.FormatFloat(f.bounds[i], 'g', -1, 64)
				} else {
					values[len(values)-1] = "+Inf"
				}
				b = appendSample(b, f.name+"_bucket", labels, values, float64(cum))
			}
			b = appendSample(b, f.name+"_sum", f.labels, s.values, s.hist.Sum())
			b = appendSample(b, f.name+"_count", f.labels, s.values, float64(cum))
		}
	}
	_, err := w.Write(b)
	return err
}

// appendSample writes one `name{label="value",...} value` line. Integral
// values render as integers, so counts stay readable past 1e6.
func appendSample(b []byte, name string, labels, values []string, v float64) []byte {
	b = append(b, name...)
	for i, l := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(append(b, l...), `="`...)
		b = append(append(b, labelEscaper.Replace(values[i])...), '"')
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}
