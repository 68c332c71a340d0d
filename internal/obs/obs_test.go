package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "H.", []float64{1, 2, 4}).With()
	for _, v := range []float64{0.5, 1, 3, 9} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 13.5 {
		t.Fatalf("count %d sum %v, want 4 and 13.5", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// le semantics: 1 lands in the le=1 bucket, 9 only in +Inf.
	for le, want := range map[string]float64{"1": 2, "2": 2, "4": 3, "+Inf": 4} {
		if got := p.Series[`h_bucket{le="`+le+`"}`]; got != want {
			t.Errorf("le=%s bucket %v, want %v", le, got, want)
		}
	}
}

// A page written by WriteText parses back to the same families, types, help
// texts and values, label escapes included.
func TestWriteParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("req_total", "Requests, by endpoint and code.", "endpoint", "code")
	r.Gauge("up", "Whether a \\ replica\nis up.", []string{"replica"}, func(emit Emit) {
		emit(1, `a"b`)
		emit(0.25, "c\\d\ne")
	})
	lat := r.Histogram("lat_seconds", "Latency.", []float64{0.001, 0.5}, "endpoint")
	r.Counter("bare_total", "No labels.").With().Add(1234567)

	sel := reqs.Codes("select")
	sel.For(200).Add(3)
	sel.For(429).Add(1)
	lat.With("select").Observe(0.0002)
	lat.With("select").Observe(2)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	p, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, page)
	}
	want := map[string]float64{
		`req_total{endpoint="select",code="200"}`:          3,
		`req_total{endpoint="select",code="429"}`:          1,
		`up{replica="a\"b"}`:                               1,
		`up{replica="c\\d\ne"}`:                            0.25,
		`lat_seconds_bucket{endpoint="select",le="0.001"}`: 1,
		`lat_seconds_bucket{endpoint="select",le="0.5"}`:   1,
		`lat_seconds_bucket{endpoint="select",le="+Inf"}`:  2,
		`lat_seconds_sum{endpoint="select"}`:               2.0002,
		`lat_seconds_count{endpoint="select"}`:             2,
		`bare_total`:                                       1234567,
	}
	if len(p.Series) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(p.Series), len(want), p.Series)
	}
	for k, v := range want {
		if got, ok := p.Series[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	if !strings.Contains(page, "bare_total 1234567\n") {
		t.Errorf("large counts should render as integers:\n%s", page)
	}
	up := p.Families["up"]
	if up == nil || up.Type != "gauge" || up.Help != "Whether a \\ replica\nis up." {
		t.Fatalf("up family = %+v", up)
	}
	if got := up.Samples[1].Label("replica"); got != "c\\d\ne" {
		t.Errorf("escaped label parsed as %q", got)
	}
}

func TestParseTextRejectsMisgroupedPages(t *testing.T) {
	for name, page := range map[string]string{
		"sample before declaration": "x_total 1\n",
		"second TYPE":               "# TYPE x_total counter\n# TYPE x_total counter\nx_total 1\n",
		"HELP after samples":        "# TYPE x_total counter\nx_total 1\n# HELP x_total X.\n",
		"family split":              "# TYPE x_total counter\nx_total{a=\"1\"} 1\n# TYPE y gauge\ny 1\n# TYPE x_total counter\n",
		"foreign sample":            "# TYPE x_total counter\ny_total 1\n",
		"counter with bucket":       "# TYPE x counter\nx_bucket{le=\"1\"} 1\n",
		"duplicate series":          "# TYPE x gauge\nx{a=\"1\"} 1\nx{a=\"1\"} 2\n",
		"unknown type":              "# TYPE x meter\n",
		"two types":                 "# TYPE x counter gauge\n",
		"bad value":                 "# TYPE x gauge\nx one\n",
		"unterminated label":        "# TYPE x gauge\nx{a=\"1} 1\n",
	} {
		if _, err := ParseText(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, page)
		}
	}
}

// Once a code has been seen, counting it is one atomic add: no lock, no
// allocation, the same counter every time.
func TestCodeCountersResolveOnce(t *testing.T) {
	c := NewRegistry().Counter("req_total", "R.", "endpoint", "code").Codes("select")
	first := c.For(502)
	if allocs := testing.AllocsPerRun(100, func() { c.For(502).Add(1) }); allocs != 0 {
		t.Errorf("counting a seen code allocates %.1f objects, want 0", allocs)
	}
	if c.For(502) != first || first.Load() != 101 {
		t.Errorf("code 502 resolved to a different counter or lost counts: %d", first.Load())
	}
}

// Concurrent resolution, counting and scraping agree: every increment lands
// in the one counter each code resolves to, and the histogram's +Inf bucket
// matches its count on a page written mid-traffic.
func TestConcurrentCountingAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "R.", "endpoint", "code").Codes("select")
	h := r.Histogram("v", "V.", []float64{1}).With()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.For(200 + w%2).Add(1)
				h.Observe(float64(i % 3))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if inf, n := p.Series[`v_bucket{le="+Inf"}`], p.Series["v_count"]; inf != n {
			t.Fatalf("+Inf bucket %v != count %v", inf, n)
		}
	}
	wg.Wait()
	if got := c.For(200).Load() + c.For(201).Load(); got != workers*per {
		t.Fatalf("counted %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("observed %d, want %d", got, workers*per)
	}
}
