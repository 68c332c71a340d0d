package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/gemm"
)

// TestParseRetryAfter pins RFC 7231 Retry-After semantics: both delta-seconds
// and HTTP-date forms parse, measured against a fixed clock; zero, the past,
// and garbage are rejected so the router falls back to its default backoff.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"delta-seconds", "5", 5 * time.Second, true},
		{"delta-whitespace", "  12  ", 12 * time.Second, true},
		{"delta-large", "3600", time.Hour, true},
		{"delta-zero", "0", 0, false},
		{"delta-negative", "-3", 0, false},
		{"http-date-future", now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		{"http-date-far-future", now.Add(2 * time.Minute).Format(http.TimeFormat), 2 * time.Minute, true},
		{"http-date-past", now.Add(-time.Minute).Format(http.TimeFormat), 0, false},
		{"http-date-now", now.Format(http.TimeFormat), 0, false},
		{"rfc850-date", now.Add(45 * time.Second).Format(time.RFC850), 45 * time.Second, true},
		{"ansic-date", now.Add(20 * time.Second).Format(time.ANSIC), 20 * time.Second, true},
		{"empty", "", 0, false},
		{"whitespace-only", "   ", 0, false},
		{"garbage", "soon", 0, false},
		{"trailing-junk", "5 seconds", 0, false},
		{"mixed-digits", "5x", 0, false},
		{"float", "2.5", 0, false},
		{"delta-plus-sign", "+5", 0, false},
		{"delta-leading-zeros", "007", 7 * time.Second, true},
		{"delta-overflow", "10000000000", math.MaxInt64, true},
		{"delta-huge", "99999999999999999999999999", math.MaxInt64, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.v, now)
			if ok != tc.ok || got != tc.want {
				t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.v, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestRetryAfterOrDefault covers the header-level seam: parseable values win,
// anything else yields the default.
func TestRetryAfterOrDefault(t *testing.T) {
	def := 7 * time.Millisecond
	h := http.Header{}
	if got := retryAfterOrDefault(h, def); got != def {
		t.Errorf("missing header: %v, want default %v", got, def)
	}
	h.Set("Retry-After", "2")
	if got := retryAfterOrDefault(h, def); got != 2*time.Second {
		t.Errorf("delta-seconds header: %v, want 2s", got)
	}
	h.Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
	if got := retryAfterOrDefault(h, def); got < 8*time.Second || got > 10*time.Second {
		t.Errorf("HTTP-date header: %v, want ~10s", got)
	}
	h.Set("Retry-After", "nonsense")
	if got := retryAfterOrDefault(h, def); got != def {
		t.Errorf("garbage header: %v, want default %v", got, def)
	}
}

// FuzzParseRetryAfter: whatever a replica sends, an accepted Retry-After is a
// positive delay, so setBackoff always holds the replica out rather than
// wrapping to a negative (no-op) backoff; delta-seconds are at least 1s.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for _, seed := range []string{"5", "0", "-3", "+5", "10000000000", " 12 ", "2.5",
		now.Add(time.Minute).Format(http.TimeFormat), now.Add(-time.Minute).Format(http.TimeFormat)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := parseRetryAfter(v, now)
		if !ok {
			return
		}
		if d <= 0 {
			t.Fatalf("parseRetryAfter(%q) = (%v, true), want a positive delay", v, d)
		}
		if digits := strings.TrimSpace(v); strings.Trim(digits, "0123456789") == "" && d < time.Second {
			t.Fatalf("delta-seconds %q parsed to %v, under one second", v, d)
		}
	})
}

// A Retry-After too large for a Duration holds the replica out for exactly
// BackoffCap: it must neither wrap negative nor escape the cap.
func TestHugeRetryAfterBacksOffForCap(t *testing.T) {
	f := newTestFleet(t, 1, Options{HedgeDelay: -1, BackoffCap: 300 * time.Millisecond}, serveOptionsForTests(), nil)
	h := http.Header{}
	h.Set("Retry-After", "10000000000")
	before := time.Now()
	f.router.setBackoff(0, retryAfterOrDefault(h, time.Millisecond))
	until := time.Unix(0, f.router.backoffUntil[0].Load())
	if d := until.Sub(before); d < 300*time.Millisecond || d > 300*time.Millisecond+time.Second {
		t.Fatalf("backoff holds the replica out for %v, want the 300ms cap", d)
	}
}

// The pooled append-encoders must stay byte-identical to encoding/json — the
// replicas parse these bodies with strict decoders, and "fast" must never
// mean "different".
func TestAppendWireBodiesMatchStdlib(t *testing.T) {
	shapes := []gemm.Shape{{M: 784, K: 1152, N: 256}, {M: 1, K: 4096, N: 1000}, {M: 100352, K: 3, N: 64}}
	for _, device := range []string{"", "r9nano", "gfx803-es2"} {
		for _, s := range shapes {
			want, _ := json.Marshal(selectShape{M: s.M, K: s.K, N: s.N, Device: device})
			if got := appendSelectBody(nil, device, s); string(got) != string(want) {
				t.Errorf("appendSelectBody(%q, %v) = %s, want %s", device, s, got, want)
			}
		}
		wire := batchWire{Device: device, Shapes: make([]selectShape, len(shapes))}
		for i, s := range shapes {
			wire.Shapes[i] = selectShape{M: s.M, K: s.K, N: s.N}
		}
		want, _ := json.Marshal(wire)
		if got := appendBatchBody(nil, device, shapes); string(got) != string(want) {
			t.Errorf("appendBatchBody(%q) = %s, want %s", device, got, want)
		}
	}
	if plainJSONString("naïve") || plainJSONString(`quo"te`) || plainJSONString("html<>&") {
		t.Error("plainJSONString admitted a string the HTML-safe encoder would escape")
	}
	if !plainJSONString("r9nano") || !plainJSONString("") {
		t.Error("plainJSONString rejected a plain device name")
	}
}

// FuzzAppendWireBodies holds the upstream request encoders to encoding/json
// over fuzzed device names and shapes: whenever plainJSONString admits the
// device (the only case the encoders run), appendSelectBody and
// appendBatchBody render exactly what json.Marshal renders for selectShape
// and batchWire. Committed corpus: testdata/fuzz/FuzzAppendWireBodies.
func FuzzAppendWireBodies(f *testing.F) {
	f.Add("r9nano", 784, 1152, 256, 1, 4096, 1000)
	f.Add("", -1, 0, math.MaxInt64, math.MinInt64, 3, 64)
	f.Add("gfx803-es2", 100352, 3, 64, 7, 7, 7)
	f.Fuzz(func(t *testing.T, device string, m, k, n, m2, k2, n2 int) {
		if !plainJSONString(device) {
			return
		}
		a, b := gemm.Shape{M: m, K: k, N: n}, gemm.Shape{M: m2, K: k2, N: n2}
		want, err := json.Marshal(selectShape{M: m, K: k, N: n, Device: device})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendSelectBody(nil, device, a); !bytes.Equal(got, want) {
			t.Fatalf("appendSelectBody(%q, %v) = %s, want %s", device, a, got, want)
		}
		wire := batchWire{Device: device, Shapes: []selectShape{{M: m, K: k, N: n}, {M: m2, K: k2, N: n2}}}
		if want, err = json.Marshal(wire); err != nil {
			t.Fatal(err)
		}
		if got := appendBatchBody(nil, device, []gemm.Shape{a, b}); !bytes.Equal(got, want) {
			t.Fatalf("appendBatchBody(%q, %v, %v) = %s, want %s", device, a, b, got, want)
		}
	})
}
