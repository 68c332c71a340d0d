package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// postRaw posts one body and returns the raw response.
func postRaw(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func selectBody(shape gemm.Shape) []byte {
	b, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
	return b
}

// coalescedSelect sends one select the micro-batcher must coalesce: the
// shape's primary is made to look busy, so the miss opens a window and is
// answered by the window's flush instead of a solo dispatch.
func coalescedSelect(t *testing.T, f *testFleet, shape gemm.Shape) (int, http.Header, []byte) {
	t.Helper()
	b := &f.router.batchers[f.router.ring.candidates("", shape)[0]]
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	return postRaw(t, f.rts.URL+"/v1/select", selectBody(shape))
}

// A router batch for a device no replica serves is the replica's 400, passed
// through with its body, not a 200 of zero-value decisions — and a refusal
// is not a replica error.
func TestRouterBatchUnknownDevice400(t *testing.T) {
	f := newTestFleet(t, 2, Options{HedgeDelay: -1}, serveOptionsForTests(), nil)
	body := []byte(`{"device":"nope","shapes":[{"m":784,"k":1152,"n":256},{"m":1,"k":4096,"n":1000}]}`)
	status, _, got := postRaw(t, f.rts.URL+"/v1/select/batch", body)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown-device batch: status %d body %s, want 400", status, got)
	}
	_, _, want := postRaw(t, f.reps[0].URL+"/v1/select/batch", body)
	if !bytes.Equal(got, want) {
		t.Errorf("router body %q, want the replica's %q", got, want)
	}
	if errs := f.router.metrics.repErrors.Load(); errs != 0 {
		t.Errorf("%d replica errors for a refused batch, want 0", errs)
	}
}

// A shed replica's 429 reaches the client with the replica's Retry-After.
func TestRouterSelect429ForwardsRetryAfter(t *testing.T) {
	shed := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/select" {
				w.Header().Set("Retry-After", "3")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(`{"error":"backend overloaded"}` + "\n"))
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 1, Options{HedgeDelay: -1}, serveOptionsForTests(), shed)
	status, hdr, body := postRaw(t, f.rts.URL+"/v1/select", selectBody(fleetShapes[3]))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d body %s, want 429", status, body)
	}
	if got := hdr.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After %q, want %q", got, "3")
	}
	if want := `{"error":"backend overloaded"}` + "\n"; string(body) != want {
		t.Errorf("body %q, want %q", body, want)
	}
}

// A coalesced flush whose primary answers 503 with Retry-After: 1 backs the
// primary off for that second (under the 1s cap), not for RetryBackoff.
func TestBatchFlushBackoffHonoursRetryAfter(t *testing.T) {
	primary := -1
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == primary && r.URL.Path == "/v1/select/batch" {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 2, Options{HedgeDelay: -1, BatchWindow: 5 * time.Millisecond},
		serveOptionsForTests(), wrap)
	shape := shapeWithPrimary(t, f.router, "", 0)
	primary = 0

	before := time.Now()
	status, _, body := coalescedSelect(t, f, shape)
	var d serve.Decision
	if err := json.Unmarshal(body, &d); status != http.StatusOK || err != nil || d.Degraded {
		t.Fatalf("status %d body %s: want a full-quality 200 from the successor", status, body)
	}
	if held := time.Unix(0, f.router.backoffUntil[0].Load()).Sub(before); held < 900*time.Millisecond {
		t.Errorf("primary backed off for %v after Retry-After: 1, want at least 900ms", held)
	}
}

// A slow primary on a coalesced flush is hedged like a solo select: one
// hedge, one hedge win, exactly one replica win, well before the primary
// would have answered.
func TestHedgedFlushCountedOnce(t *testing.T) {
	const primaryDelay = 2 * time.Second
	slow := -1
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == slow && r.URL.Path == "/v1/select/batch" {
				// Drain the body first: the server only watches for client
				// disconnect (and cancels r.Context) once it is consumed.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				select {
				case <-r.Context().Done():
					return
				case <-time.After(primaryDelay):
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 2, Options{HedgeDelay: 10 * time.Millisecond, BatchWindow: 5 * time.Millisecond},
		serveOptionsForTests(), wrap)
	shape := shapeWithPrimary(t, f.router, "", 0)
	slow = 0

	start := time.Now()
	status, _, body := coalescedSelect(t, f, shape)
	if status != http.StatusOK || strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("hedged flush: status %d body %s", status, body)
	}
	if elapsed := time.Since(start); elapsed >= primaryDelay {
		t.Fatalf("flush took %v — the hedge did not win over the slow primary", elapsed)
	}
	m := f.router.metrics
	if got := m.hedges.Load(); got != 1 {
		t.Errorf("hedges %d, want 1", got)
	}
	if got := m.hedgeWins.Load(); got != 1 {
		t.Errorf("hedge wins %d, want 1", got)
	}
	if got := m.wins[0].Load() + m.wins[1].Load(); got != 1 || m.wins[1].Load() != 1 {
		t.Errorf("wins %d/%d, want exactly one, on the hedge target", m.wins[0].Load(), m.wins[1].Load())
	}
	if got := m.batchSizes.Count(); got != 1 {
		t.Errorf("%d upstream dispatches observed, want the one flush", got)
	}
}

// Every body the router renders or passes through for a decision is exactly
// what encoding/json renders for the same Decision, plus the Encode newline:
// a solo miss, a coalesced select, a router batch and the all-down fallback,
// over every fleet shape.
func TestRouterBodiesMatchStdlib(t *testing.T) {
	f := newTestFleet(t, 2, Options{HedgeDelay: -1, BatchWindow: 5 * time.Millisecond},
		serveOptionsForTests(), nil)
	matches := func(what string, body []byte) {
		t.Helper()
		var d serve.Decision
		if err := json.Unmarshal(body, &d); err != nil {
			t.Fatalf("%s: %v (%s)", what, err, body)
		}
		want, _ := json.Marshal(d)
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Errorf("%s:\n router: %q\n stdlib: %q", what, body, want)
		}
	}
	batch := struct {
		Shapes []map[string]int `json:"shapes"`
	}{}
	for _, shape := range fleetShapes {
		batch.Shapes = append(batch.Shapes, map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
	}
	batchBody, _ := json.Marshal(batch)
	batchMatches := func(what string) {
		t.Helper()
		status, _, body := postRaw(t, f.rts.URL+"/v1/select/batch", batchBody)
		var got struct {
			Results []serve.Decision `json:"results"`
		}
		if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil || len(got.Results) != len(fleetShapes) {
			t.Fatalf("%s: status %d err %v body %s", what, status, err, body)
		}
		want, _ := json.Marshal(got)
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Errorf("%s:\n router: %q\n stdlib: %q", what, body, want)
		}
	}

	for _, shape := range fleetShapes {
		status, _, body := postRaw(t, f.rts.URL+"/v1/select", selectBody(shape))
		if status != http.StatusOK {
			t.Fatalf("solo %v: status %d", shape, status)
		}
		matches("solo "+shape.String(), body)
		if status, _, body = coalescedSelect(t, f, shape); status != http.StatusOK {
			t.Fatalf("coalesced %v: status %d", shape, status)
		}
		matches("coalesced "+shape.String(), body)
	}
	batchMatches("batch")
	if got := f.router.metrics.coalesced.Load(); got != 0 {
		t.Errorf("coalesced joins %d, want 0 (one waiter per window)", got)
	}

	for i := range f.srvs {
		f.router.MarkDown(replicaName(i))
	}
	for _, shape := range fleetShapes {
		status, _, body := postRaw(t, f.rts.URL+"/v1/select", selectBody(shape))
		if status != http.StatusOK || !strings.Contains(string(body), `"replica_down"`) {
			t.Fatalf("fallback %v: status %d body %s", shape, status, body)
		}
		matches("fallback "+shape.String(), body)
	}
	batchMatches("batch fallback")
}
