package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// herdSelect fires n concurrent selects for one shape through the router and
// collects (status, decision) per request; goroutine-safe (no t.Fatal inside).
func herdSelect(t *testing.T, url string, shape gemm.Shape, n int) ([]int, []serve.Decision) {
	t.Helper()
	statuses := make([]int, n)
	decisions := make([]serve.Decision, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
			resp, err := http.Post(url+"/v1/select", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				errs[i] = json.NewDecoder(resp.Body).Decode(&decisions[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("herd request %d: %v", i, err)
		}
	}
	return statuses, decisions
}

// selectGate blocks a replica's first /v1/select until released, so a test
// can hold the solo dispatch in flight while a herd lines up behind it.
type selectGate struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	selects atomic.Int32
	batches atomic.Int32
}

func newSelectGate() *selectGate {
	return &selectGate{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *selectGate) wrap(idx int) func(int, http.Handler) http.Handler {
	return func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == idx {
				switch r.URL.Path {
				case "/v1/select":
					g.selects.Add(1)
					g.once.Do(func() { close(g.started) })
					<-g.release
				case "/v1/select/batch":
					g.batches.Add(1)
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// A herd of identical-shape misses arriving while the replica already has a
// router call in flight coalesces: one open window, one upstream batch call,
// single-flight joins counted, every waiter handed the same full-quality body.
func TestBatcherCoalescesHerd(t *testing.T) {
	gate := newSelectGate()
	f := newTestFleet(t, 1, Options{HedgeDelay: -1, BatchWindow: 150 * time.Millisecond},
		serveOptionsForTests(), gate.wrap(0))
	shape := fleetShapes[3]

	// The solo dispatch: inflight goes to 1 and its upstream select parks on
	// the gate.
	soloStatus := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
		resp, err := http.Post(f.rts.URL+"/v1/select", "application/json", bytes.NewReader(body))
		if err != nil {
			soloStatus <- -1
			return
		}
		resp.Body.Close()
		soloStatus <- resp.StatusCode
	}()
	<-gate.started

	const herd = 7
	statuses, decisions := herdSelect(t, f.rts.URL, shape, herd)
	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK || decisions[i].Degraded {
			t.Fatalf("herd request %d: status %d decision %+v", i, statuses[i], decisions[i])
		}
		if decisions[i].Index != decisions[0].Index || decisions[i].Config != decisions[0].Config {
			t.Fatalf("herd request %d decision %+v differs from %+v", i, decisions[i], decisions[0])
		}
	}
	close(gate.release)
	if status := <-soloStatus; status != http.StatusOK {
		t.Fatalf("solo request: status %d", status)
	}

	if got := gate.selects.Load(); got != 1 {
		t.Errorf("%d upstream selects, want 1 (the solo dispatch)", got)
	}
	if got := gate.batches.Load(); got != 1 {
		t.Errorf("%d upstream batch calls for the herd, want 1", got)
	}
	if got := f.router.metrics.coalesced.Load(); got != herd-1 {
		t.Errorf("coalesced %d, want %d (every herd member after the first joins the open call)", got, herd-1)
	}
}

// An isolated miss never waits out the window: with nothing in flight it
// dispatches solo through the retry/hedge ladder, so low-concurrency p50 is
// untouched by enabling the batcher.
func TestBatcherSoloBypassesWindow(t *testing.T) {
	gate := newSelectGate()
	close(gate.release) // gate open: count upstream calls, never block
	f := newTestFleet(t, 1, Options{HedgeDelay: -1, BatchWindow: 2 * time.Second},
		serveOptionsForTests(), gate.wrap(0))

	start := time.Now()
	status, d := routerSelect(t, f.rts.URL, fleetShapes[0])
	elapsed := time.Since(start)
	if status != http.StatusOK || d.Degraded {
		t.Fatalf("solo request: status %d decision %+v", status, d)
	}
	if elapsed >= f.router.opts.BatchWindow {
		t.Errorf("solo request took %v — it waited out the %v batch window", elapsed, f.router.opts.BatchWindow)
	}
	if got := gate.batches.Load(); got != 0 {
		t.Errorf("%d upstream batch calls for an isolated miss, want 0", got)
	}
	if got := f.router.metrics.batchSizes.Count(); got != 1 {
		t.Errorf("batch-size histogram count %d, want 1 (the solo dispatch observes size 1)", got)
	}
}

// A batch flush whose primary answers 5xx fails over along the candidate
// order like a single request would: the waiters get full-quality answers
// from the successor, and the saturated primary earns backoff, not a
// mark-down.
func TestBatchFlushFailsOver(t *testing.T) {
	gate := newSelectGate()
	var failBatch atomic.Int32
	failBatch.Store(-1)
	wrap := func(i int, h http.Handler) http.Handler {
		inner := gate.wrap(0)(i, h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if int32(i) == failBatch.Load() && r.URL.Path == "/v1/select/batch" {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	f := newTestFleet(t, 2, Options{HedgeDelay: -1, BatchWindow: 150 * time.Millisecond},
		serveOptionsForTests(), wrap)

	shape := shapeWithPrimary(t, f.router, "", 0)
	failBatch.Store(0)

	soloDone := make(chan struct{})
	go func() {
		defer close(soloDone)
		body, _ := json.Marshal(map[string]int{"m": shape.M, "k": shape.K, "n": shape.N})
		if resp, err := http.Post(f.rts.URL+"/v1/select", "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}()
	<-gate.started

	const herd = 4
	statuses, decisions := herdSelect(t, f.rts.URL, shape, herd)
	close(gate.release)
	<-soloDone
	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK || decisions[i].Degraded {
			t.Fatalf("herd request %d: status %d decision %+v (failover should stay full quality)", i, statuses[i], decisions[i])
		}
	}
	if wins := f.router.metrics.wins[1].Load(); wins == 0 {
		t.Error("successor replica won nothing — the flush did not fail over")
	}
	if errs := f.router.metrics.repErrors.Load(); errs == 0 {
		t.Error("the failed batch flush was not counted as a replica error")
	}
	if state := f.router.health.state(replicaName(0)); state != StateUp {
		t.Errorf("primary marked %q after a saturation 503, want up (backoff, not death)", state)
	}
	if f.router.backoffUntil[0].Load() == 0 {
		t.Error("saturated primary earned no backoff")
	}
}
