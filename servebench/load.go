package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
)

// newClient is the generator's HTTP client: at most conns connections to
// any one server, never more.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// post sends one select body and decodes the answer with encoding/json.
func post(ctx context.Context, client *http.Client, url string, body []byte) (serve.Decision, int, error) {
	var d serve.Decision
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return d, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id, ok := ctx.Value(traceKey{}).(uint64); ok {
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return d, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return d, resp.StatusCode, fmt.Errorf("reading answer: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, resp.StatusCode, nil
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, resp.StatusCode, fmt.Errorf("decoding answer: %w", err)
	}
	return d, resp.StatusCode, nil
}

// allConfigs is the 640-configuration universe; configID maps a Decision's
// config string to its index there.
var (
	allConfigs = gemm.AllConfigs()
	configID   = func() map[string]int16 {
		m := make(map[string]int16, len(allConfigs))
		for i, c := range allConfigs {
			m[c.String()] = int16(i)
		}
		return m
	}()
)

// outcome classifies one request.
type outcome uint8

const (
	outOK        outcome = iota
	outTransport         // no HTTP response
	outStatus            // a response other than 200
	outMismatch          // 200 whose body does not answer the request
)

// record is one request's result, kept compact: decoded answers are
// checked against the oracle after the phase, outside the timed loop.
type record struct {
	i        uint64 // stream index
	sent     int64  // send-clock ns: when the request was sent (closed) or due (open)
	lat      int64  // ns from sent to answer decoded
	late     int64  // open loop: ns the send started after its due time
	queued   bool   // open loop: every connection was busy at the due time
	gen      uint64
	index    int32
	config   int16 // index into allConfigs
	status   int16 // HTTP status, 0 without a response
	out      outcome
	degraded bool
}

// phaseResult is one phase's records and counts.
type phaseResult struct {
	name    string
	records []record
	elapsed time.Duration
	cpu     time.Duration // closed loop: the process's user and system CPU time over the phase
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an unknown who or a bad pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gen is a load generator over one stream against one server's
// /v1/select.
type gen struct {
	client  *http.Client
	url     string // the entry server's /v1/select
	st      *stream
	cursor  atomic.Uint64 // next stream index, shared across phases
	clock   time.Time     // send-clock origin, shared with the oracle
	tr      *tracer       // nil in untraced runs
	workers int
	bare    bool // the reference server: every answer is its fixed body

	// kept holds the first decoded decisions, up to keepDecisions, for the
	// encode replay.
	keptMu sync.Mutex
	kept   []serve.Decision
}

const keepDecisions = 2048

// one sends stream request i and fills rec.
func (g *gen) one(ctx context.Context, i uint64, buf, shapeBuf []byte, rec *record) ([]byte, []byte) {
	req := g.st.at(i)
	dev := g.st.devices[req.dev]
	buf = appendBody(buf[:0], req.shape, dev)
	var id uint64
	var spanStart int64
	if g.tr != nil && g.tr.on.Load() {
		id = g.tr.nextID.Add(1)
		ctx = context.WithValue(ctx, traceKey{}, id)
		spanStart = g.tr.now()
	}
	d, status, err := post(ctx, g.client, g.url, buf)
	if id != 0 {
		g.tr.add(span{id: id, layer: layerClient, start: spanStart, end: g.tr.now()})
	}
	rec.i, rec.status = i, int16(status)
	switch {
	case err != nil && status == 0:
		rec.out = outTransport
	case status != http.StatusOK:
		rec.out = outStatus
	case err != nil:
		rec.out = outMismatch
	case g.bare:
	default:
		shapeBuf = appendShape(shapeBuf[:0], req.shape)
		cfg, known := configID[d.Config]
		if d.Device != dev || d.Shape != string(shapeBuf) || !known {
			rec.out = outMismatch
		}
		rec.gen, rec.index, rec.config, rec.degraded = d.Generation, int32(d.Index), cfg, d.Degraded
		g.keptMu.Lock()
		if len(g.kept) < keepDecisions {
			g.kept = append(g.kept, d)
		}
		g.keptMu.Unlock()
	}
	return buf, shapeBuf
}

// closedLoop runs workers callers, each sending its next request only after
// the previous answer is decoded, for d.
func (g *gen) closedLoop(ctx context.Context, d time.Duration) phaseResult {
	per := make([][]record, g.workers)
	cpu0 := cpuTime()
	start := time.Now()
	stopAt := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf, shapeBuf []byte
			recs := make([]record, 0, 1<<14)
			for {
				now := time.Now()
				if !now.Before(stopAt) {
					break
				}
				rec := record{sent: int64(now.Sub(g.clock))}
				buf, shapeBuf = g.one(ctx, g.cursor.Add(1)-1, buf, shapeBuf, &rec)
				rec.lat = int64(time.Since(g.clock)) - rec.sent
				recs = append(recs, rec)
			}
			per[w] = recs
		}(w)
	}
	wg.Wait()
	return phaseResult{name: "closed", records: flatten(per), elapsed: time.Since(start), cpu: cpuTime() - cpu0}
}

// openLoop offers rate requests per second for d on a fixed schedule. The
// workers take the next due request, wait for its due time if early, and
// time it from the due time, so a stall also charges the requests queued
// behind it. late records how far behind the schedule each send started,
// and queued whether that was because the worker was still busy with an
// earlier request at the due time (a wait the server caused) rather than
// the generator's own wake-up error.
func (g *gen) openLoop(ctx context.Context, rate float64, d time.Duration) phaseResult {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	per := make([][]record, g.workers)
	start := time.Now().Add(time.Millisecond)
	base := g.cursor.Add(uint64(n)) - uint64(n) // the phase's block of the stream
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf, shapeBuf []byte
			recs := make([]record, 0, n/g.workers+16)
			for {
				k := next.Add(1) - 1
				if k >= int64(n) {
					break
				}
				due := start.Add(time.Duration(k) * interval)
				rec := record{sent: int64(due.Sub(g.clock)), queued: !time.Now().Before(due)}
				sleepUntil(due)
				rec.late = int64(time.Since(due))
				buf, shapeBuf = g.one(ctx, base+uint64(k), buf, shapeBuf, &rec)
				rec.lat = int64(time.Since(g.clock)) - rec.sent
				recs = append(recs, rec)
			}
			per[w] = recs
		}(w)
	}
	wg.Wait()
	return phaseResult{name: "open", records: flatten(per), elapsed: time.Since(start)}
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// scheduler wakes sleeping goroutines with millisecond granularity when
// every P is idle, which would put the generator a millisecond behind its
// schedule; a thread asleep in the kernel wakes within the kernel's timer
// slack, and its P serves other goroutines meanwhile.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the send early
	}
}

func flatten(per [][]record) []record {
	n := 0
	for _, p := range per {
		n += len(p)
	}
	out := make([]record, 0, n)
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
