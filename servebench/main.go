// Command servebench is the serving benchmark: it hosts selectd replicas
// (and, for the fleet workload, a selectrouter) in-process on loopback
// listeners, built exactly as the commands build them from their flag
// defaults with the production analytical pricer, drives them from the
// same process with a seeded request stream, checks every answer against
// a correctness oracle, and prints its metrics. The end-to-end timings are
// taken relative to a bare-HTTP reference server measured in the same run,
// in segments alternating with the program's.
//
//	go build -o servebench . && ./servebench -workload hot-replica -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// openRate is each workload's open-loop offered rate in requests per
// second: about a tenth of the closed-loop capacity on a 2-core
// host, so the open-loop latencies measure the program and not a backlog.
var openRate = map[string]float64{wlHot: 1500, wlMiss: 1000, wlFleet: 500}

const (
	setupRuns   = 5                      // set-ups per run; setup_s is their median
	progSeg     = 2 * time.Second        // one cycle's program segment; a fleet reload lands in its middle
	refSeg      = time.Second            // one cycle's reference segment, before the program's
	warmSeg     = 500 * time.Millisecond // untimed closed loop on each server before the phases
	reloadFirst = time.Second            // first fleet reload, into each phase
	reloadEvery = 2 * time.Second        // fleet reload cadence within a phase
	replayPhase = 2 * time.Second        // one-replica router replay in traced replica runs
	heapEvery   = 10 * time.Millisecond  // heap sampling period
	qualityEach = 16                     // decision quality is priced on every 16th stream index
	maxErrShown = 5                      // oracle failures printed per run
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int // 0 or 1
	commit   string
	out      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the request stream and reload libraries derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds, split between the phases")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.commit, "commit", "none", "git commit of the measured source, for provenance")
	flag.StringVar(&cfg.out, "out", ".bench_build/servebench", "directory for result and trace artifacts")
	flag.Parse()
	if cfg.seconds < 6 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be >= 6 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts one run's operations: every select request and every
// reload call is attempted; failures are transport errors, non-200
// answers and oracle mismatches.
type tally struct {
	attempted, failed, degraded int
	errs                        []string
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < maxErrShown {
		t.errs = append(t.errs, msg)
	}
}

// bench is one run's state: the topology under test, its oracle, the
// generator, and the metrics gathered so far.
type bench struct {
	cfg       config
	host      hostInfo
	workers   int
	client    *http.Client // the generator's: at most workers connections
	ctl       *http.Client // scrapes, reloads, health: off the load path
	tr        *tracer      // nil in untraced runs
	f         *fleet
	o         *oracle
	st        *stream
	g         *gen
	ref       *gen        // load on the reference server
	refLn     *listener   // the bare-HTTP reference server
	rl        *reloader   // the fleet's reload schedule; nil on replica workloads
	reloaders []*reloader // every reloader used, for the tally
	warm      phaseResult // the program's warm-up: verified, not timed
	setups    []float64
	sts       []setupTimes
	out       map[string]metric
}

func (b *bench) set(name string, v float64, unit string) { b.out[name] = metric{Value: v, Unit: unit} }

func run(cfg config) error {
	if _, err := newStream(cfg.workload, cfg.seed, nil); err != nil {
		return err
	}
	b := &bench{cfg: cfg, host: readHost(cfg.commit), workers: runtime.NumCPU(), out: map[string]metric{}}
	b.client = newClient(b.workers)
	b.ctl = &http.Client{Timeout: 30 * time.Second}
	defer b.client.CloseIdleConnections()
	defer b.ctl.CloseIdleConnections()
	if cfg.trace == 1 {
		b.tr = newTracer()
	}
	if err := b.setUp(); err != nil {
		return err
	}
	defer b.f.close()
	defer b.refLn.close()
	defer b.ref.client.CloseIdleConnections()

	fmt.Printf("servebench %s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		b.host.CPU, b.host.NumCPU, b.host.GOMAXPROCS, b.host.GoVersion, b.host.Commit, b.host.SourceHash)
	fmt.Printf("phases: closed loop with %d callers; open loop at %.0f req/s over %d connections; %d set-ups\n",
		b.workers, openRate[cfg.workload], b.workers, setupRuns)

	if b.tr == nil {
		m := b.measure()
		b.warm.name = "warm-up"
		return b.report([]phaseResult{b.warm, merge("open", m.open), merge("closed", m.closed)}, &m)
	}
	phases, err := b.measureLayers()
	if err != nil {
		return err
	}
	return b.report(phases, nil)
}

// setUp builds the topology setupRuns times, timing each build, and keeps
// the last one up for measurement.
func (b *bench) setUp() error {
	fleetRun := b.cfg.workload == wlFleet
	nReplicas := 1
	if fleetRun {
		nReplicas = 3
	}
	for k := 0; k < setupRuns; k++ {
		o := newOracle()
		start := time.Now()
		f, st, err := buildFleet(nReplicas, fleetRun, b.cfg.seed, b.tr, o, b.ctl)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		b.sts = append(b.sts, st)
		if k < setupRuns-1 {
			f.close()
			continue
		}
		b.f, b.o = f, o
	}
	runtime.GC() // measure from a heap without the discarded set-ups
	b.st, _ = newStream(b.cfg.workload, b.cfg.seed, b.f.devices)
	b.g = &gen{client: b.client, url: b.f.entry + "/v1/select", st: b.st, clock: time.Now(), tr: b.tr, workers: b.workers}
	if fleetRun {
		b.rl = newReloader(b.f, b.o, b.ctl, b.g.clock)
		b.reloaders = append(b.reloaders, b.rl)
	}
	var err error
	if b.refLn, err = listen(referenceHandler()); err != nil {
		b.f.close()
		return err
	}
	b.ref = &gen{client: newClient(b.workers), url: b.refLn.url + "/v1/select", st: b.st, clock: b.g.clock, workers: b.workers, bare: true}
	return nil
}

// measured is an untraced run's segments, cycle by cycle: the program's
// and the reference server's, in each phase.
type measured struct {
	open, openRef     []phaseResult
	closed, closedRef []phaseResult
	peakMB            float64
}

// measure runs the untraced phases after an untimed warm-up of each
// server: an open loop for half the measured seconds, then a closed loop
// for the rest, each as cycles of a reference segment and a program
// segment. It also takes the peak heap of the open loop, whose work is fixed
// (rate × seconds requests of the seeded stream), so the peak does not
// grow with throughput.
func (b *bench) measure() measured {
	ctx := context.Background()
	n := int(time.Duration(b.cfg.seconds) * time.Second / (progSeg + refSeg))
	nOpen := (n + 1) / 2
	rate := openRate[b.cfg.workload]
	b.ref.closedLoop(ctx, warmSeg)
	b.warm = withReloads(b.rl, warmSeg, func() phaseResult { return b.g.closedLoop(ctx, warmSeg) })
	var m measured
	heap := startHeapSampler()
	m.open, m.openRef = b.alternate(nOpen, func(g *gen, d time.Duration) phaseResult { return g.openLoop(ctx, rate, d) })
	m.peakMB = heap()
	m.closed, m.closedRef = b.alternate(n-nOpen, func(g *gen, d time.Duration) phaseResult { return g.closedLoop(ctx, d) })
	return m
}

// alternate runs n cycles of one phase: a refSeg segment on the reference
// server, then a progSeg segment on the program, with a fleet reload in
// its middle.
func (b *bench) alternate(n int, run func(g *gen, d time.Duration) phaseResult) (prog, ref []phaseResult) {
	for k := 0; k < n; k++ {
		ref = append(ref, run(b.ref, refSeg))
		prog = append(prog, withReloads(b.rl, progSeg, func() phaseResult { return run(b.g, progSeg) }))
	}
	return prog, ref
}

// correct reports whether a record is an oracle-correct answer.
func (b *bench) correct(r record) bool { return checkRecord(b.o, b.st, r) == nil }

// measureLayers runs the traced phases, each a third of the measured
// seconds: an untraced closed loop (the base of the tracing overhead and
// the window of the runtime counters), a traced closed loop and a
// traced open loop. Handler, upstream and unattributed percentiles come
// from the traced open loop; counters from /metrics deltas over the traced
// phases. Then each layer's public function is replayed on the workload's
// inputs.
func (b *bench) measureLayers() ([]phaseResult, error) {
	ctx := context.Background()
	d := time.Duration(b.cfg.seconds) * time.Second / 3
	tr, g, f := b.tr, b.g, b.f
	urls := f.replicaURLs()
	if f.rln != nil {
		urls = append(urls, f.rln.url)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced := withReloads(b.rl, d, func() phaseResult { return g.closedLoop(ctx, d) })
	runtime.ReadMemStats(&ms1)
	untraced.name = "untraced"
	p1, err := scrapeAll(b.ctl, urls)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	closed := withReloads(b.rl, d, func() phaseResult { return g.closedLoop(ctx, d) })
	closedSpans := tr.take()
	open := withReloads(b.rl, d, func() phaseResult { return g.openLoop(ctx, openRate[b.cfg.workload], d) })
	openSpans := tr.take()
	tr.on.Store(false)
	p2, err := scrapeAll(b.ctl, urls)
	if err != nil {
		return nil, err
	}
	phases := []phaseResult{untraced, closed, open}

	b.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(untraced.records)), "allocs/op")
	b.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	b.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	b.set("runtime.cpu_us_per_op", float64(untraced.cpu.Microseconds())/float64(len(untraced.records)), "us/op")
	_, base := closedRates([]phaseResult{untraced}, b.correct)
	_, traced := closedRates([]phaseResult{closed}, b.correct)
	b.set("gen.untraced.throughput_rps", base, "req/s")
	b.set("trace.overhead_pct", 100*(base-traced)/base, "%")

	layers, unattributed := analyze(openSpans)
	b.set("serve.handler_p50_us", layers[layerReplica].P50us, "us")
	b.set("serve.handler_p99_us", layers[layerReplica].P99us, "us")
	b.set("net.unattributed_p50_us", median(unattributed), "us")
	hits, misses := delta(p1, p2, "selectd_cache_hits_total"), delta(p1, p2, "selectd_cache_misses_total")
	b.set("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	b.set("serve.coalesced", delta(p1, p2, "selectd_singleflight_coalesced_total"), "count")
	b.set("serve.shed", delta(p1, p2, "selectd_shed_total"), "count")
	b.set("serve.degraded", delta(p1, p2, "selectd_degraded_total"), "count")

	clusterSpans, q0, q1, crl := openSpans, p1, p2, b.rl
	prime := median(field(b.sts, func(s setupTimes) float64 { return s.prime.Seconds() }))
	if b.rl == nil {
		// A replica workload has no router; the cluster rows replay the
		// workload's own stream through a one-replica router with
		// selectrouter's defaults, for half the replay before one reload
		// through it and half after. The reload runs with no request in
		// flight: while the only replica warms, the router answers from
		// its local fallback engine, which hosts r9nano alone, so every
		// gen9 request would get a 400.
		var rst setupTimes
		if err := f.addRouter(b.cfg.seed, tr, b.ctl, &rst); err != nil {
			return nil, fmt.Errorf("router replay: %w", err)
		}
		prime = rst.prime.Seconds()
		crl = newReloader(f, b.o, b.ctl, g.clock)
		b.reloaders = append(b.reloaders, crl)
		rg := &gen{client: b.client, url: f.entry + "/v1/select", st: b.st, clock: g.clock, tr: tr, workers: b.workers}
		rg.cursor.Store(g.cursor.Load())
		if q0, err = scrape(b.ctl, f.rln.url); err != nil {
			return nil, err
		}
		for half := 0; half < 2; half++ {
			if half == 1 {
				if err := crl.reloadOnce(); err != nil {
					crl.errs = append(crl.errs, err.Error())
				}
			}
			tr.on.Store(true)
			replay := rg.closedLoop(ctx, replayPhase/2)
			tr.on.Store(false)
			replay.name = "replay"
			phases = append(phases, replay)
		}
		clusterSpans = tr.take()
		if q1, err = scrape(b.ctl, f.rln.url); err != nil {
			return nil, err
		}
		g.cursor.Store(rg.cursor.Load())
	}
	cl, _ := analyze(clusterSpans)
	b.set("cluster.handler_p50_us", cl[layerRouter].P50us, "us")
	b.set("cluster.handler_p99_us", cl[layerRouter].P99us, "us")
	up := append(append([]float64(nil), cl[layerUpstream].dur...), cl[layerFlush].dur...)
	b.set("cluster.upstream_rtt_p50_us", pct(up, 0.5), "us")
	b.set("cluster.upstream_rtt_p99_us", pct(up, 0.99), "us")
	eh, em := delta(q0, q1, "selectrouter_cache_hits_total"), delta(q0, q1, "selectrouter_cache_misses_total")
	b.set("cluster.edge_hit_ratio", ratio(eh, eh+em), "ratio")
	b.set("cluster.upstream_calls", delta(q0, q1, "selectrouter_batchsize_count"), "count")
	b.set("cluster.reqs_per_upstream", ratio(delta(q0, q1, "selectrouter_batchsize_sum"), delta(q0, q1, "selectrouter_batchsize_count")), "req/call")
	b.set("cluster.retries", delta(q0, q1, "router_retries_total"), "count")
	hedges := delta(q0, q1, "router_hedges_total")
	b.set("cluster.hedges", hedges, "count")
	b.set("cluster.hedge_useful_ratio", ratio(delta(q0, q1, "router_hedge_wins_total"), hedges), "ratio")
	b.set("cluster.replica_errors", delta(q0, q1, "router_replica_errors_total"), "count")
	b.set("cluster.fallbacks", delta(q0, q1, "router_fallback_total"), "count")
	b.set("cluster.edge_invalidations", sum(crl.inval), "count")
	b.set("cluster.reloads_without_invalidation", float64(countZero(crl.inval)), "count")
	b.set("cluster.reload_s", median(crl.durs), "s")
	b.set("cluster.warmed_shapes", crl.warmed, "count")
	b.set("cluster.prime_s", prime, "s")

	b.set("dataset.build_s", median(field(b.sts, func(s setupTimes) float64 { return s.datasetBuild.Seconds() })), "s")
	b.set("core.build_library_s", median(field(b.sts, func(s setupTimes) float64 { return s.libraryBuild.Seconds() })), "s")
	b.set("serve.warm_s", median(field(b.sts, func(s setupTimes) float64 { return s.warm.Seconds() })), "s")

	replays, err := replayLayers(b.st, g.cursor.Add(4*replayItems)-4*replayItems, f.replicas[0].devs, g.kept)
	if err != nil {
		return nil, err
	}
	for k, v := range replays {
		b.set(k, v, "ns")
	}
	spans := append(append([]span(nil), closedSpans...), openSpans...)
	if b.rl == nil {
		spans = append(spans, clusterSpans...) // the router replay's
	}
	return phases, writeTraceArtifacts(b.cfg, b.host, spans, closedSpans, openSpans)
}

// report verifies every answer, prices the decision quality (both outside
// the timed phases), and prints the report and the result line. m holds an
// untraced run's segments; it is nil for a traced run.
func (b *bench) report(phases []phaseResult, m *measured) error {
	var tal tally
	var open phaseResult
	for _, p := range phases {
		sent := len(p.records)
		ok, failed := verify(b.o, b.st, p, &tal)
		fmt.Printf("phase %-9s sent=%d ok=%d failed=%d elapsed=%.3fs\n", p.name, sent, ok, failed, p.elapsed.Seconds())
		if b.tr != nil && p.name != "replay" {
			b.set("gen."+p.name+".sent", float64(sent), "count")
			b.set("gen."+p.name+".ok", float64(ok), "count")
			b.set("gen."+p.name+".failed", float64(failed), "count")
		}
		if p.name == "open" {
			open = p
		}
	}
	for _, r := range b.reloaders {
		tal.attempted += r.count
		for _, e := range r.errs {
			tal.fail(e)
		}
	}
	segs := []phaseResult{open}
	if m != nil {
		segs = m.open
	}
	lat, err := openLatency(segs)
	if err != nil {
		return err
	}
	printLatency("open loop", lat, len(segs))
	fmt.Printf("generator lateness: wake-up error p99 %.1f us; %d sends (%.2f%%) waited for a busy connection, p99 wait %.1f us\n",
		lat.lateP99, lat.queued, 100*ratio(float64(lat.queued), float64(lat.N)), lat.queuedP99)

	if m == nil {
		b.set("gen.lateness_p99_us", lat.lateP99, "us")
		b.set("gen.open.latency_p99_us", lat.P99, "us")
	} else {
		if err := b.reportRelative(m, lat); err != nil {
			return err
		}
		b.set("setup_s", median(b.setups), "s")
		b.set("success_rate", 1-ratio(float64(tal.failed), float64(tal.attempted)), "ratio")
		b.set("full_quality_rate", 1-ratio(float64(tal.degraded), float64(tal.attempted)), "ratio")
		b.set("decision_geomean", quality(b.f.devices, b.st, phases), "ratio")
		b.set("heap_peak_mb", m.peakMB, "MiB")
	}
	fmt.Printf("error_rate = %.6f ratio (%d of %d attempted)\n", ratio(float64(tal.failed), float64(tal.attempted)), tal.failed, tal.attempted)
	fmt.Printf("degraded_rate = %.6f ratio (%d answers)\n", ratio(float64(tal.degraded), float64(tal.attempted)), tal.degraded)
	for _, e := range tal.errs {
		fmt.Printf("failure: %s\n", e)
	}
	names := make([]string, 0, len(b.out))
	for k := range b.out {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, b.out[k].Value, b.out[k].Unit)
	}

	res := result{Correct: tal.failed == 0, Attempted: tal.attempted, Failed: tal.failed, Metrics: b.out}
	if err := writeResult(b.cfg, b.host, res); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reportRelative sets the timings of an untraced run: the program's
// closed-loop CPU time per decision and open-loop median latency, each
// relative to the reference server's in the same run, and prints both
// sides' absolute figures and throughputs. It fails the run if the reference failed a request, since the
// ratios would then not compare like with like.
func (b *bench) reportRelative(m *measured, lat openSummary) error {
	served := func(r record) bool { return r.out == outOK }
	for _, segs := range [][]phaseResult{m.openRef, m.closedRef} {
		for _, p := range segs {
			for _, r := range p.records {
				if !served(r) {
					return fmt.Errorf("reference server: request %d failed (status %d)", r.i, r.status)
				}
			}
		}
	}
	refLat, err := openLatency(m.openRef)
	printLatency("reference open loop", refLat, len(m.openRef))
	if err != nil { // only its p50 is used
		fmt.Printf("reference %v\n", err)
	}
	progSegs, prog := closedRates(m.closed, b.correct)
	refSegs, ref := closedRates(m.closedRef, served)
	fmt.Printf("closed-loop segment rates: program %s req/s; reference %s req/s\n", fmtList(progSegs), fmtList(refSegs))
	fmt.Printf("program: throughput %.0f req/s, p50 %.1f us, p99 %.1f us; reference: throughput %.0f req/s, p50 %.1f us, p99 %.1f us\n",
		prog, lat.P50, lat.P99, ref, refLat.P50, refLat.P99)
	progCPU, refCPU := cpuPerAnswer(m.closed, b.correct), cpuPerAnswer(m.closedRef, served)
	fmt.Printf("closed-loop cpu: program %.1f us/answer, reference %.1f us/answer; throughput relative to the reference %.4f\n",
		progCPU, refCPU, prog/ref)
	b.set("cpu_per_decision_vs_bare_http", progCPU/refCPU, "ratio")
	b.set("latency_p50_vs_bare_http", lat.P50/refLat.P50, "ratio")
	return nil
}

func printLatency(what string, s openSummary, segs int) {
	fmt.Printf("%s: %d samples in %d segments, %d beyond the p99; segment p99s %s us\n", what, s.N, segs, s.Beyond, fmtList(s.segP99))
}

// cpuPerAnswer is the process's CPU time over the segments per answer
// that passes ok, in us.
func cpuPerAnswer(segs []phaseResult, ok func(record) bool) float64 {
	var cpu time.Duration
	n := 0
	for _, p := range segs {
		cpu += p.cpu
		for _, r := range p.records {
			if ok(r) {
				n++
			}
		}
	}
	return float64(cpu.Microseconds()) / float64(n)
}

// merge concatenates a phase's segments for verification.
func merge(name string, segs []phaseResult) phaseResult {
	p := phaseResult{name: name}
	for _, s := range segs {
		p.records = append(p.records, s.records...)
		p.elapsed += s.elapsed
	}
	return p
}

// writeTraceArtifacts writes the span dump and the per-layer summary of
// the traced closed and open loops.
func writeTraceArtifacts(cfg config, host hostInfo, spans, closedSpans, openSpans []span) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(cfg.out, cfg.workload+".spans.jsonl"), spans); err != nil {
		return err
	}
	closedLayers, _ := analyze(closedSpans)
	openLayers, _ := analyze(openSpans)
	return writeJSON(filepath.Join(cfg.out, cfg.workload+".layers.json"), map[string]any{
		"host": host, "workload": cfg.workload, "seed": cfg.seed,
		"layers_closed_loop": namedLayers(closedLayers), "layers_open_loop": namedLayers(openLayers),
	})
}

func namedLayers(ls [numLayers]*layerStats) map[string]*layerStats {
	m := map[string]*layerStats{}
	for i, s := range ls {
		if s.Spans > 0 {
			m[layerNames[i]] = s
		}
	}
	return m
}

// writeResult records the result with its provenance.
func writeResult(cfg config, host hostInfo, res result) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace == 1 {
		mode = "trace"
	}
	return writeJSON(filepath.Join(cfg.out, fmt.Sprintf("%s.%s.json", cfg.workload, mode)), map[string]any{
		"host": host, "workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"open_rate": openRate[cfg.workload], "program_segment_seconds": progSeg.Seconds(), "reference_segment_seconds": refSeg.Seconds(), "result": res,
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.0f", x)
	}
	return strings.Join(parts, " ")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func countZero(v []float64) int {
	n := 0
	for _, x := range v {
		if x == 0 {
			n++
		}
	}
	return n
}

func field(sts []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(sts))
	for i, s := range sts {
		out[i] = f(s)
	}
	return out
}
