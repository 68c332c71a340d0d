// Command selectrouter fronts a fleet of selectd replicas with
// failure-domain routing: requests hash onto a consistent ring keyed on
// (device, shape-bucket), so each replica owns a stable shard of the shape
// space and keeps a hot decision cache for it. The router retries across the
// ring's successor order with bounded backoff, launches one cross-shard
// hedged attempt when the primary is slow (-hedge-delay), and — when every
// candidate is down — answers degraded from a router-local engine trained
// in-process, so a priceable shape never sees a 5xx. A select, a coalesced
// flush and each shard group of a batch all ride that one ladder; a replica
// answer below 500 is final and passes through with its Retry-After.
//
// In front of the routing ladder sits the fast path: a generation-aware edge
// cache (-edge-cache) answers repeat (device, shape) requests from
// pre-rendered bodies with zero allocations, invalidated the moment the
// gossiped view reports a generation bump for the owning replica, and an
// adaptive micro-batcher (-batch-window) coalesces concurrent misses bound
// for the same replica into one upstream /v1/select/batch call with
// single-flight dedup per shape. Degraded answers are never cached.
//
// Health is probed per replica (-probe-interval) and folded into a gossiped
// view: GET /v1/cluster serves it, POST /v1/cluster merges a peer router's
// view (sequence numbers win), and -peers names the other routers this one
// pushes its view to after each probe round.
//
// POST /v1/reload rolls a named replica (or all of them, one at a time) onto
// a fresh generation with peer cache-warming: before cutover the router
// collects the hottest shapes of the reloading replica's shard from its
// peers' served-shape windows and batch-prices them into the new generation,
// so the shard returns to a warm cache.
//
// Endpoints:
//
//	POST /v1/select        routed single decision (shard primary, retry, hedge, degrade)
//	POST /v1/select/batch  shapes fan out to their shard owners and reassemble in order
//	GET  /v1/cluster       gossiped health/generation view
//	POST /v1/cluster       merge a peer router's view
//	POST /v1/reload        {"replica":"...","device":"..."} rolling reload with peer warming
//	GET  /healthz          200 always (the router degrades, it does not die); body counts replicas up
//	GET  /metrics          Prometheus text, every family with HELP and TYPE:
//	                       router_requests_total{endpoint,code}, router_retries_total,
//	                       router_hedges_total, router_hedge_wins_total, router_fallback_total,
//	                       router_probes_total, router_gossip_merges_total, router_reloads_total,
//	                       router_warmed_shapes_total, router_replica_errors_total,
//	                       router_replica_wins_total{replica}, router_replica_up{replica},
//	                       selectrouter_cache_{hits,misses,invalidations}_total,
//	                       selectrouter_coalesced_total, selectrouter_batchsize (histogram)
//
// Usage:
//
//	selectrouter -addr :8090 -replicas http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    [-peers http://router-b:8090] [-probe-interval 2s] [-hedge-delay 25ms] [-retries 2]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kernelselect/internal/cluster"
	"kernelselect/internal/core"
	"kernelselect/internal/dataset"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
	"kernelselect/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("selectrouter: ")

	addr := flag.String("addr", ":8090", "listen address")
	name := flag.String("name", "router", "router name in gossiped views")
	replicasFlag := flag.String("replicas", "", "comma-separated selectd replicas, url or name=url (required)")
	peersFlag := flag.String("peers", "", "comma-separated peer router base URLs to gossip views to")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health-probe and gossip cadence (0 disables the loop)")
	hedgeDelay := flag.Duration("hedge-delay", 25*time.Millisecond, "launch a cross-shard hedged attempt after this wait (negative disables)")
	retries := flag.Int("retries", 2, "sequential failover attempts beyond the first")
	retryBackoff := flag.Duration("retry-backoff", 5*time.Millisecond, "pause between sequential attempts")
	backoffCap := flag.Duration("backoff-cap", time.Second, "longest a Retry-After can deprioritize a replica")
	vnodes := flag.Int("vnodes", 128, "virtual nodes per replica on the hash ring")
	warmTop := flag.Int("warm-top", 64, "hottest shard shapes pre-priced from peer windows on reload")
	edgeCache := flag.Int("edge-cache", 4096, "generation-aware edge cache entries per device (0 disables)")
	batchWindow := flag.Duration("batch-window", 250*time.Microsecond, "coalesce concurrent misses to one replica within this window (0 disables)")
	warmConns := flag.Int("warm-conns", 8, "persistent connections pre-warmed per replica at startup (negative disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	devName := flag.String("device", "r9nano", "device model for the router-local fallback engine")
	selName := flag.String("selector", "tree", "local fallback selector: tree, forest, 1nn, 3nn, linear-svm, radial-svm")
	n := flag.Int("n", 8, "local fallback library size")
	seed := flag.Uint64("seed", 42, "local fallback training seed")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	flag.Parse()

	replicas, err := parseReplicas(*replicasFlag)
	if err != nil {
		log.Fatal(err)
	}

	// The local fallback engine is a full in-process selectd backend trained
	// from the device model: last resort, never primary, so a modest library
	// is fine — correctness of the no-5xx contract matters, peak quality
	// does not.
	local, err := localEngine(*devName, *selName, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	defer local.Close()

	router, err := cluster.New(cluster.Options{
		Name:          *name,
		Replicas:      replicas,
		Local:         local,
		Retries:       *retries,
		RetryBackoff:  *retryBackoff,
		HedgeDelay:    *hedgeDelay,
		BackoffCap:    *backoffCap,
		Vnodes:        *vnodes,
		WarmTop:       *warmTop,
		ProbeInterval: *probeInterval,
		Peers:         splitList(*peersFlag),
		EdgeCacheSize: *edgeCache,
		BatchWindow:   *batchWindow,
		WarmConns:     *warmConns,
	})
	if err != nil {
		log.Fatal(err)
	}
	router.Start()
	defer router.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		// Same pattern as selectd: pprof on its own listener so profiling
		// never shares a mux (or a port) with the serving surface.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("pprof on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	for _, rep := range replicas {
		log.Printf("replica %s -> %s", rep.Name, rep.URL)
	}
	log.Printf("routing on %s (%d replicas, local fallback %s)", *addr, len(replicas), *devName)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("signal received, draining for up to %v", *drainTimeout)
	router.Close() // stop probing/gossiping before the listener goes away
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("drained cleanly")
}

// parseReplicas turns "-replicas url,name=url,..." into the fleet roster.
// Unnamed entries get positional names (replica-0, ...); roster order is
// shard-index order, so keep it identical across routers sharing a fleet.
func parseReplicas(s string) ([]*cluster.Replica, error) {
	entries := splitList(s)
	if len(entries) == 0 {
		return nil, fmt.Errorf("-replicas is required (comma-separated url or name=url)")
	}
	reps := make([]*cluster.Replica, 0, len(entries))
	seen := map[string]bool{}
	for i, entry := range entries {
		name, url := fmt.Sprintf("replica-%d", i), entry
		if pre, rest, ok := strings.Cut(entry, "="); ok && !strings.Contains(pre, "://") {
			name, url = strings.TrimSpace(pre), strings.TrimSpace(rest)
		}
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("replica %q: URL must start with http:// or https://", entry)
		}
		if seen[name] {
			return nil, fmt.Errorf("replica name %q used twice", name)
		}
		seen[name] = true
		reps = append(reps, cluster.NewReplica(name, strings.TrimRight(url, "/"), nil))
	}
	return reps, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// localEngine trains the router-local fallback backend in-process, exactly
// like an in-process selectd would for the same device.
func localEngine(devName, selName string, n int, seed uint64) (*serve.Server, error) {
	spec, err := device.Lookup(devName)
	if err != nil {
		return nil, err
	}
	trainer, err := core.SelectorTrainerByFlag(selName)
	if err != nil {
		return nil, err
	}
	model := sim.New(spec)
	shapes, _ := workload.DatasetShapes()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	lib := core.BuildLibrary(ds, core.DecisionTree{}, trainer, n, seed)
	return serve.New(lib, model, serve.Options{FallbackShapes: shapes}), nil
}
