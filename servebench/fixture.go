package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
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

// The replica hosts these devices, as `selectd -devices r9nano,gen9`.
func hostedSpecs() []device.Spec { return []device.Spec{device.R9Nano(), device.IntegratedGen9()} }

// Library training as selectd's trainLibrary: price the dataset shapes on
// the device model over every configuration, prune with the decision-tree
// pruner, train the tree selector, n=8, seed 42 (the flag defaults).
const (
	libSize     = 8
	defaultSeed = 42
)

// setupTimes are the layer timings one fixture build observed.
type setupTimes struct {
	datasetBuild time.Duration // dataset.Build, summed over builds
	libraryBuild time.Duration // core.BuildLibrary, summed over builds
	warm         time.Duration // slowest replica: server built until /healthz reports warm_complete
	prime        time.Duration // fleet edge priming through the router
}

// trained is one device's in-process training output.
type trained struct {
	spec  device.Spec
	model *sim.Model
	ds    *dataset.PerfDataset
	lib   *core.Library
}

func train(spec device.Spec, st *setupTimes) trained {
	shapes, _ := workload.DatasetShapes()
	model := sim.New(spec)
	t0 := time.Now()
	ds := dataset.Build(model, shapes, gemm.AllConfigs())
	t1 := time.Now()
	lib := core.BuildLibrary(ds, core.DecisionTree{}, core.DecisionTreeSelector{}, libSize, defaultSeed)
	st.datasetBuild += t1.Sub(t0)
	st.libraryBuild += time.Since(t1)
	return trained{spec: spec, model: model, ds: ds, lib: lib}
}

// reloadLibraries trains the two libraries a reload source alternates
// between. The decision-tree pipeline is deterministic in its seed, so the
// seeds instead pick which 80% of the dataset shapes each library trains
// on: the two libraries differ, and a stale answer shows in the oracle.
func reloadLibraries(t trained, seed uint64, st *setupTimes) [2]*core.Library {
	var libs [2]*core.Library
	for i := range libs {
		t0 := time.Now()
		part, _ := t.ds.Split(seed*2+uint64(i)+1, 0.2)
		libs[i] = core.BuildLibrary(part, core.DecisionTree{}, core.DecisionTreeSelector{}, libSize, defaultSeed)
		st.libraryBuild += time.Since(t0)
	}
	return libs
}

// selectdOptions are serve.Options exactly as cmd/selectd maps its flag
// defaults (-cache 4096, -cache-shards 16, -max-inflight 256, -warm, ...).
func selectdOptions() serve.Options {
	return serve.Options{
		CacheSize:        4096,
		CacheShards:      16,
		MaxInFlight:      256,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		MaxBatch:         1024,
		RequestTimeout:   5 * time.Second,
		Warm:             true,
		WindowSize:       4096,
		DriftThreshold:   0.25,
		MaintainInterval: 30 * time.Second,
	}
}

// listener is one in-process HTTP server on a loopback port, with
// selectd's and selectrouter's server timeouts.
type listener struct {
	url string
	srv *http.Server
	wg  sync.WaitGroup
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		url: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	l.wg.Wait()
}

// replica is one in-process selectd.
type replica struct {
	name    string
	srv     *serve.Server
	ln      *listener
	devs    []trained
	started time.Time // server built: its warm pass is running

	// The reload source hands out libs[device][next[device]%2] and records
	// what it handed out, so the oracle can bind it to the generation the
	// swap is stamped with.
	mu      sync.Mutex
	libs    map[string][2]*core.Library
	next    map[string]int
	pending map[string]*core.Library
}

func startReplica(name string, tr *tracer, st *setupTimes) (*replica, error) {
	r := &replica{name: name, libs: map[string][2]*core.Library{}, next: map[string]int{}, pending: map[string]*core.Library{}}
	backends := make([]serve.Backend, 0, 2)
	for _, spec := range hostedSpecs() {
		t := train(spec, st)
		r.devs = append(r.devs, t)
		backends = append(backends, serve.Backend{Device: spec.Name, Lib: t.lib, Model: t.model})
	}
	srv, err := serve.NewMulti(backends, selectdOptions())
	if err != nil {
		return nil, err
	}
	r.srv, r.started = srv, time.Now()
	srv.SetReloadSource(r.reloadSource)
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(layerReplica, h)
	}
	if r.ln, err = listen(h); err != nil {
		srv.Close()
		return nil, err
	}
	return r, nil
}

func (r *replica) reloadSource(dev string) (*core.Library, *sim.Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	libs, ok := r.libs[dev]
	if !ok {
		return nil, nil, fmt.Errorf("no reload libraries for device %q", dev)
	}
	lib := libs[r.next[dev]%2]
	r.next[dev]++
	r.pending[dev] = lib
	return lib, nil, nil
}

// handedOut returns the library the reload source last gave for dev.
func (r *replica) handedOut(dev string) *core.Library {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pending[dev]
}

func (r *replica) setReloadLibraries(dev string, libs [2]*core.Library) {
	r.mu.Lock()
	r.libs[dev] = libs
	r.mu.Unlock()
}

// publishStartup records the startup libraries under their generations.
func (r *replica) publishStartup(o *oracle) error {
	for _, t := range r.devs {
		gen, err := r.srv.Generation(t.spec.Name)
		if err != nil {
			return err
		}
		o.publish(r.name, t.spec.Name, gen, t.lib, 0)
	}
	return nil
}

func (r *replica) close() {
	r.ln.close()
	r.srv.Close()
}

// waitWarm polls /healthz until every backend reports warm_complete.
func waitWarm(client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(url + "/healthz")
		if err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		var hz struct {
			Backends []struct {
				WarmComplete bool `json:"warm_complete"`
			} `json:"backends"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if derr != nil {
			return fmt.Errorf("healthz decode: %w", derr)
		}
		warm := len(hz.Backends) > 0
		for _, b := range hz.Backends {
			warm = warm && b.WarmComplete
		}
		if warm {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replica not warm after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// fleet is the serving topology of one run: one replica, or replicas
// behind a router. entry is the URL the generator talks to.
type fleet struct {
	replicas []*replica
	router   *cluster.Router
	local    *serve.Server
	rln      *listener
	entry    string
	devices  []string
}

func (f *fleet) close() {
	if f.rln != nil {
		f.rln.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.local != nil {
		f.local.Close()
	}
	for _, r := range f.replicas {
		r.close()
	}
}

func (f *fleet) replicaURLs() []string {
	urls := make([]string, len(f.replicas))
	for i, r := range f.replicas {
		urls[i] = r.ln.url
	}
	return urls
}

// buildFleet performs one full set-up: train, start and warm n replicas,
// and for a fleet train the router-local fallback and the reload libraries,
// start the router with selectrouter's defaults and prime its edge cache.
func buildFleet(n int, withRouter bool, seed uint64, tr *tracer, o *oracle, client *http.Client) (*fleet, setupTimes, error) {
	var st setupTimes
	f := &fleet{}
	for _, spec := range hostedSpecs() {
		f.devices = append(f.devices, spec.Name)
	}
	fail := func(err error) (*fleet, setupTimes, error) {
		f.close()
		return nil, st, err
	}
	for i := 0; i < n; i++ {
		r, err := startReplica(fmt.Sprintf("replica-%d", i), tr, &st)
		if err != nil {
			return fail(err)
		}
		f.replicas = append(f.replicas, r)
		if err := waitWarm(client, r.ln.url); err != nil {
			return fail(err)
		}
		st.warm = max(st.warm, time.Since(r.started))
		if err := r.publishStartup(o); err != nil {
			return fail(err)
		}
	}
	f.entry = f.replicas[0].ln.url
	if !withRouter {
		return f, st, nil
	}
	if err := f.addRouter(seed, tr, client, &st); err != nil {
		return fail(err)
	}
	return f, st, nil
}

// addRouter fronts the fleet's replicas with a router built as
// cmd/selectrouter builds it from its flag defaults, and primes the edge
// cache with every dataset shape on every device.
func (f *fleet) addRouter(seed uint64, tr *tracer, client *http.Client, st *setupTimes) error {
	for i, spec := range hostedSpecs() {
		libs := reloadLibraries(f.replicas[0].devs[i], seed, st)
		for _, r := range f.replicas {
			r.setReloadLibraries(spec.Name, libs)
		}
	}
	// The router-local fallback engine: selectrouter's localEngine for
	// -device r9nano -selector tree -n 8 -seed 42.
	local := train(device.R9Nano(), st)
	shapes, _ := workload.DatasetShapes()
	f.local = serve.New(local.lib, local.model, serve.Options{FallbackShapes: shapes})

	reps := make([]*cluster.Replica, len(f.replicas))
	for i, r := range f.replicas {
		var hc *http.Client // nil: NewReplica's own pooled transport, as selectrouter
		if tr != nil {
			base := http.DefaultTransport.(*http.Transport).Clone()
			base.MaxIdleConns = 256
			base.MaxIdleConnsPerHost = 128
			hc = &http.Client{Transport: &tracedTransport{t: tr, next: base}}
		}
		reps[i] = cluster.NewReplica(r.name, r.ln.url, hc)
	}
	router, err := cluster.New(cluster.Options{
		Name:          "router",
		Replicas:      reps,
		Local:         f.local,
		Retries:       2,
		RetryBackoff:  5 * time.Millisecond,
		HedgeDelay:    25 * time.Millisecond,
		BackoffCap:    time.Second,
		Vnodes:        128,
		WarmTop:       64,
		ProbeInterval: 2 * time.Second,
		EdgeCacheSize: 4096,
		BatchWindow:   250 * time.Microsecond,
		WarmConns:     8,
	})
	if err != nil {
		return err
	}
	router.Start()
	f.router = router
	var h http.Handler = router.Handler()
	if tr != nil {
		h = tr.wrapHandler(layerRouter, h)
	}
	if f.rln, err = listen(h); err != nil {
		return err
	}
	f.entry = f.rln.url
	start := time.Now()
	if err := prime(client, f.entry, shapes, f.devices); err != nil {
		return err
	}
	st.prime = time.Since(start)
	return nil
}

// prime requests every shape on every device through the router until each
// answers at full quality, so the edge cache holds the hot set.
func prime(client *http.Client, url string, shapes []gemm.Shape, devices []string) error {
	var buf []byte
	for _, dev := range devices {
		for _, s := range shapes {
			deadline := time.Now().Add(10 * time.Second)
			for {
				buf = appendBody(buf[:0], s, dev)
				d, status, err := post(context.Background(), client, url+"/v1/select", buf)
				if err != nil {
					return fmt.Errorf("prime %s %v: %w", dev, s, err)
				}
				if status == http.StatusOK && !d.Degraded {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("prime %s %v: no full-quality answer (status %d)", dev, s, status)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nil
}
