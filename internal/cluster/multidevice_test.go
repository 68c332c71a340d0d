package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"kernelselect/internal/core"
	"kernelselect/internal/device"
	"kernelselect/internal/gemm"
	"kernelselect/internal/serve"
	"kernelselect/internal/sim"
)

// twoDeviceFleet is one selectd replica hosting r9nano and gen9 behind a
// router whose local fallback engine hosts only r9nano — the selectrouter
// deployment, where the local engine is built for a single device.
type twoDeviceFleet struct {
	router *Router
	rts    *httptest.Server
	srv    *serve.Server
	libs   map[string]*core.Library
}

func newTwoDeviceFleet(t *testing.T, ropts Options) *twoDeviceFleet {
	t.Helper()
	nano, gen9 := sim.New(device.R9Nano()), sim.New(device.IntegratedGen9())
	f := &twoDeviceFleet{libs: map[string]*core.Library{
		"r9nano": buildFleetLib(t, nano, 6),
		"gen9":   buildFleetLib(t, gen9, 6),
	}}
	srv, err := serve.NewMulti([]serve.Backend{
		{Device: "r9nano", Lib: f.libs["r9nano"], Model: nano},
		{Device: "gen9", Lib: f.libs["gen9"], Model: gen9},
	}, serve.Options{FallbackShapes: fleetShapes})
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	rep := httptest.NewServer(srv.Handler())
	local := serve.New(f.libs["r9nano"], nano, serve.Options{FallbackShapes: fleetShapes})
	ropts.Replicas = []*Replica{NewReplica(replicaName(0), rep.URL, nil)}
	ropts.Local = local
	f.router, err = New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	f.rts = httptest.NewServer(f.router.Handler())
	t.Cleanup(func() {
		f.rts.Close()
		f.router.Close()
		rep.Close()
		srv.Close()
		local.Close()
	})
	return f
}

// selectOn posts one select for a named device through the router.
func (f *twoDeviceFleet) selectOn(t *testing.T, dev string, shape gemm.Shape) (int, serve.Decision) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"m": shape.M, "k": shape.K, "n": shape.N, "device": dev})
	resp, err := http.Post(f.rts.URL+"/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d serve.Decision
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, d
}

// reload posts one router-orchestrated reload of a device's backend.
func (f *twoDeviceFleet) reload(t *testing.T, dev string) int {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"device": dev})
	resp, err := http.Post(f.rts.URL+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A reload names only the device it swapped. Its generation must advance
// that device's edge channel alone: another device's register and cached
// bodies are still valid and must survive.
func TestEdgeReloadKeepsOtherDeviceEntries(t *testing.T) {
	f := newTwoDeviceFleet(t, Options{HedgeDelay: -1, EdgeCacheSize: 1024})
	f.srv.SetReloadSource(func(dev string) (*core.Library, *sim.Model, error) {
		return f.libs[dev], nil, nil
	})
	for _, dev := range []string{"r9nano", "gen9"} {
		for _, shape := range fleetShapes {
			if status, d := f.selectOn(t, dev, shape); status != http.StatusOK || d.Degraded {
				t.Fatalf("%s fill %v: status %d degraded=%v", dev, shape, status, d.Degraded)
			}
		}
	}
	nanoReg, gen9Reg := f.router.edge.reg("r9nano", 0), f.router.edge.reg("gen9", 0)
	if nanoReg == 0 || gen9Reg == 0 {
		t.Fatalf("registers r9nano=%d gen9=%d after fill, want both set", nanoReg, gen9Reg)
	}

	if status := f.reload(t, "gen9"); status != http.StatusOK {
		t.Fatalf("gen9 reload: status %d", status)
	}
	if reg := f.router.edge.reg("r9nano", 0); reg != nanoReg {
		t.Errorf("r9nano register moved %d -> %d on a gen9 reload", nanoReg, reg)
	}
	if reg := f.router.edge.reg("gen9", 0); reg <= gen9Reg {
		t.Errorf("gen9 register %d did not advance past %d", reg, gen9Reg)
	}
	for _, shape := range fleetShapes {
		if f.router.edge.get([]byte("r9nano"), shape) == nil {
			t.Errorf("r9nano entry %v evicted by a gen9 reload", shape)
		}
		if f.router.edge.get([]byte("gen9"), shape) != nil {
			t.Errorf("stale gen9 entry %v survived its reload", shape)
		}
	}
}

// A lone replica mid-reload is the only candidate for every shape. Requests
// for a device the router-local engine does not host must still reach it
// (and get a 200) instead of falling to the local engine's 400.
func TestWarmingReplicaServesUnhostedDevice(t *testing.T) {
	f := newTwoDeviceFleet(t, Options{HedgeDelay: -1})
	entered, release := make(chan struct{}), make(chan struct{})
	f.srv.SetReloadSource(func(dev string) (*core.Library, *sim.Model, error) {
		close(entered)
		<-release
		return f.libs[dev], nil, nil
	})
	done := make(chan int, 1)
	go func() { done <- f.reload(t, "r9nano") }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("reload never reached the replica")
	}
	if st := f.router.health.state(replicaName(0)); st != StateWarming {
		t.Fatalf("replica state %q mid-reload, want %q", st, StateWarming)
	}

	status, d := f.selectOn(t, "gen9", fleetShapes[3])
	close(release)
	if status != http.StatusOK || d.Degraded || d.Device != "gen9" {
		t.Errorf("gen9 select during reload: status %d decision %+v, want a full-quality 200", status, d)
	}
	if got := f.router.metrics.fallbacks.Load(); got != 0 {
		t.Errorf("%d router-local fallbacks, want 0", got)
	}
	if status := <-done; status != http.StatusOK {
		t.Errorf("reload: status %d", status)
	}
}
