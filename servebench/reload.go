package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// reloader sends the fleet's reloads through the router, one device at a
// time, alternating devices, and binds each reloaded generation to the
// library the replicas' reload sources handed out.
type reloader struct {
	f      *fleet
	o      *oracle
	client *http.Client
	clock  time.Time
	byName map[string]*replica
	epochs map[string]int

	count  int       // reloads attempted
	durs   []float64 // wall seconds of each router reload call
	inval  []float64 // edge invalidations observed across each reload call
	warmed float64   // shapes peer-warmed, summed over reloads
	errs   []string
}

func newReloader(f *fleet, o *oracle, client *http.Client, clock time.Time) *reloader {
	rl := &reloader{f: f, o: o, client: client, clock: clock, byName: map[string]*replica{}, epochs: map[string]int{}}
	for _, r := range f.replicas {
		rl.byName[r.name] = r
	}
	return rl
}

// during runs the reload schedule for a phase of length d in the
// background; the returned func stops it and waits for it to finish.
func (rl *reloader) during(d time.Duration) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for off := reloadFirst; off < d-250*time.Millisecond; off += reloadEvery {
			t := time.NewTimer(time.Until(start.Add(off)))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			if err := rl.reloadOnce(); err != nil {
				rl.errs = append(rl.errs, err.Error())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}

func (rl *reloader) reloadOnce() error {
	dev := rl.f.devices[rl.count%len(rl.f.devices)]
	rl.count++
	before, err := scrape(rl.client, rl.f.entry)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]string{"device": dev})
	start := time.Now()
	resp, err := rl.client.Post(rl.f.entry+"/v1/reload", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("reload %s: %w", dev, err)
	}
	var sum struct {
		Reloads []struct {
			Replica    string `json:"replica"`
			Generation uint64 `json:"generation"`
			Warmed     int    `json:"warmed"`
			Err        string `json:"error"`
		} `json:"reloads"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	rl.durs = append(rl.durs, time.Since(start).Seconds())
	if resp.StatusCode != http.StatusOK || derr != nil {
		return fmt.Errorf("reload %s: status %d (%v)", dev, resp.StatusCode, derr)
	}
	rl.epochs[dev]++
	for _, s := range sum.Reloads {
		r, ok := rl.byName[s.Replica]
		if !ok || s.Err != "" {
			return fmt.Errorf("reload %s on %s: %s", dev, s.Replica, s.Err)
		}
		rl.o.publish(s.Replica, dev, s.Generation, r.handedOut(dev), rl.epochs[dev])
		rl.warmed += float64(s.Warmed)
	}
	rl.o.reloaded(dev, int64(time.Since(rl.clock)))
	after, err := scrape(rl.client, rl.f.entry)
	if err != nil {
		return err
	}
	rl.inval = append(rl.inval, delta(before, after, "selectrouter_cache_invalidations_total"))
	return nil
}

// withReloads runs one phase, with the fleet's reload schedule alongside it
// when there is a router to reload through.
func withReloads(rl *reloader, d time.Duration, phase func() phaseResult) phaseResult {
	if rl == nil {
		return phase()
	}
	stop := rl.during(d)
	p := phase()
	stop()
	return p
}
