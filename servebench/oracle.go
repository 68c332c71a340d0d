package main

import (
	"fmt"
	"sort"
	"sync"

	"kernelselect/internal/core"
	"kernelselect/internal/gemm"
)

// stamp names one published library epoch: a device backend and the
// generation its server stamped on the swap.
type stamp struct {
	device string
	gen    uint64
}

// publication is one library a replica published under a stamp, and the
// reload epoch of its device it belongs to (0 = the startup library).
type publication struct {
	replica string
	lib     *core.Library
	epoch   int
}

// oracle decides whether an answer is correct. A full-quality answer must
// be the interpreted ChooseIndex choice of the library published under the
// generation stamped on it, and that generation must not be older than the
// newest reload of its device that had completed when the request was sent.
// The benchmark records every publication itself: the startup libraries and
// each library its reload source handed out, per (replica, device,
// generation).
type oracle struct {
	mu        sync.Mutex
	pubs      map[stamp][]publication
	completed map[string][]int64 // device -> send-clock times reloads completed, ascending
}

func newOracle() *oracle {
	return &oracle{pubs: map[stamp][]publication{}, completed: map[string][]int64{}}
}

// publish records that replica serves lib for device under gen, as part of
// the given reload epoch of that device.
func (o *oracle) publish(replica, device string, gen uint64, lib *core.Library, epoch int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := stamp{device, gen}
	o.pubs[k] = append(o.pubs[k], publication{replica: replica, lib: lib, epoch: epoch})
}

// reloaded records that reload epoch len(completed)+1 of device finished at
// send-clock time at: every request sent after it must be answered from
// that epoch or a newer one.
func (o *oracle) reloaded(device string, at int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.completed[device] = append(o.completed[device], at)
}

// required is the oldest reload epoch a request for device sent at time
// sent may be answered from.
func (o *oracle) required(device string, sent int64) int {
	done := o.completed[device]
	return sort.Search(len(done), func(i int) bool { return done[i] > sent })
}

// answer is what the oracle needs from one decoded response.
type answer struct {
	device string
	shape  gemm.Shape
	sent   int64 // send-clock time the request was sent (or due)
	gen    uint64
	index  int
	config gemm.Config
}

// check returns nil when a full-quality answer is correct, and the reason
// otherwise. The answer does not name the replica that produced it, so it
// must match at least one library published under its stamp; every replica
// of the fleet reloads in lockstep and publishes the same library per
// stamp, so in practice there is exactly one candidate.
func (o *oracle) check(a answer) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	pubs := o.pubs[stamp{a.device, a.gen}]
	if len(pubs) == 0 {
		return fmt.Errorf("%s %v: generation %d was never published", a.device, a.shape, a.gen)
	}
	need := o.required(a.device, a.sent)
	for _, p := range pubs {
		if p.epoch < need {
			return fmt.Errorf("%s %v: stale generation %d (reload epoch %d) answered a request sent after epoch %d completed",
				a.device, a.shape, a.gen, p.epoch, need)
		}
	}
	for _, p := range pubs {
		want := p.lib.ChooseIndex(a.shape)
		if a.index == want && a.config == p.lib.Configs[want] {
			return nil
		}
	}
	p := pubs[0]
	want := p.lib.ChooseIndex(a.shape)
	return fmt.Errorf("%s %v gen %d: answered index %d (%v), library published by %s chooses %d (%v)",
		a.device, a.shape, a.gen, a.index, a.config, p.replica, want, p.lib.Configs[want])
}
