package cluster

import (
	"testing"

	"kernelselect/internal/gemm"
	"kernelselect/internal/xrand"
)

var ringDevices = []string{"amd-r9-nano", "intel-gen9", "arm-mali"}

// The ring is a pure function of (replica count, vnodes): two instances agree
// on every candidate order, every order is a permutation of the replicas, and
// repeated queries never waver.
func TestRingDeterministicPermutation(t *testing.T) {
	const n = 5
	a, b := newRing(n, 0), newRing(n, 0)
	for _, dev := range ringDevices {
		for _, shape := range fleetShapes {
			ca := a.candidates(dev, shape)
			cb := b.candidates(dev, shape)
			if len(ca) != n {
				t.Fatalf("%s/%v: %d candidates, want %d", dev, shape, len(ca), n)
			}
			seen := make([]bool, n)
			for _, idx := range ca {
				if idx < 0 || idx >= n || seen[idx] {
					t.Fatalf("%s/%v: candidates %v not a permutation", dev, shape, ca)
				}
				seen[idx] = true
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("%s/%v: rings disagree: %v vs %v", dev, shape, ca, cb)
				}
			}
			again := a.candidates(dev, shape)
			for i := range ca {
				if ca[i] != again[i] {
					t.Fatalf("%s/%v: repeat query wavered: %v vs %v", dev, shape, ca, again)
				}
			}
		}
	}
}

// Shapes in the same log2 bucket share a shard: their candidate orders are
// identical, so one replica's cache serves the whole bucket.
func TestRingBucketStability(t *testing.T) {
	r := newRing(4, 0)
	pairs := [][2]gemm.Shape{
		// Same bits.Len per dimension → same bucket.
		{{M: 100, K: 200, N: 300}, {M: 120, K: 250, N: 310}},
		{{M: 65, K: 1025, N: 17}, {M: 127, K: 2047, N: 31}},
	}
	for _, p := range pairs {
		for _, dev := range ringDevices {
			ca, cb := r.candidates(dev, p[0]), r.candidates(dev, p[1])
			for i := range ca {
				if ca[i] != cb[i] {
					t.Errorf("%s: same-bucket shapes %v/%v routed differently: %v vs %v",
						dev, p[0], p[1], ca, cb)
					break
				}
			}
		}
	}
	// And the same shape on different devices may not all collapse onto one
	// shard: the device name is part of the key.
	counts := map[int]int{}
	for _, dev := range ringDevices {
		for _, s := range fleetShapes {
			counts[r.candidates(dev, s)[0]]++
		}
	}
	if len(counts) < 2 {
		t.Errorf("all (device, shape) keys landed on one shard: %v", counts)
	}
}

// Vnodes keep shard sizes reasonable: over a synthetic spread of buckets,
// every replica owns a non-trivial share of primaries.
func TestRingBalance(t *testing.T) {
	const n = 3
	r := newRing(n, 0)
	counts := make([]int, n)
	total := 0
	for m := 1; m <= 1<<14; m <<= 1 {
		for k := 1; k <= 1<<14; k <<= 2 {
			for nn := 1; nn <= 1<<12; nn <<= 2 {
				counts[r.candidates("amd-r9-nano", gemm.Shape{M: m, K: k, N: nn})[0]]++
				total++
			}
		}
	}
	for i, c := range counts {
		if c < total/(n*4) {
			t.Errorf("replica %d owns %d/%d primaries — ring badly unbalanced: %v", i, c, total, counts)
		}
	}
}

// Failover preserves relative order: dropping one replica from the candidate
// list leaves the others exactly in their original sequence, which is what
// makes "mark down → successor takes over, everyone else unmoved" hold.
func TestRingFailoverOrderStable(t *testing.T) {
	const n = 4
	r := newRing(n, 0)
	for _, shape := range fleetShapes {
		order := r.candidates("amd-r9-nano", shape)
		down := order[0]
		want := order[1:]
		got := make([]int, 0, n-1)
		for _, idx := range order {
			if idx != down {
				got = append(got, idx)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %v: filtered order %v, want %v", shape, got, want)
			}
		}
	}
}

// Growing the ring by one replica is consistent hashing's bounded movement:
// over the distinct (device, bucket) keys of 20,000 seeded draws, a key
// whose primary changes moves onto the new replica and nowhere else, and at
// most 2/(n+1) of the keys move.
func TestRingGrowthMovesKeysOnlyToNewReplica(t *testing.T) {
	rng := xrand.New(2020)
	dim := func() int { return 1 + rng.Intn(1<<uint(rng.Intn(17))) }
	type draw struct {
		device string
		shape  gemm.Shape
	}
	seen := make(map[uint64]bool)
	var keys []draw
	for i := 0; i < 20000; i++ {
		d := draw{ringDevices[rng.Intn(len(ringDevices))], gemm.Shape{M: dim(), K: dim(), N: dim()}}
		if k := keyOf(d.device, d.shape); !seen[k] {
			seen[k] = true
			keys = append(keys, d)
		}
	}
	for n := 1; n <= 5; n++ {
		small, grown := newRing(n, 128), newRing(n+1, 128)
		moved := 0
		for _, d := range keys {
			before, after := small.candidates(d.device, d.shape)[0], grown.candidates(d.device, d.shape)[0]
			if before == after {
				continue
			}
			if after != n {
				t.Fatalf("n=%d: %s/%v moved from replica %d to %d, not to the new replica %d", n, d.device, d.shape, before, after, n)
			}
			moved++
		}
		frac := float64(moved) / float64(len(keys))
		t.Logf("n=%d -> %d: %d of %d keys moved (%.3f)", n, n+1, moved, len(keys), frac)
		if frac > 2/float64(n+1) {
			t.Errorf("n=%d -> %d: moved fraction %.3f exceeds %.3f", n, n+1, frac, 2/float64(n+1))
		}
	}
}
