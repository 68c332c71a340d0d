package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"kernelselect/internal/gemm"
	"kernelselect/internal/obs"
)

func shapeN(i int) gemm.Shape { return gemm.Shape{M: i + 1, K: 2*i + 1, N: 3*i + 1} }

func decN(i int) Decision { return Decision{Shape: shapeN(i).String(), Index: i} }

func TestCacheHitAndMiss(t *testing.T) {
	c := newDecisionCache(8, 1)
	if _, ok := c.get(shapeN(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(shapeN(0), decN(0))
	d, ok := c.get(shapeN(0))
	if !ok || d.Index != 0 {
		t.Fatalf("get after put: ok=%v d=%+v", ok, d)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newDecisionCache(3, 1)
	for i := 0; i < 3; i++ {
		c.put(shapeN(i), decN(i))
	}
	// Touch 0 so 1 becomes the eviction victim.
	if _, ok := c.get(shapeN(0)); !ok {
		t.Fatal("lost entry 0")
	}
	c.put(shapeN(3), decN(3))
	if _, ok := c.get(shapeN(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.get(shapeN(i)); !ok {
			t.Fatalf("entry %d evicted, want it retained", i)
		}
	}
	if got := c.len(); got != 3 {
		t.Fatalf("len %d, want 3", got)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := newDecisionCache(4, 1)
	c.put(shapeN(0), decN(0))
	c.put(shapeN(0), Decision{Index: 42})
	if got := c.len(); got != 1 {
		t.Fatalf("len %d after double put, want 1", got)
	}
	d, ok := c.get(shapeN(0))
	if !ok || d.Index != 42 {
		t.Fatalf("refresh lost: ok=%v d=%+v", ok, d)
	}
}

func TestCacheSharding(t *testing.T) {
	c := newDecisionCache(256, 5) // rounds up to 8 shards, 32 slots each
	if len(c.shards) != 8 {
		t.Fatalf("%d shards, want 8", len(c.shards))
	}
	// 64 entries into 8×32 slots: even a skewed hash cannot overflow a
	// shard, so every entry must survive and come back intact.
	for i := 0; i < 64; i++ {
		c.put(shapeN(i), decN(i))
	}
	for i := 0; i < 64; i++ {
		if d, ok := c.get(shapeN(i)); !ok || d.Index != i {
			t.Fatalf("entry %d: ok=%v d=%+v", i, ok, d)
		}
	}
	// The hash must actually spread keys over shards.
	used := 0
	for i := range c.shards {
		if c.shards[i].order.Len() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("all 64 keys landed in %d shard(s)", used)
	}
}

func TestCacheDisabledIsNil(t *testing.T) {
	c := newDecisionCache(0, 4)
	if c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	// All operations must be safe on the nil cache.
	c.put(shapeN(0), decN(0))
	if _, ok := c.get(shapeN(0)); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := newDecisionCache(128, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 200
				if d, ok := c.get(shapeN(k)); ok && d.Index != k {
					panic(fmt.Sprintf("cross-key corruption: key %d got %+v", k, d))
				}
				c.put(shapeN(k), decN(k))
			}
		}(g)
	}
	wg.Wait()
	if got := c.len(); got > 128+15 {
		// Per-shard caps are ceil(128/16)=8, so the total can exceed the
		// nominal capacity only by rounding, never unboundedly.
		t.Fatalf("cache grew to %d entries", got)
	}
}

// The request-latency histogram takes seconds over latencyBuckets: a sample
// under the first bound lands in the first bucket, one past the last only in
// +Inf, and the sum is exact.
func TestHistogramBucketsAndSum(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("selectd_request_seconds", "Latency.", latencyBuckets).With()
	h.Observe((3 * time.Microsecond).Seconds())  // below first bound (5e-6)
	h.Observe((30 * time.Microsecond).Seconds()) // in (2.5e-5, 5e-5]
	h.Observe((2 * time.Second).Seconds())       // beyond the last bound → +Inf bucket
	if got, want := h.Sum(), 2.000033; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum %v s, want %v", got, want)
	}
	var page strings.Builder
	if err := reg.WriteText(&page); err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		`selectd_request_seconds_bucket{le="5e-06"}`: 1,
		`selectd_request_seconds_bucket{le="1"}`:     2,
		`selectd_request_seconds_bucket{le="+Inf"}`:  3,
		`selectd_request_seconds_count`:              3,
	} {
		if got := metricValue(t, page.String(), series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}
