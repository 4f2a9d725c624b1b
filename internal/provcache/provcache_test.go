package provcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/provobs"
)

func newTestCache(maxBytes int64) (*Cache, *Metrics, *provobs.Registry) {
	reg := provobs.NewRegistry()
	met := NewMetrics(reg, "test")
	return New(maxBytes, met), met, reg
}

func TestCacheHitMiss(t *testing.T) {
	c, met, _ := newTestCache(100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1, 10)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	if met.Hits() != 1 || met.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", met.Hits(), met.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, met, _ := newTestCache(30)
	c.Put("a", "a", 10)
	c.Put("b", "b", 10)
	c.Put("c", "c", 10)
	c.Get("a") // touch a: b is now coldest
	c.Put("d", "d", 10)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if met.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", met.Evictions())
	}
	if c.Bytes() != 30 || c.Len() != 3 {
		t.Fatalf("bytes=%d len=%d, want 30/3", c.Bytes(), c.Len())
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c, _, _ := newTestCache(100)
	c.Put("a", 1, 10)
	c.Put("a", 2, 40)
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d, want 40/1", c.Bytes(), c.Len())
	}
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("Get(a) = %v, want 2", v)
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	c, _, _ := newTestCache(10)
	c.Put("big", 1, 11)
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the budget must not be cached")
	}
	if c.Len() != 0 {
		t.Fatalf("len=%d, want 0", c.Len())
	}
}

func TestCacheClear(t *testing.T) {
	c, met, _ := newTestCache(100)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Clear()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after Clear, want 0/0", c.Len(), c.Bytes())
	}
	if met.Evictions() != 0 {
		t.Fatal("Clear must not count as eviction")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived Clear")
	}
}

func TestCacheStatsExposition(t *testing.T) {
	c, _, reg := newTestCache(100)
	c.Put("a", 1, 10)
	c.Get("a")
	c.Get("nope")
	stats := reg.StatsMap()
	want := map[string]int64{
		"cache.test.hits":      1,
		"cache.test.misses":    1,
		"cache.test.evictions": 0,
		"cache.test.bytes":     10,
		"cache.test.entries":   1,
	}
	for k, v := range want {
		if stats[k] != v {
			t.Errorf("stats[%q] = %d, want %d", k, stats[k], v)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c, _, _ := newTestCache(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%64)
				c.Put(k, i, 16)
				c.Get(k)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent load")
	}
}
