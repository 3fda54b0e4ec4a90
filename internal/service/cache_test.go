package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4, 1) // one shard of 4 for deterministic eviction
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), &entry{Strategy: fmt.Sprintf("s%d", i)})
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	for _, gone := range []string{"k0", "k1"} {
		if _, ok := c.Get(gone); ok {
			t.Errorf("oldest key %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"k2", "k3", "k4", "k5"} {
		if _, ok := c.Get(kept); !ok {
			t.Errorf("recent key %s evicted", kept)
		}
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	c := NewCache(2, 1)
	c.Put("a", &entry{})
	c.Put("b", &entry{})
	c.Get("a")           // a is now most recent
	c.Put("c", &entry{}) // evicts b
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used key evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used key survived")
	}
}

func TestCachePutReplaces(t *testing.T) {
	c := NewCache(8, 2)
	c.Put("k", &entry{Strategy: "old"})
	c.Put("k", &entry{Strategy: "new"})
	e, ok := c.Get("k")
	if !ok || e.Strategy != "new" {
		t.Fatalf("got %+v, want replaced entry", e)
	}
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache to %d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1, 4)
	c.Put("k", &entry{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// TestCacheGetReturnsCopy pins the immutability contract: Get hands back
// a copy of the entry record, so a caller mutating its fields cannot
// change what later hits observe.
func TestCacheGetReturnsCopy(t *testing.T) {
	c := NewCache(8, 1)
	c.Put("k", &entry{Strategy: "winner", Spills: 3})
	e1, ok := c.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	e1.Strategy = "tampered"
	e1.Spills = 99
	e2, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after tamper")
	}
	if e2.Strategy != "winner" || e2.Spills != 3 {
		t.Fatalf("cache record mutated through a Get copy: %+v", e2)
	}
}

// TestCacheConcurrentStress hammers Get/Put/eviction from many
// goroutines over a keyspace larger than the capacity, so every
// operation type races every other (run under -race in CI). Every hit
// must return an internally consistent entry: strategy and spills are
// written as a matched pair and must be observed as one.
func TestCacheConcurrentStress(t *testing.T) {
	c := NewCache(32, 4) // small: constant eviction pressure
	const (
		workers = 8
		ops     = 2000
		keys    = 128
	)
	var wg sync.WaitGroup
	torn := make(chan string, workers) // first torn read per worker
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("k%d", k)
				switch rng.Intn(3) {
				case 0:
					c.Put(key, &entry{Strategy: fmt.Sprintf("s%d", k), Spills: k})
				case 1:
					if e, ok := c.Get(key); ok {
						if e.Strategy != fmt.Sprintf("s%d", k) || e.Spills != k {
							select {
							case torn <- fmt.Sprintf("key %s got %+v", key, e):
							default:
							}
							return
						}
					}
				default:
					c.Len()
				}
			}
		}()
	}
	wg.Wait()
	close(torn)
	for msg := range torn {
		t.Errorf("torn read: %s", msg)
	}
	if c.Len() > 32 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
}
