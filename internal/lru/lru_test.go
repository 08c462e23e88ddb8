package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New[string, int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	// b is now LRU; inserting c evicts it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a evicted instead of b: %v, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("c = %v, %v", v, ok)
	}
	hits, misses, evictions := c.Counts()
	if hits != 3 || misses != 2 || evictions != 1 {
		t.Fatalf("counts = %d/%d/%d", hits, misses, evictions)
	}
	if n := len(c.items); n != 2 {
		t.Fatalf("len = %d", n)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: a becomes MRU, no eviction
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived")
	}
}

func TestCapacityOne(t *testing.T) {
	c := New[int, int](1)
	for i := 0; i < 10; i++ {
		c.Put(i, i*i)
		if v, ok := c.Get(i); !ok || v != i*i {
			t.Fatalf("just-inserted %d = %v, %v", i, v, ok)
		}
	}
	if n := len(c.items); n != 1 {
		t.Fatalf("len = %d", n)
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New[int, int](0)
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				c.Put(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if n := len(c.items); n > 16 {
		t.Fatalf("len %d exceeds capacity", n)
	}
	hits, misses, _ := c.Counts()
	if hits+misses != 8*500 {
		t.Fatalf("hits %d + misses %d != gets %d", hits, misses, 8*500)
	}
}
