package serve

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"predication/internal/obs"
)

// entries reports the cache's current entry count.
func (c *Cache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// TestCacheLRU: the cache holds at most max entries, evicting least
// recently used, and Get refreshes recency.
func TestCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache("t", 2, reg)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing before capacity reached")
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order not honored")
	}
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Error("refreshed entry a was evicted")
	}
	if v, ok := c.Get("c"); !ok || v.(int) != 3 {
		t.Error("newest entry c missing")
	}
	if c.entries() != 2 {
		t.Errorf("entries = %d, want 2", c.entries())
	}
	snap := reg.Snapshot()
	if snap.Counters["t_evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["t_evictions"])
	}
	if snap.Counters["t_hits"] != 3 || snap.Counters["t_misses"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1",
			snap.Counters["t_hits"], snap.Counters["t_misses"])
	}
}

// TestCachePeek: Peek reads without counting or refreshing recency.
func TestCachePeek(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache("t", 2, reg)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Peek("a"); !ok || v.(int) != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek found an absent key")
	}
	c.Add("c", 3) // a is still least recently used
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed a's recency")
	}
	snap := reg.Snapshot()
	if snap.Counters["t_hits"] != 0 || snap.Counters["t_misses"] != 0 {
		t.Errorf("Peek counted: hits/misses = %d/%d, want 0/0",
			snap.Counters["t_hits"], snap.Counters["t_misses"])
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; the -race
// CI stage makes this a data-race check on the LRU bookkeeping.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache("t", 8, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if v, ok := c.Get(key); ok && v.(string) != key {
					t.Errorf("key %s returned value %v", key, v)
					return
				}
				c.Add(key, key)
			}
		}(g)
	}
	wg.Wait()
	if c.entries() > 8 {
		t.Errorf("cache grew past its bound: %d", c.entries())
	}
}

// TestSingleflightCoalesces: concurrent callers with one key share one
// execution; distinct keys do not block each other.
func TestSingleflightCoalesces(t *testing.T) {
	var g group
	var mu sync.Mutex
	executions := 0
	gate := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do("key", func() (any, error) {
				mu.Lock()
				executions++
				mu.Unlock()
				<-gate
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Release the in-flight call only once every other caller has joined
	// it: opening the gate earlier lets a late caller find the key gone
	// and start a second execution.
	for {
		g.mu.Lock()
		c := g.m["key"]
		joined := c != nil && c.dups == n-1
		g.mu.Unlock()
		if joined {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if executions != 1 {
		t.Errorf("%d executions for %d concurrent callers, want coalescing to 1", executions, n)
	}
	for i, v := range results {
		if v != "value" {
			t.Errorf("caller %d got %v", i, v)
		}
	}

	// The key is forgotten after completion: a later call executes again.
	_, _, _ = g.Do("key", func() (any, error) {
		mu.Lock()
		executions++
		mu.Unlock()
		return "value2", nil
	})
	if executions != 2 {
		t.Errorf("completed key still coalescing: %d executions", executions)
	}
}

// TestSingleflightPanicReleasesKey: a call that panics still completes.
// Its caller sees the panic (the daemon's guard turns it into a 500),
// a caller that had joined it gets an error instead of waiting forever,
// and the key is released, so the next call executes afresh.
func TestSingleflightPanicReleasesKey(t *testing.T) {
	var g group
	gate := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do("key", func() (any, error) {
			<-gate
			panic("boom")
		})
	}()
	for {
		g.mu.Lock()
		_, started := g.m["key"]
		g.mu.Unlock()
		if started {
			break
		}
		runtime.Gosched()
	}
	joined := make(chan error, 1)
	go func() {
		_, shared, err := g.Do("key", func() (any, error) { return "ran", nil })
		if !shared {
			err = fmt.Errorf("the duplicate ran its own call (%v)", err)
		}
		joined <- err
	}()
	for {
		g.mu.Lock()
		dups := g.m["key"].dups
		g.mu.Unlock()
		if dups == 1 {
			break
		}
		runtime.Gosched()
	}
	close(gate)

	if r := <-leader; r != "boom" {
		t.Fatalf("leader recovered %v, want the original panic value", r)
	}
	select {
	case err := <-joined:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("joined caller: err = %v, want the panic reported", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joined caller still blocked 5 s after the panic")
	}
	next := make(chan any, 1)
	go func() {
		v, _, _ := g.Do("key", func() (any, error) { return "fresh", nil })
		next <- v
	}()
	select {
	case v := <-next:
		if v != "fresh" {
			t.Errorf("next call got %v, want a fresh execution", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("key still held 5 s after the panic")
	}
}
