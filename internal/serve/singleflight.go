package serve

import (
	"fmt"
	"sync"
)

// group coalesces concurrent calls with the same key into one execution:
// the first caller runs fn, every concurrent duplicate blocks and
// receives the same result.  The key is forgotten once the call
// completes, so later requests (a cache miss after eviction, say)
// execute afresh.  This is the classic singleflight shape, local to the
// daemon so the repository stays dependency-free.
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

type call struct {
	wg   sync.WaitGroup
	val  any
	err  error
	dups int // callers that joined this call (guarded by group.mu)
}

// Do executes fn once per concurrent set of callers with the same key.
// shared is false for the caller that executed fn and true for every
// duplicate that joined it — the daemon labels the former's response a
// cache miss and the latters' coalesced.
//
// A call that panics completes too: the key is released, the joined
// callers get an error, and the panic continues in the caller that ran
// fn, whose guard (experiments.Guard) reports it.
func (g *group) Do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*call{}
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		var r any
		if !returned {
			r = recover() // nil when fn called runtime.Goexit
			c.val, c.err = nil, fmt.Errorf("serve: shared computation did not return: panic: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	returned = true
	return c.val, false, c.err
}
