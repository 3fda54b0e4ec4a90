// Package singleflight collapses concurrent duplicate work: when several
// goroutines ask for the same key at once, one of them (the leader) runs
// the function and every other caller (the followers) blocks until the
// leader finishes and then shares its result. The online service wraps
// its solve path in a Group keyed by the canonical cache key, so a burst
// of identical requests — byte-identical or merely isomorphic, since the
// key is the canonical graph hash — costs one portfolio race instead of
// one per request.
//
// This is a from-scratch implementation (the container deliberately has
// no module dependencies beyond the standard library) of the same
// contract as golang.org/x/sync/singleflight's Do, without the Forget
// and DoChan surface the service does not need.
package singleflight

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrLeaderPanic is the error followers receive when the leader's fn
// panicked instead of returning.
var ErrLeaderPanic = errors.New("singleflight: leader panicked")

// call is one in-flight execution of fn for a key.
type call struct {
	wg      sync.WaitGroup
	waiters atomic.Int64 // followers blocked on wg (observability/tests)
	val     any
	err     error
}

// Group collapses concurrent calls with the same key. The zero value is
// ready to use.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do executes fn, making sure only one execution per key is in flight at
// a time. Concurrent callers with the same key wait for the leader and
// receive its value and error with shared=true; the leader itself gets
// shared=false. Once the leader returns, the key is forgotten: a later
// Do runs fn again (the caller's cache, not the Group, is the memory).
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.waiters.Add(1)
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The leader must deregister the key and release its followers even
	// if fn panics, or every future caller of the key would block forever
	// on a call that will never complete. A panicking fn surfaces to the
	// followers as ErrLeaderPanic (the panic itself propagates on the
	// leader's goroutine).
	defer func() {
		if r := recover(); r != nil {
			c.err = ErrLeaderPanic
			g.release(key, c)
			panic(r)
		}
		g.release(key, c)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

func (g *Group) release(key string, c *call) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
}

// Waiters reports how many followers are currently blocked on key's
// in-flight call (0 when no call is in flight). Used by tests to
// deterministically observe a collapse in progress.
func (g *Group) Waiters(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters.Load()
	}
	return 0
}
