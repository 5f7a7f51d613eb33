// Fixture for pairdiscipline's recv-mode lock pairing: release must happen
// on every path, not merely somewhere in the function.
package pairdiscipline

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

func okDefer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func okBothBranches(c *counter, cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
}

func leakOneBranch(c *counter, cond bool) {
	c.mu.Lock() // want `c\.mu\.Lock\(\) without a matching c\.mu\.Unlock\(\)`
	if cond {
		return
	}
	c.mu.Unlock()
}

func leakNoUnlock(c *counter) int {
	c.mu.Lock() // want `c\.mu\.Lock\(\) without a matching`
	return c.n
}

func okPanicPath(c *counter, bad bool) {
	c.mu.Lock()
	if bad {
		panic("invariant") // ok: panic unwinds; nopanic owns this diagnostic
	}
	c.mu.Unlock()
}

func lockPerIteration(mus []*sync.Mutex, skip bool) {
	for _, mu := range mus {
		mu.Lock() // want `mu\.Lock\(\) without a matching mu\.Unlock\(\)`
		if skip {
			continue
		}
		mu.Unlock()
	}
}

func okLockWithGoto(mu *sync.Mutex, n int) {
	mu.Lock()
retry:
	if n > 0 {
		n--
		goto retry
	}
	mu.Unlock()
}

type rw struct {
	mu sync.RWMutex
	v  int
}

func leakReadInSwitch(r *rw, mode int) int {
	r.mu.RLock() // want `r\.mu\.RLock\(\) without a matching r\.mu\.RUnlock\(\)`
	switch {
	case mode == 0:
		return 0
	case mode > 0:
		r.mu.RUnlock()
		return r.v
	}
	r.mu.RUnlock()
	return -r.v
}

func okHandoffMethodValue(r *rw) func() {
	r.mu.RLock() // ok: RUnlock handed off to the caller as a method value
	return r.mu.RUnlock
}

func mismatchedRead(r *rw) int {
	r.mu.RLock() // want `r\.mu\.RLock\(\) without a matching r\.mu\.RUnlock\(\)`
	defer r.mu.Unlock()
	return r.v
}

// A lock-striped cache (an array of shards, each with its own mutex): locks
// reached through an indexed receiver pair by their full selector path.
type shard struct {
	mu sync.Mutex
	m  map[int]int
}

type cache struct {
	shards [4]shard
}

func leakIndexed(c *cache) {
	c.shards[0].mu.Lock() // want `c\.shards\[0\]\.mu\.Lock\(\) without a matching c\.shards\[0\]\.mu\.Unlock\(\)`
	_ = c.shards[0].m
}

func okIndexedBothBranches(c *cache, cond bool) {
	c.shards[1].mu.Lock()
	if cond {
		c.shards[1].mu.Unlock()
		return
	}
	c.shards[1].mu.Unlock()
}

func okLockInsideClosure(c *cache) func() int {
	return func() int { // ok: the pair lives in the same closure
		c.shards[2].mu.Lock()
		defer c.shards[2].mu.Unlock()
		return len(c.shards[2].m)
	}
}

func allowedHandoff(r *rw) {
	//lint:allow pairdiscipline handed off: releaseRW is the documented pair
	r.mu.Lock()
}

func releaseRW(r *rw) {
	r.mu.Unlock()
}
