package mining

import (
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/pattern"
)

// The parallel scoring pipeline.
//
// SumGen's cost is dominated by score(): for every grown pattern it
// enumerates embeddings per covered node into a pooled P_E accumulator
// (Matcher.CoveredEdgeBitsAt, graph.EdgeAcc) and sweeps r-hop edge sets to
// compute C_P, after evaluating CoverAmong over the
// universe unless the universe is the anchors, whose coverage the producer
// has already computed. The BFS growth loop itself (pop, prune on anchor
// coverage, extend) is not free: its CoverAmong over the anchors and the
// canonical code of every extension run serially on the producer. But it
// does NOT depend on score results: extensions derive from coveredAnchors
// only, and score() never mutates engine state shared with generation.
//
// runParallel therefore keeps generation sequential on the calling goroutine
// (preserving the exact pop/extend order of run) and farms score() out to
// cfg.Workers goroutines. Each submitted pattern carries a sequence number;
// results are committed to e.out strictly in submission order, so the output
// slice is byte-identical to the sequential run.
//
// The only coupling from scoring back into generation is the MaxPatterns
// budget: sequentially, the loop stops popping once `grown` (committed
// non-nil scored patterns) reaches the budget, and the budget-hitting pattern
// is not extended. Extensions, however, only mutate the queues and the seen
// set — never e.out — and nothing is popped after the budget hits. So the
// producer may safely speculate a bounded window of extra patterns past the
// (not yet known) stopping point: their extensions are discarded with the
// queues, and the in-order committer drops their scores once the budget is
// reached. Speculation is bounded by the in-flight window (2 × workers).

// scoreJob is one pattern awaiting scoring, tagged with its submission index.
// coveredAnchors is the producer's CoverAmong over the anchors (nil for the
// fallback seeds); the producer keeps reading it, so score must not write it.
type scoreJob struct {
	seq            int
	p              *pattern.Pattern
	fallback       bool
	coveredAnchors []graph.NodeID
}

// scoreResult is one finished scoring, possibly nil (pattern covers no
// universe node).
type scoreResult struct {
	seq      int
	cand     *Candidate
	fallback bool
}

// committer reassembles out-of-order worker results into submission order and
// applies the sequential loop's emission rules.
type committer struct {
	e       *engine
	pending map[int]scoreResult
	next    int // lowest uncommitted sequence number
	grown   int // committed non-fallback candidates
}

// add registers a result and commits every consecutively-available one.
func (c *committer) add(r scoreResult) {
	c.pending[r.seq] = r
	for {
		r, ok := c.pending[c.next]
		if !ok {
			return
		}
		delete(c.pending, c.next)
		c.next++
		if r.cand == nil {
			continue
		}
		if r.fallback {
			c.e.out = append(c.e.out, r.cand)
			if c.e.mm != nil {
				c.e.mm.emitted.Inc()
			}
			continue
		}
		if c.grown >= c.e.cfg.MaxPatterns {
			if c.e.mm != nil {
				c.e.mm.specDiscards.Inc()
			}
			continue // speculative overshoot past the budget; discard
		}
		c.e.out = append(c.e.out, r.cand)
		if c.e.mm != nil {
			c.e.mm.emitted.Inc()
		}
		c.grown++
	}
}

// runParallel is the worker-pool variant of run. Its output is byte-identical
// to run's for any worker count (see the package comment above).
func (e *engine) runParallel() {
	workers := e.cfg.Workers
	window := 2 * workers
	jobs := make(chan scoreJob, window)
	results := make(chan scoreResult, window)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- scoreResult{seq: j.seq, cand: e.score(j.p, j.fallback, j.coveredAnchors), fallback: j.fallback}
			}
		}()
	}

	com := &committer{e: e, pending: make(map[int]scoreResult, window)}
	submitted := 0
	received := 0

	// drainOne blocks for one result; submit keeps in-flight jobs within the
	// window so results cannot back up and deadlock the producer.
	drainOne := func() {
		com.add(<-results)
		received++
	}
	submit := func(p *pattern.Pattern, fallback bool, coveredAnchors []graph.NodeID) {
		for submitted-received >= window {
			drainOne()
		}
		if e.mm != nil {
			e.mm.queueDepth.Observe(int64(submitted - received))
		}
		jobs <- scoreJob{seq: submitted, p: p, fallback: fallback, coveredAnchors: coveredAnchors}
		submitted++
	}

	// Fallback seeds first, exactly as in run; they never count toward the
	// grown budget and are always committed.
	for _, p := range e.fallbackSeeds() {
		submit(p, true, nil)
	}
	e.pushLabelSeeds()

	for len(e.queue) > 0 || len(e.queueLit) > 0 {
		// Fold in any finished results without blocking, so the budget check
		// below sees the freshest committed count.
		for {
			select {
			case r := <-results:
				com.add(r)
				received++
				continue
			default:
			}
			break
		}
		if com.grown >= e.cfg.MaxPatterns {
			break
		}
		var p *pattern.Pattern
		if len(e.queue) > 0 {
			p = e.queue[0]
			e.queue = e.queue[1:]
		} else {
			p = e.queueLit[0]
			e.queueLit = e.queueLit[1:]
		}
		// Anti-monotone pruning stays eager on the producer, since extensions
		// need coveredAnchors. This search is not cheap: it runs on the one
		// producer goroutine, serially with generation, and took 13–19% of
		// the CPU in profiles of perfbench's summarize workload. It is not
		// split across goroutines: the anchors lie in the fair selection
		// V_p, which FairSelect caps at n and at the groups' summed upper
		// bounds (8 nodes on perfbench's summarize groups). When the
		// universe is the anchors, score reuses the result rather than
		// repeating the search.
		coveredAnchors := e.m.CoverAmong(p, e.anchors)
		if len(coveredAnchors) < e.cfg.MinCover {
			if e.mm != nil {
				e.mm.pruned.Inc()
			}
			continue
		}
		submit(p, false, coveredAnchors)
		e.extend(p, coveredAnchors)
	}

	for received < submitted {
		drainOne()
	}
	close(jobs)
	wg.Wait()
}
