package lint

// dataflow.go is the generic forward dataflow core over funcCFG
// (DESIGN.md §12). The state domain is a bitset of client-defined facts —
// for the must-pair analysis, fact i means "resource i is currently open".
// The solver runs a standard worklist to fixpoint with union at joins, i.e.
// a MAY analysis: a fact holds at a point if it holds on at least one path
// reaching it, which is exactly the leak question ("is there a path to this
// return on which the resource is still open?").
//
// Clients supply:
//   - a per-statement transfer function (gen/kill of facts), and
//   - an optional per-edge refinement, so a conditional like `err != nil`
//     or `errors.Is(err, ...)` can kill facts on the branch it proves dead
//     (an acquire that failed never produced a live resource).
//
// witnessPath reconstructs one concrete leaking path for diagnostics: the
// blocks, in order, along which the fact stays open from its gen site to an
// exit, reported as source lines.

import (
	"go/ast"
	"go/token"
)

// factSet is a small bitset over fact indices.
type factSet []uint64

func newFactSet(n int) factSet { return make(factSet, (n+63)/64) }

func (s factSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s factSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s factSet) del(i int)      { s[i/64] &^= 1 << (i % 64) }

func (s factSet) clone() factSet {
	out := make(factSet, len(s))
	copy(out, s)
	return out
}

// unionInto ors other into s, reporting whether s changed.
func (s factSet) unionInto(other factSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | other[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// flowProblem describes one forward may-analysis instance.
type flowProblem struct {
	numFacts int

	// transferStmt applies one statement's effect to state in place.
	transferStmt func(n ast.Node, state factSet)

	// refineEdge, if non-nil, adjusts state for the edge from→from.succs[succIdx]
	// in place (called on a private copy).
	refineEdge func(from *cfgBlock, succIdx int, state factSet)
}

// flowResult holds the fixpoint: the state at entry to each block.
type flowResult struct {
	problem *flowProblem
	cfg     *funcCFG
	in      []factSet // indexed by block index
}

// solveForward runs the worklist algorithm to fixpoint.
func solveForward(cfg *funcCFG, p *flowProblem) *flowResult {
	res := &flowResult{problem: p, cfg: cfg, in: make([]factSet, len(cfg.blocks))}
	for i := range res.in {
		res.in[i] = newFactSet(p.numFacts)
	}
	// Worklist seeded with every block (entry first, then index order), so
	// each is processed at least once even when its in-state never changes
	// from the initial empty set; deterministic order via FIFO queue.
	queue := make([]*cfgBlock, 0, len(cfg.blocks))
	queued := make([]bool, len(cfg.blocks))
	queue = append(queue, cfg.entry)
	queued[cfg.entry.index] = true
	for _, blk := range cfg.blocks {
		if !queued[blk.index] {
			queue = append(queue, blk)
			queued[blk.index] = true
		}
	}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		queued[blk.index] = false

		out := res.in[blk.index].clone()
		for _, n := range blk.stmts {
			p.transferStmt(n, out)
		}
		for si, succ := range blk.succs {
			edgeState := out
			if p.refineEdge != nil {
				edgeState = out.clone()
				p.refineEdge(blk, si, edgeState)
			}
			if res.in[succ.index].unionInto(edgeState) && !queued[succ.index] {
				queued[succ.index] = true
				queue = append(queue, succ)
			}
		}
	}
	return res
}

// leaksAtExit reports the facts open on entry to the normal exit block —
// i.e. resources some path returns without releasing. Panic exits are
// deliberately excluded: a panicking path is already an error diagnostic of
// its own (nopanic) and unwinds the whole goroutine.
func (r *flowResult) leaksAtExit() []int {
	state := r.in[r.cfg.exit.index]
	var out []int
	for i := 0; i < r.problem.numFacts; i++ {
		if state.has(i) {
			out = append(out, i)
		}
	}
	return out
}

// witnessPath reconstructs one path along which fact stays open from genBlock
// to the exit, as a deterministic DFS (successors in construction order). It
// returns the line numbers of the blocks traversed (deduplicated, in path
// order) and the position of the exiting statement (the return), or ok=false
// if no such path exists.
func (r *flowResult) witnessPath(fset *token.FileSet, fact int, genBlock *cfgBlock) (lines []int, exitPos token.Pos, ok bool) {
	visited := make([]bool, len(r.cfg.blocks))
	var path []*cfgBlock

	var dfs func(blk *cfgBlock) bool
	dfs = func(blk *cfgBlock) bool {
		if blk == r.cfg.exit {
			return true
		}
		if visited[blk.index] {
			return false
		}
		visited[blk.index] = true
		// The fact must survive this block for the path to be a leak path.
		state := r.in[blk.index].clone()
		if blk != genBlock && !state.has(fact) {
			return false
		}
		out := state
		for _, n := range blk.stmts {
			r.problem.transferStmt(n, out)
		}
		if !out.has(fact) {
			return false
		}
		path = append(path, blk)
		for si, succ := range blk.succs {
			if r.problem.refineEdge != nil {
				edge := out.clone()
				r.problem.refineEdge(blk, si, edge)
				if !edge.has(fact) {
					continue
				}
			}
			if dfs(succ) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}

	if !dfs(genBlock) {
		return nil, token.NoPos, false
	}
	seenLine := make(map[int]bool)
	for _, blk := range path {
		if blk.pos == token.NoPos {
			continue
		}
		line := fset.Position(blk.pos).Line
		if !seenLine[line] {
			seenLine[line] = true
			lines = append(lines, line)
		}
	}
	// The exiting statement is the last statement of the final block on the
	// path (a return) when there is one; otherwise the function end.
	if last := path[len(path)-1]; len(last.stmts) > 0 {
		exitPos = last.stmts[len(last.stmts)-1].Pos()
	}
	return lines, exitPos, true
}
