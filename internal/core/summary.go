// Package core implements the paper's contribution: r-summaries and the
// algorithms that compute and maintain them.
//
//   - Summary is the two-part "pattern-correction" structure S = (P, C) of
//     Section II: a pattern set covering group nodes at a common focus plus
//     the edge corrections that make the r-hop neighborhood reconstruction
//     lossless.
//   - Verify implements the rverify procedure of Section III-B.
//   - APXFGS (apxfgs.go) is the (½, ln n)-approximation of Section IV.
//   - KAPXFGS (kapxfgs.go) is the k-pattern, (½, 1+1/(eγ)) variant of
//     Section V.
//   - Online (online.go) is the streaming (¼, ln n + θ) algorithm of
//     Section VI.
//   - Maintainer (incfgs.go) is the Inc-FGS incremental maintenance of
//     Section VII.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// Config is the user configuration C = {r, k, n} of Section III plus the
// mining knobs.
type Config struct {
	// R is the reconstruction horizon: the summary losslessly describes the
	// r-hop neighborhoods of the covered group nodes.
	R int
	// K caps |P|, the number of patterns. K = 0 means unbounded (the
	// APXFGS setting of Theorem 3); K > 0 selects the Section V variant.
	K int
	// N caps |P_V|, the number of covered group nodes.
	N int
	// Mining bounds the SumGen pattern search; its Radius is forced to R.
	Mining mining.Config
	// PerNodePatterns caps candidates mined per arriving node in the online
	// and incremental algorithms. Default 25.
	PerNodePatterns int
	// Workers is the single parallelism knob for the whole pipeline: it flows
	// into Mining.Workers, the size of SumGen's candidate scoring pool,
	// unless that is set explicitly. 0/1 = sequential; results are identical
	// at any setting.
	Workers int
	// Obs receives phase spans and runtime counters. Nil disables both (Stats
	// are kept regardless); it flows into Mining.Obs unless that is set.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.R <= 0 {
		c.R = 2
	}
	if c.N <= 0 {
		c.N = 10
	}
	c.Mining.Radius = c.R
	if c.PerNodePatterns <= 0 {
		c.PerNodePatterns = 25
	}
	if c.Mining.Workers == 0 {
		c.Mining.Workers = c.Workers
	}
	if c.Mining.Obs == nil {
		c.Mining.Obs = c.Obs
	}
	return c
}

// PatternInfo is one selected pattern with its evaluation artifacts.
type PatternInfo struct {
	P *pattern.Pattern
	// Covered is P_V: the group nodes covered at the focus, sorted.
	Covered []graph.NodeID
	// CoveredEdges is P_E restricted to embeddings at covered group nodes.
	CoveredEdges graph.EdgeSet
	// CP is C_P = |E^r_{P_V} \ P_E|, the pattern's edge-coverage loss.
	CP int
}

// infoOf converts a mined candidate to the public PatternInfo, materializing
// its covered-edge list into the map representation at the API boundary.
// g may be nil for synthetic candidates (tests, benches) that carry no
// edges; such candidates get a nil (empty, read-only) edge set rather than
// paying a map allocation per selection.
func infoOf(g *graph.Graph, cand *mining.Candidate) PatternInfo {
	pi := PatternInfo{P: cand.P, Covered: cand.Covered, CP: cand.CP}
	if g != nil && cand.CoveredEdges != nil {
		pi.CoveredEdges = g.EdgeSetOfIDs(cand.CoveredEdges)
	}
	return pi
}

// rescore re-evaluates p against the selection: P_V is the selected nodes p
// covers, sorted; P_E the edges of its embeddings at them; C_P the edges of
// their r-hop neighborhoods P_E misses, counted through er. Inc-FGS rescores
// the patterns a batch touches, Online every pattern once its stream ends.
// A pattern covering no selected node comes back with Covered empty.
func rescore(m *pattern.Matcher, er *mining.ErCache, p *pattern.Pattern, selected []graph.NodeID) PatternInfo {
	covered := sortNodes(m.CoverAmong(p, selected))
	if len(covered) == 0 {
		return PatternInfo{P: p}
	}
	g := m.Graph()
	edges := graph.AcquireEdgeAcc(g.EdgeIDBound())
	defer edges.Release()
	for _, v := range covered {
		m.CoveredEdgeBitsAt(p, v, edges)
	}
	cp := er.UnionAndNotCount(covered, edges.Bits())
	return PatternInfo{P: p, Covered: covered, CoveredEdges: g.EdgeSetOfIDs(edges.IDs()), CP: cp}
}

// Summary is an r-summary S = (P, C).
type Summary struct {
	R int
	// Patterns is P with per-pattern bookkeeping.
	Patterns []PatternInfo
	// Covered is P_V: all group nodes covered by the pattern set, sorted.
	Covered []graph.NodeID
	// Corrections is C = E^r_{P_V} \ P_E.
	Corrections graph.EdgeSet
	// CL is the accumulated edge-coverage loss C_l = Σ_P C_P.
	CL int
	// Utility is F(P_V) for the utility the summary was computed under.
	Utility float64
	// Uncovered lists selected nodes the greedy could not cover without
	// violating feasibility; empty in the common case.
	Uncovered []graph.NodeID
	// Stats records phase timings for the efficiency experiments.
	Stats Stats
}

// PhaseStat is the aggregated timing of one named pipeline phase.
type PhaseStat struct {
	Name string
	Time time.Duration
	// Count is the number of spans merged into this phase (1 for batch runs;
	// the per-window invocation count for streaming runs).
	Count int
}

// Stats carries per-phase timings and counters. The run adds each phase as
// it ends (see runObs), so Total is the sum of the phases actually run.
type Stats struct {
	// Phases lists the run's phases in first-execution order.
	Phases []PhaseStat
	// Candidates is N, the number of patterns generated and verified.
	Candidates int
	// Windows counts stream windows processed (online/incremental runs only),
	// so per-window averages are computable from exported metrics.
	Windows int
}

// Phase returns the aggregated duration of the named phase (0 if absent).
func (s Stats) Phase(name string) time.Duration {
	for _, p := range s.Phases {
		if p.Name == name {
			return p.Time
		}
	}
	return 0
}

// SelectTime returns the selection-phase duration.
func (s Stats) SelectTime() time.Duration { return s.Phase(PhaseSelect) }

// MineTime returns the mining-phase duration.
func (s Stats) MineTime() time.Duration { return s.Phase(PhaseMine) }

// SummarizeTime returns the summarization-phase duration.
func (s Stats) SummarizeTime() time.Duration { return s.Phase(PhaseSummarize) }

// Total returns the end-to-end time: the sum over all recorded phases.
func (s Stats) Total() time.Duration {
	var t time.Duration
	for _, p := range s.Phases {
		t += p.Time
	}
	return t
}

// NumPatterns returns |P|.
func (s *Summary) NumPatterns() int { return len(s.Patterns) }

// Size returns the description length of the summary: pattern sizes, the
// anchor list, and the corrections. This is the numerator of the compression
// ratio reported in the experiments.
func (s *Summary) Size() int {
	size := s.Corrections.Len() + len(s.Covered)
	for _, pi := range s.Patterns {
		size += pi.P.Size()
	}
	return size
}

// EdgeCoverageRatio reports the fraction of E^r_{P_V} the patterns describe
// without corrections: 1 − |C| / |E^r_{P_V}|. It is the empirical analog of
// the quantity behind Theorem 5's γ (γ = |E^r| / |P*_E ∩ E^r| − 1): a high
// ratio means the pattern set itself reconstructs most of the neighborhoods
// and the (1 + 1/(e·γ)) approximation on |C| is tight.
func (s *Summary) EdgeCoverageRatio(g *graph.Graph) float64 {
	total := g.RHopEdgesOf(s.Covered, s.R).Len()
	if total == 0 {
		return 1
	}
	return 1 - float64(s.Corrections.Len())/float64(total)
}

// DescribedEdges returns E^r_{P_V}: the edge set the summary losslessly
// describes, reconstructed as P_E ∪ C.
func (s *Summary) DescribedEdges() graph.EdgeSet {
	out := s.Corrections.Clone()
	for _, pi := range s.Patterns {
		out.AddAll(pi.CoveredEdges)
	}
	return out
}

// Reconstruct checks losslessness directly against the graph: P_E ∪ C must
// contain every edge of E^r_{P_V} (missing is the shortfall), and must not
// fabricate edges absent from the graph (spurious). P_E may legitimately
// include real edges beyond E^r_{P_V} when a pattern also matches elsewhere;
// those are not errors. Both returned sets are empty for a correct summary.
func (s *Summary) Reconstruct(g *graph.Graph) (missing, spurious graph.EdgeSet) {
	want := g.RHopEdgesOf(s.Covered, s.R)
	have := s.DescribedEdges()
	missing = want.Minus(have)
	spurious = graph.NewEdgeSet(0)
	for e := range have {
		if !g.HasEdge(e.From, e.To, e.Label) {
			spurious.Add(e)
		}
	}
	return missing, spurious
}

// String renders a short human-readable account of the summary.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-summary: %d patterns, %d covered nodes, |C|=%d, C_l=%d, F=%.1f\n",
		s.R, len(s.Patterns), len(s.Covered), s.Corrections.Len(), s.CL, s.Utility)
	for i, pi := range s.Patterns {
		fmt.Fprintf(&b, "  P%d covers %d nodes, C_P=%d: %s\n", i+1, len(pi.Covered), pi.CP, pi.P)
	}
	return b.String()
}

// sortNodes sorts a node slice in place and returns it.
func sortNodes(ids []graph.NodeID) []graph.NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// buildSummary assembles the final structure from chosen patterns.
func buildSummary(cfg Config, chosen []PatternInfo, er *mining.ErCache, util submod.Utility, uncovered []graph.NodeID, stats Stats) *Summary {
	coveredSet := graph.NewNodeSet(0)
	coveredEdges := graph.NewEdgeSet(0)
	cl := 0
	for _, pi := range chosen {
		for _, v := range pi.Covered {
			coveredSet.Add(v)
		}
		coveredEdges.AddAll(pi.CoveredEdges)
		cl += pi.CP
	}
	covered := make([]graph.NodeID, 0, coveredSet.Len())
	for v := range coveredSet {
		covered = append(covered, v)
	}
	// Inline sort (not sortNodes) so fgslint's maporder can prove the
	// map-iteration order never reaches the summary.
	slices.Sort(covered)
	// C = E^r_{P_V} \ P_E on the dense bitsets (one word-sweep), materialized
	// into the public map representation at the end. P_E entries for edges
	// since deleted drop out of the conversion, which cannot change the
	// difference: a deleted edge is never in the freshly computed E^r_{P_V}.
	g := er.Graph()
	corrections := g.EdgeSetOf(er.UnionOf(covered).Minus(g.EdgeBitsOf(coveredEdges)))
	return &Summary{
		R:           cfg.R,
		Patterns:    chosen,
		Covered:     covered,
		Corrections: corrections,
		CL:          cl,
		// Evaluate on a clone: the caller's utility may hold live streaming
		// state that Eval's Reset would corrupt.
		Utility:   submod.Eval(util.Clone(), covered),
		Uncovered: sortNodes(uncovered),
		Stats:     stats,
	}
}
