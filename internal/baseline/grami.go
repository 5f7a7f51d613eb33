package baseline

import (
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// GramiConfig configures the GraMi adaptation.
type GramiConfig struct {
	// R is the reconstruction horizon used when charging corrections.
	R int
	// K is the number of top frequent patterns kept as the summary.
	K int
	// N truncates the covered node set for comparability with FGS.
	N int
	// MinSup prunes patterns below this focus-match support. Default 2.
	MinSup int
	// Mining bounds the pattern search (Radius forced to R).
	Mining mining.Config
}

// Grami summarizes the groups with the top-k most frequent subgraph
// patterns, mined over all group nodes with no fairness constraint — the
// paper's adaptation of GraMi [11]. Covered nodes follow pattern rank order:
// the most frequent pattern contributes its matches first, so the result
// mirrors the majority skew frequent mining exhibits in Example 2.
//
// Grami is lossless in this adaptation: corrections are charged for every
// r-hop edge of the covered nodes that no selected pattern describes.
func Grami(g *graph.Graph, groups *submod.Groups, cfg GramiConfig) Result {
	clock := cfg.Mining.Obs.GetClock()
	start := clock.Now()
	if cfg.MinSup <= 0 {
		cfg.MinSup = 2
	}
	cfg.Mining.Radius = cfg.R
	freq := mining.Frequent(g, groups.All(), cfg.Mining, cfg.K, cfg.MinSup)

	var covered []graph.NodeID
	seen := graph.NewNodeSet(cfg.N)
	structure := 0
	patterns := make([]*pattern.Pattern, 0, len(freq))
	for _, f := range freq {
		patterns = append(patterns, f.P)
		structure += f.P.Size()
		covered = dedupAppend(covered, f.Covered, seen)
	}
	covered = truncate(covered, cfg.N)

	corrections := countCorrections(g, patterns, covered, cfg.R, cfg.Mining.EmbedCap)
	return Result{
		Patterns:      patterns,
		Covered:       covered,
		StructureSize: structure,
		Corrections:   corrections,
		Elapsed:       clock.Now().Sub(start),
	}
}

// countCorrections charges |E^r_covered \ P_E| for a pattern-based summary:
// the edges of the covered nodes' r-hop neighborhoods that no pattern
// embedding (anchored at a covered node) describes.
func countCorrections(g *graph.Graph, patterns []*pattern.Pattern, covered []graph.NodeID, r, embedCap int) int {
	if len(covered) == 0 {
		return 0
	}
	m := pattern.NewMatcher(g, embedCap)
	described := graph.AcquireEdgeAcc(g.EdgeIDBound())
	defer described.Release()
	for _, p := range patterns {
		for _, v := range covered {
			m.CoveredEdgeBitsAt(p, v, described)
		}
	}
	return g.RHopEdgeBitsOf(covered, r).AndNotCount(described.Bits())
}
