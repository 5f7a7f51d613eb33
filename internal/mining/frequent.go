package mining

import (
	"sort"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/pattern"
)

// FreqPattern is one frequent pattern: support counts distinct focus matches
// among the universe (the MNI-style, anti-monotone support of GraMi [11]
// restricted to the focus image).
type FreqPattern struct {
	P       *pattern.Pattern
	Support int
	Covered []graph.NodeID
}

// Frequent mines the top-k most frequent focus-rooted patterns over the
// given universe of nodes, pruning below minSup. It is the discovery engine
// behind the GraMi baseline: unconstrained by group bounds, ranked purely by
// support. Ties break toward larger patterns (GraMi's adaptation in the
// paper "encourages" informative patterns) and then generation order.
//
// The search explores at most cfg.MaxPatterns patterns; cfg.MinCover is
// overridden by minSup.
func Frequent(g *graph.Graph, universe []graph.NodeID, cfg Config, topK, minSup int) []*FreqPattern {
	cfg = cfg.withDefaults()
	if minSup < 1 {
		minSup = 1
	}
	cfg.MinCover = minSup
	m := pattern.NewMatcher(g, cfg.EmbedCap)
	m.SetWorkers(cfg.Workers)
	eng := &engine{
		g:                g,
		m:                m,
		cfg:              cfg,
		er:               NewErCache(g, cfg.Radius),
		universe:         universe,
		anchors:          universe,
		anchSet:          graph.NodeSetOf(universe),
		universeIsAnchor: true,
		seen:             make(map[string]bool),
		skipScore:        true,
		noFallback:       true,
	}
	eng.buildTemplates()
	if cfg.Workers > 1 {
		eng.runParallel()
	} else {
		eng.run()
	}

	out := make([]*FreqPattern, 0, len(eng.out))
	for _, c := range eng.out {
		out = append(out, &FreqPattern{P: c.P, Support: len(c.Covered), Covered: c.Covered})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].P.Size() > out[j].P.Size()
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}
