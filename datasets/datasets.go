// Package datasets exposes the seeded synthetic evaluation graphs of the
// reproduction — stand-ins for the paper's DBP (DBpedia movies), LKI
// (social network with skewed gender), Cite (citation graph), and the
// pandemic contact network — together with helpers that induce node groups
// from attribute values. See DESIGN.md for what each generator preserves of
// its real-world counterpart.
package datasets

import (
	"fmt"
	"strconv"
	"strings"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/internal/gen"
)

// DBP generates the movie knowledge graph (movies, directors, actors; genre
// frequencies skewed as in DBpedia). Scale 1 ≈ 1.4k nodes.
func DBP(seed int64, scale int) *fgs.Graph { return gen.DBP(seed, scale) }

// LKI generates the social network (users with a 77/23 gender skew, orgs,
// co-review and employment edges, heavy-tailed degrees). Scale 1 = 2k users.
func LKI(seed int64, scale int) *fgs.Graph { return gen.LKI(seed, scale) }

// Cite generates the citation graph (papers with skewed topics, authors,
// preferential citations). Scale 1 ≈ 2.1k nodes.
func Cite(seed int64, scale int) *fgs.Graph { return gen.Cite(seed, scale) }

// Pandemic generates the contact network of the paper's immunization case
// study: n citizens, 58% under age 50, community-structured contacts.
func Pandemic(seed int64, n int) *fgs.Graph { return gen.Pandemic(seed, n) }

// LKISized generates the LKI social network with approximately n nodes —
// the scale-tier variant: the city attribute's cardinality grows with n, so
// city-induced groups stay roughly constant-sized at any scale.
func LKISized(seed int64, n int) *fgs.Graph { return gen.LKISized(seed, n) }

// DBPSized generates the DBP movie graph with approximately n nodes; the
// movies carry a scaled "franchise" attribute whose cohorts stay roughly
// constant-sized at any scale.
func DBPSized(seed int64, n int) *fgs.Graph { return gen.DBPSized(seed, n) }

// GroupsByAttr induces one group per attribute value over nodes with the
// given label, each with the coverage constraint [lower, upper].
func GroupsByAttr(g *fgs.Graph, label, key string, values []string, lower, upper int) (*fgs.Groups, error) {
	return gen.GroupsByAttr(g, label, key, values, lower, upper)
}

// ParseGroupSpec splits a group spec "label:attr:val1,val2:lower:upper",
// the -groups syntax of the commands, into GroupsByAttr's arguments. Both
// bounds must be decimal integers.
func ParseGroupSpec(spec string) (label, attr string, values []string, lower, upper int, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return "", "", nil, 0, 0, fmt.Errorf("bad group spec %q: want label:attr:val1,val2:lower:upper", spec)
	}
	lower, err1 := strconv.Atoi(parts[3])
	upper, err2 := strconv.Atoi(parts[4])
	if err1 != nil || err2 != nil {
		return "", "", nil, 0, 0, fmt.Errorf("bad group spec bounds in %q", spec)
	}
	return parts[0], parts[1], strings.Split(parts[2], ","), lower, upper, nil
}

// GroupsByAttrPairs induces one group per combination of two attributes'
// values (e.g. gender x degree).
func GroupsByAttrPairs(g *fgs.Graph, label, key1 string, vals1 []string, key2 string, vals2 []string, lower, upper int) (*fgs.Groups, error) {
	return gen.GroupsByAttrPairs(g, label, key1, vals1, key2, vals2, lower, upper)
}
