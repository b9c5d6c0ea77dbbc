// Package results structures the Results Panel: raw match lists are hard
// to explore (the tutorial's Section 2.5 notes that a result subgraph
// drawn as a hairball defeats the user), so this package provides
//
//   - faceting: matched graphs are grouped by which canned patterns they
//     contain, giving the user data-derived facets to drill into rather
//     than a flat list;
//   - highlighting: for one matched graph, the embedding of the query is
//     materialized as node/edge sets so the front end can emphasize *why*
//     the graph matched;
//   - result layout: a force-directed drawing of the matched graph with
//     the highlight attached, ready for an aesthetics-aware Results Panel.
package results

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/layout"
	"repro/internal/pattern"
)

// Facet is one group of matches sharing a canned pattern.
type Facet struct {
	// PatternIndex is the position of the facet's pattern in the panel
	// slice passed to Facets.
	PatternIndex int
	// Graphs are the names of matched graphs containing the pattern,
	// sorted.
	Graphs []string
}

// Facets groups matched corpus graphs by the canned patterns they contain.
// Patterns that match nothing produce no facet; graphs containing no panel
// pattern are collected in rest. Facets are ordered by decreasing size.
func Facets(matched []string, c *graph.Corpus, panel []*pattern.Pattern, opts isomorph.Options) (facets []Facet, rest []string) {
	return Group(matched, len(panel), func(pi, mi int) bool {
		g, ok := c.ByName(matched[mi])
		return ok && isomorph.Exists(panel[pi].G, g, opts)
	})
}

// Group is Facets over a containment relation decided elsewhere (e.g.
// memoized by an index): contains(pi, mi) reports whether matched[mi]
// contains panel pattern pi, for pi in [0, patterns). Facet order,
// membership and name sorting are Facets' own.
func Group(matched []string, patterns int, contains func(pi, mi int) bool) (facets []Facet, rest []string) {
	inFacet := make([]bool, len(matched))
	for pi := 0; pi < patterns; pi++ {
		var members []string
		for mi, name := range matched {
			if contains(pi, mi) {
				members = append(members, name)
				inFacet[mi] = true
			}
		}
		if len(members) > 0 {
			sort.Strings(members)
			facets = append(facets, Facet{PatternIndex: pi, Graphs: members})
		}
	}
	sort.SliceStable(facets, func(i, j int) bool {
		if len(facets[i].Graphs) != len(facets[j].Graphs) {
			return len(facets[i].Graphs) > len(facets[j].Graphs)
		}
		return facets[i].PatternIndex < facets[j].PatternIndex
	})
	for mi, name := range matched {
		if !inFacet[mi] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return facets, rest
}

// Highlight is the witness of one query match inside a data graph.
type Highlight struct {
	// Nodes are the data-graph nodes the query maps onto.
	Nodes []graph.NodeID
	// Edges are the data-graph edges covered by query edges.
	Edges []graph.EdgeID
}

// FindHighlight returns the first embedding of q in g as a highlight, or
// false if none exists within the search budget.
func FindHighlight(q, g *graph.Graph, opts isomorph.Options) (Highlight, bool) {
	var h Highlight
	found := false
	isomorph.Enumerate(q, g, opts, func(mapping []graph.NodeID) bool {
		h.Nodes = append([]graph.NodeID(nil), mapping...)
		for _, qe := range q.Edges() {
			if eid, ok := g.EdgeBetween(mapping[qe.U], mapping[qe.V]); ok {
				h.Edges = append(h.Edges, eid)
			}
		}
		found = true
		return false // first embedding suffices
	})
	if found {
		sort.Ints(h.Nodes)
		sort.Ints(h.Edges)
	}
	return h, found
}

// View is a drawable result: the matched graph's layout plus the match
// highlight.
type View struct {
	Graph     *graph.Graph
	Layout    *layout.Layout
	Highlight Highlight
	Metrics   layout.Metrics
}

// BuildView lays out the matched graph (best-of-seeds, aesthetics-aware)
// and attaches the query highlight. Returns false if q does not embed.
func BuildView(q, g *graph.Graph, w, h float64, seed int64, opts isomorph.Options) (View, bool) {
	hl, ok := FindHighlight(q, g, opts)
	if !ok {
		return View{}, false
	}
	items := layout.OptimizePanel([]*graph.Graph{g}, w, h, 4, seed)
	return View{Graph: g, Layout: items[0].Layout, Highlight: hl, Metrics: items[0].Metrics}, true
}
