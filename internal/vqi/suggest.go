package vqi

// Auto-suggestion. The tutorial's related-work interfaces (VIIQ and
// successors) assist top-down formulation by suggesting how a partial
// query could continue. A data-driven VQI gets this almost for free: the
// canned patterns *are* the statistically common shapes of the data
// source, so any canned pattern that contains the user's partial query as
// a subgraph is a plausible completion — and stamping it instead of
// drawing on is exactly the pattern-at-a-time shortcut the usability
// studies measure.

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/isomorph"
)

// Suggestion is one proposed completion of the current partial query.
type Suggestion struct {
	// PatternIndex identifies the suggested pattern in the combined
	// basic+canned panel order (usable with Session.StampPattern).
	PatternIndex int
	// Pattern is the panel entry itself.
	Pattern PatternSpec
	// NewEdges is how many edges the pattern adds beyond the partial
	// query — smaller means a gentler next step.
	NewEdges int
}

// Suggest returns the panel patterns that contain the session's current
// query as a (structural, label-compatible) subgraph, ordered by fewest
// new edges first then by cognitive load. An empty query suggests
// everything, cheapest first — the bottom-up entry point for a user with
// no pattern in mind.
func (s *Session) Suggest(limit int) ([]Suggestion, error) {
	all := append(append([]PatternSpec(nil), s.Spec.Patterns.Basic...), s.Spec.Patterns.Canned...)
	graphs, err := s.Spec.panelGraphs(all)
	if err != nil {
		return nil, err
	}
	var out []Suggestion
	q := s.Query
	opts := isomorph.Options{MaxEmbeddings: 1, MaxSteps: 100000}
	for i, ps := range all {
		pg := graphs[i]
		if pg.NumEdges() <= q.NumEdges() {
			continue // not a continuation
		}
		if q.NumNodes() > 0 && !isomorph.Exists(wildcardQuery(q), pg, opts) {
			continue
		}
		out = append(out, Suggestion{
			PatternIndex: i,
			Pattern:      ps,
			NewEdges:     pg.NumEdges() - q.NumEdges(),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].NewEdges != out[b].NewEdges {
			return out[a].NewEdges < out[b].NewEdges
		}
		if out[a].Pattern.CognitiveLoad != out[b].Pattern.CognitiveLoad {
			return out[a].Pattern.CognitiveLoad < out[b].Pattern.CognitiveLoad
		}
		return out[a].PatternIndex < out[b].PatternIndex
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// wildcardQuery relaxes labels the user has not constrained: empty labels
// stay wildcards, concrete labels must match the pattern's label or the
// pattern's own wildcard. Since isomorph treats the *pattern side* as the
// wildcard holder, we match the query into the candidate with the query's
// concrete labels required to be present — which is what "this pattern
// continues my query" means when the pattern carries data-derived labels.
func wildcardQuery(q *graph.Graph) *graph.Graph {
	// The query is already the "pattern" in the matching call; labels it
	// holds must appear in the suggestion. Wildcards ("") already match
	// anything, so the query is usable as-is. The indirection exists for
	// documentation and future relaxation policies.
	return q
}

// SuggestForSpec is a session-free variant used by HTTP handlers: it
// builds a throwaway query graph from wire data and suggests completions
// from the spec.
func SuggestForSpec(spec *Spec, q *graph.Graph, limit int) ([]Suggestion, error) {
	s := &Session{Spec: spec, Query: q}
	return s.Suggest(limit)
}

// decodedPanel is a spec's pattern panel decoded to graphs, basic then
// canned. A serving VQI suggests on every keystroke from one spec, so the
// spec keeps its last decode instead of rebuilding every pattern graph per
// call.
type decodedPanel struct {
	graphs []*graph.Graph
}

// panelGraphs returns the graphs of all (the spec's panel, basic then
// canned), reusing the memoized decode when it still matches every
// pattern. A panel edited since the last call is decoded afresh, so a
// stale graph is never used.
func (s *Spec) panelGraphs(all []PatternSpec) ([]*graph.Graph, error) {
	if d := s.panel.Load(); d != nil && d.decodes(all) {
		return d.graphs, nil
	}
	d := &decodedPanel{graphs: make([]*graph.Graph, len(all))}
	for i, ps := range all {
		g, err := ps.PatternGraph()
		if err != nil {
			return nil, err
		}
		d.graphs[i] = g
	}
	s.panel.Store(d)
	return d.graphs, nil
}

// decodes reports whether d's graphs are exactly the decode of all.
func (d *decodedPanel) decodes(all []PatternSpec) bool {
	if len(d.graphs) != len(all) {
		return false
	}
	for i, ps := range all {
		g := d.graphs[i]
		if g.Name() != ps.Name || g.NumNodes() != len(ps.NodeLabels) || g.NumEdges() != len(ps.Edges) {
			return false
		}
		for v, l := range ps.NodeLabels {
			if g.NodeLabel(v) != l {
				return false
			}
		}
		for id, e := range ps.Edges {
			if g.Edge(id) != (graph.Edge{U: e.U, V: e.V, Label: e.Label}) {
				return false
			}
		}
	}
	return true
}
