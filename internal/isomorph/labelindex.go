package isomorph

import "repro/internal/graph"

// LabelIndex is a precomputed node-label inverted index over one target
// graph: label -> the ascending list of target nodes carrying it. Built
// once per corpus graph (gindex does this at index-build time) and passed
// to the matcher via Options.TargetIndex, it replaces two per-call costs:
// the scan of every target node the matcher otherwise makes to count its
// pattern's labels when ranking pattern nodes by rarity, and the full 0..n
// root scan for each pattern component, which shrinks to just the nodes in
// the root label's class.
//
// A LabelIndex is immutable after Build and is only valid for the exact
// graph it was built from; rebuild after any target mutation.
type LabelIndex struct {
	nodes map[string][]graph.NodeID
	n     int
}

// BuildLabelIndex indexes the node labels of t.
func BuildLabelIndex(t *graph.Graph) *LabelIndex {
	ix := &LabelIndex{nodes: make(map[string][]graph.NodeID), n: t.NumNodes()}
	for v := 0; v < t.NumNodes(); v++ {
		l := t.NodeLabel(v)
		ix.nodes[l] = append(ix.nodes[l], graph.NodeID(v))
	}
	return ix
}

// Nodes returns the target nodes with the given label, ascending. The
// slice is shared; callers must not modify it.
func (ix *LabelIndex) Nodes(label string) []graph.NodeID { return ix.nodes[label] }

// Freq returns how many target nodes carry the label.
func (ix *LabelIndex) Freq(label string) int { return len(ix.nodes[label]) }

// NumNodes returns the node count of the indexed graph.
func (ix *LabelIndex) NumNodes() int { return ix.n }
