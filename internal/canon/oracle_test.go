package canon

// The differential oracle: the canonizer as it was before its refinement
// moved onto byte arenas (fmt, sort.Strings and a map[string]int per round),
// kept verbatim apart from renamed identifiers. differential_test.go
// requires String to return exactly refString's bytes.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// refString returns the canonical string of g. Two graphs have equal canonical
// strings iff they are isomorphic as labeled graphs.
func refString(g *graph.Graph) string {
	n := g.NumNodes()
	if n == 0 {
		return "n0;"
	}
	c := &refCanonizer{g: g}
	colors := c.refine(c.initialColors())
	return c.search(colors)
}

type refCanonizer struct {
	g *graph.Graph
}

// initialColors assigns colors by (node label, degree).
func (c *refCanonizer) initialColors() []int {
	n := c.g.NumNodes()
	sig := make([]string, n)
	for v := 0; v < n; v++ {
		sig[v] = fmt.Sprintf("%s|%09d", c.g.NodeLabel(v), c.g.Degree(v))
	}
	return refAssignColors(sig)
}

// refine runs color refinement until the partition stabilizes. Signatures
// are built so their lexicographic order is isomorphism-invariant: the old
// color (zero-padded) followed by the sorted multiset of
// (edge label, neighbor color) pairs.
func (c *refCanonizer) refine(colors []int) []int {
	n := c.g.NumNodes()
	sig := make([]string, n)
	classes := refNumClasses(colors)
	for round := 0; round < n; round++ {
		for v := 0; v < n; v++ {
			var parts []string
			c.g.VisitNeighbors(v, func(nbr graph.NodeID, e graph.EdgeID) bool {
				parts = append(parts, fmt.Sprintf("%s:%09d", c.g.EdgeLabel(e), colors[nbr]))
				return true
			})
			sort.Strings(parts)
			sig[v] = fmt.Sprintf("%09d(%s)", colors[v], strings.Join(parts, ","))
		}
		next := refAssignColors(sig)
		nextClasses := refNumClasses(next)
		colors = next
		if nextClasses == classes {
			break
		}
		classes = nextClasses
	}
	return colors
}

// search performs individualization-refinement and returns the minimal
// encoding reachable from the given stable coloring.
func (c *refCanonizer) search(colors []int) string {
	cell := refFirstNonSingletonCell(colors)
	if cell == nil {
		return c.encodeDiscrete(colors)
	}
	// Twin-class pruning: if every pair of cell members is interchangeable
	// by an automorphism that fixes everything else (identical labeled
	// neighborhoods outside the cell, uniform adjacency inside), all
	// branches yield the same encoding — one suffices. This keeps cliques,
	// stars, and independent twin sets polynomial, where refinement alone
	// never splits the class.
	if c.isTwinClass(cell) {
		cell = cell[:1]
	}
	best := ""
	for _, v := range cell {
		ind := c.individualize(colors, v)
		enc := c.search(c.refine(ind))
		if best == "" || enc < best {
			best = enc
		}
	}
	return best
}

// isTwinClass reports whether all members of cell are pairwise twins: same
// node label, identical labeled adjacency to every node outside the cell,
// and uniform adjacency (all-present with one edge label, or all-absent)
// inside the cell.
func (c *refCanonizer) isTwinClass(cell []graph.NodeID) bool {
	if len(cell) < 2 {
		return true
	}
	inCell := make(map[graph.NodeID]bool, len(cell))
	for _, v := range cell {
		inCell[v] = true
	}
	// Outside adjacency of the first member, as reference.
	ref := c.outsideAdjacency(cell[0], inCell)
	for _, v := range cell[1:] {
		if c.g.NodeLabel(v) != c.g.NodeLabel(cell[0]) {
			return false
		}
		adj := c.outsideAdjacency(v, inCell)
		if len(adj) != len(ref) {
			return false
		}
		for u, l := range ref {
			if adj[u] != l {
				return false
			}
		}
	}
	// Inside adjacency must be uniform: complete with a single edge label,
	// or empty.
	var edgeLabel string
	var anyEdge, anyMissing bool
	for i := 0; i < len(cell); i++ {
		for j := i + 1; j < len(cell); j++ {
			if e, ok := c.g.EdgeBetween(cell[i], cell[j]); ok {
				l := c.g.EdgeLabel(e)
				if anyEdge && l != edgeLabel {
					return false
				}
				anyEdge, edgeLabel = true, l
			} else {
				anyMissing = true
			}
		}
	}
	return !(anyEdge && anyMissing)
}

// outsideAdjacency returns the labeled adjacency of v restricted to nodes
// outside the cell.
func (c *refCanonizer) outsideAdjacency(v graph.NodeID, inCell map[graph.NodeID]bool) map[graph.NodeID]string {
	adj := make(map[graph.NodeID]string)
	c.g.VisitNeighbors(v, func(nbr graph.NodeID, e graph.EdgeID) bool {
		if !inCell[nbr] {
			adj[nbr] = c.g.EdgeLabel(e)
		}
		return true
	})
	return adj
}

// individualize gives v a color strictly smaller than the rest of its cell
// while preserving the relative order of all other cells.
func (c *refCanonizer) individualize(colors []int, v graph.NodeID) []int {
	out := make([]int, len(colors))
	for u, col := range colors {
		out[u] = col * 2
		if col > colors[v] || (col == colors[v] && u != int(v)) {
			out[u]++
		}
	}
	// Re-densify; numeric order is preserved by zero-padded signatures.
	sig := make([]string, len(out))
	for u, col := range out {
		sig[u] = fmt.Sprintf("%09d", col)
	}
	return refAssignColors(sig)
}

// refFirstNonSingletonCell returns the members of the lowest-colored class with
// more than one member, or nil if the coloring is discrete.
func refFirstNonSingletonCell(colors []int) []graph.NodeID {
	counts := make(map[int]int)
	for _, col := range colors {
		counts[col]++
	}
	bestColor := -1
	for col, k := range counts {
		if k > 1 && (bestColor == -1 || col < bestColor) {
			bestColor = col
		}
	}
	if bestColor == -1 {
		return nil
	}
	var cell []graph.NodeID
	for v, col := range colors {
		if col == bestColor {
			cell = append(cell, v)
		}
	}
	return cell
}

// encodeDiscrete serializes the graph under the node order given by a
// discrete (all-singleton) coloring.
func (c *refCanonizer) encodeDiscrete(colors []int) string {
	n := c.g.NumNodes()
	perm := make([]graph.NodeID, n)
	for v, col := range colors {
		perm[col] = v
	}
	return refEncode(c.g, perm)
}

// refAssignColors maps signature strings to dense integers ordered by
// signature, keeping colors isomorphism-invariant.
func refAssignColors(sig []string) []int {
	uniq := append([]string(nil), sig...)
	sort.Strings(uniq)
	uniq = refDedupStrings(uniq)
	idx := make(map[string]int, len(uniq))
	for i, s := range uniq {
		idx[s] = i
	}
	colors := make([]int, len(sig))
	for v, s := range sig {
		colors[v] = idx[s]
	}
	return colors
}

func refDedupStrings(s []string) []string {
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func refNumClasses(c []int) int {
	max := -1
	for _, x := range c {
		if x > max {
			max = x
		}
	}
	return max + 1
}

// encode serializes g under the node ordering perm: node count, node labels
// in order, then sorted renumbered edges.
func refEncode(g *graph.Graph, perm []graph.NodeID) string {
	pos := make([]int, g.NumNodes())
	for i, v := range perm {
		pos[v] = i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;", g.NumNodes())
	for _, v := range perm {
		b.WriteString(g.NodeLabel(v))
		b.WriteByte(';')
	}
	type edgeRec struct {
		u, v  int
		label string
	}
	edges := make([]edgeRec, 0, g.NumEdges())
	for _, e := range g.Edges() {
		u, v := pos[e.U], pos[e.V]
		if u > v {
			u, v = v, u
		}
		edges = append(edges, edgeRec{u, v, e.Label})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].label < edges[j].label
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "%d-%d:%s;", e.u, e.v, e.label)
	}
	return b.String()
}
