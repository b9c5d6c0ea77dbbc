package plan

import (
	"fmt"
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
)

// Fragment is one sub-pattern of a decomposed query: a connected subgraph
// of the pattern together with the mapping from fragment node ids back to
// pattern node ids. Fragments are keyed by canonical code, so a
// materialized view computed for one query's fragment is shared by every
// other query that decomposes into the same sub-pattern — including the
// canned patterns a query panel offers, which are exactly the recurring
// sub-shapes users compose larger queries from.
type Fragment struct {
	G *graph.Graph
	// Nodes maps fragment node id -> pattern node id.
	Nodes []int
	// Canon is the fragment's canonical code (view cache key base).
	Canon string
}

// Decompose splits a connected pattern into 2..maxFragments fragments
// that jointly cover every pattern edge and pairwise chain through shared
// nodes: the first fragment is the pattern induced on a prefix of the
// compiled matching order holding about half the edges, and each
// remaining fragment is a connected component of the leftover edges
// (every one of which touches the prefix, because the pattern is
// connected). Returns nil when the pattern does not usefully decompose
// (disconnected, too small, or too many components).
//
// Soundness requirement used by the executor: any embedding of the whole
// pattern restricts to an embedding of each fragment, so a graph missing
// any fragment cannot contain the pattern. Fragments only prune the
// candidates the executor verifies against the whole pattern; they never
// change the answer, only how much of it is computed from cached views.
func Decompose(a *AST, order []int, maxFragments int) []Fragment {
	n, m := len(a.Nodes), len(a.Edges)
	if !a.Connected || n < 3 || m < 4 || maxFragments < 2 {
		return nil
	}
	rank := make([]int, n)
	for i, v := range order {
		rank[v] = i
	}
	// Find the shortest order prefix holding >= half the edges, leaving at
	// least one node (hence >= 1 edge, by connectivity) outside.
	target := (m + 1) / 2
	prefixLen, inPrefix := 0, 0
	for j := 1; j < n-1; j++ {
		for _, ei := range a.adj[order[j]] {
			if rank[a.other(ei, order[j])] < j {
				inPrefix++
			}
		}
		if inPrefix >= target {
			prefixLen = j + 1
			break
		}
	}
	if prefixLen == 0 || inPrefix == m {
		return nil
	}

	prefix := make([]bool, n)
	for _, v := range order[:prefixLen] {
		prefix[v] = true
	}
	var restEdges []int
	for ei := range a.Edges {
		e := a.Edges[ei]
		if !prefix[e.U] || !prefix[e.V] {
			restEdges = append(restEdges, ei)
		}
	}

	// Union the leftover edges into connected components.
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for _, ei := range restEdges {
		e := a.Edges[ei]
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	comps := make(map[int][]int) // root -> edge ids
	for _, ei := range restEdges {
		r := find(a.Edges[ei].U)
		comps[r] = append(comps[r], ei)
	}
	if 1+len(comps) > maxFragments {
		return nil
	}

	frags := []Fragment{buildFragment(a, order[:prefixLen], nil, 0)}
	// Deterministic component order: by smallest pattern node involved.
	roots := make([]int, 0, len(comps))
	for r := range comps {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		return minNode(a, comps[roots[i]]) < minNode(a, comps[roots[j]])
	})
	for fi, r := range roots {
		frags = append(frags, buildFragment(a, nil, growFragment(a, comps[r]), fi+1))
	}
	return frags
}

// minFragEdges is the smallest fragment worth materializing a view for: a
// 2-3-edge motif matches nearly every graph in a skewed corpus, so its
// view prunes nothing and the join degenerates to the prefix view alone.
const minFragEdges = 6

// growFragment pads an undersized leftover component with adjacent
// pattern edges until it reaches minFragEdges or runs out of pattern.
// Fragments may overlap — soundness never depended on disjointness (any
// whole-pattern embedding restricts to every fragment either way), and a
// bigger fragment is a rarer one, which is the whole point of a view.
// Ring-closing edges (both endpoints already in the fragment) are taken
// first: they tighten the view without growing its embedding count.
func growFragment(a *AST, edges []int) []int {
	if len(edges) >= minFragEdges {
		return edges
	}
	grown := append([]int(nil), edges...)
	inSet := make(map[int]bool, len(grown))
	nodeSet := make(map[int]bool)
	for _, ei := range grown {
		inSet[ei] = true
		nodeSet[a.Edges[ei].U] = true
		nodeSet[a.Edges[ei].V] = true
	}
	for len(grown) < minFragEdges {
		best := -1 // ascending edge index within each class: deterministic
		for ei := range a.Edges {
			if inSet[ei] {
				continue
			}
			e := a.Edges[ei]
			if nodeSet[e.U] && nodeSet[e.V] {
				best = ei
				break
			}
			if best < 0 && (nodeSet[e.U] || nodeSet[e.V]) {
				best = ei
			}
		}
		if best < 0 {
			break
		}
		inSet[best] = true
		grown = append(grown, best)
		nodeSet[a.Edges[best].U] = true
		nodeSet[a.Edges[best].V] = true
	}
	return grown
}

func minNode(a *AST, edges []int) int {
	lo := a.Edges[edges[0]].U
	for _, ei := range edges {
		e := a.Edges[ei]
		if e.U < lo {
			lo = e.U
		}
		if e.V < lo {
			lo = e.V
		}
	}
	return lo
}

// buildFragment materializes one fragment as a graph: either the pattern
// induced on the given node set (edges nil), or the subgraph spanned by
// the given edge set (nodes nil). Fragment node order is ascending
// pattern node id — deterministic regardless of discovery order.
func buildFragment(a *AST, nodes []int, edges []int, fi int) Fragment {
	nodeSet := make(map[int]bool)
	if nodes != nil {
		for _, v := range nodes {
			nodeSet[v] = true
		}
	} else {
		for _, ei := range edges {
			nodeSet[a.Edges[ei].U] = true
			nodeSet[a.Edges[ei].V] = true
		}
	}
	mapping := make([]int, 0, len(nodeSet))
	for v := range nodeSet {
		mapping = append(mapping, v)
	}
	sort.Ints(mapping)
	local := make(map[int]int, len(mapping))
	for i, v := range mapping {
		local[v] = i
	}
	g := graph.New(fmt.Sprintf("frag%d", fi))
	for _, v := range mapping {
		g.AddNode(a.Nodes[v].Label)
	}
	addEdge := func(ei int) {
		e := a.Edges[ei]
		if _, err := g.AddEdge(local[e.U], local[e.V], e.Label); err != nil {
			// Duplicate pattern edges cannot occur (graph.AddEdge rejects
			// them at pattern build time); a failure here would mean the
			// AST no longer mirrors the pattern.
			panic(err)
		}
	}
	if nodes != nil {
		for ei := range a.Edges {
			e := a.Edges[ei]
			if nodeSet[e.U] && nodeSet[e.V] {
				addEdge(ei)
			}
		}
	} else {
		for _, ei := range edges {
			addEdge(ei)
		}
	}
	return Fragment{G: g, Nodes: mapping, Canon: canon.String(g)}
}
