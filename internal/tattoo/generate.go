package tattoo

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// generator samples topology-class instances from the two truss regions of
// a network. All sampling walks the original graph but is restricted to
// edges of the appropriate region via the trussness array, so no subgraph
// copies are needed.
type generator struct {
	g         *graph.Graph
	trussness []int
	k         int
	budget    pattern.Budget
	rng       *rand.Rand

	trussEdges     []graph.EdgeID // trussness ≥ k
	obliviousEdges []graph.EdgeID // trussness < k

	// sampleCycle's BFS scratch, allocated on first use by each class
	// task's generator copy and reused across its samples: node v is seen
	// by the current BFS iff seen[v] == stamp, and then depth[v] holds its
	// BFS depth.
	seen   []uint32
	depth  []int32
	stamp  uint32
	crumbs []crumb
}

func (gen *generator) buildRegionEdgeLists() {
	for id, t := range gen.trussness {
		if t >= gen.k {
			gen.trussEdges = append(gen.trussEdges, id)
		} else {
			gen.obliviousEdges = append(gen.obliviousEdges, id)
		}
	}
}

// inTruss reports whether edge e belongs to the truss-infested region.
func (gen *generator) inTruss(e graph.EdgeID) bool { return gen.trussness[e] >= gen.k }

func (gen *generator) randomEdge(region []graph.EdgeID) (graph.EdgeID, bool) {
	if len(region) == 0 {
		return 0, false
	}
	return region[gen.rng.Intn(len(region))], true
}

// targetSize draws a size (in edges) from the budget range.
func (gen *generator) targetSize() int {
	return gen.budget.MinSize + gen.rng.Intn(gen.budget.MaxSize-gen.budget.MinSize+1)
}

// regionNeighbors calls fn for each incident edge of v in the given region
// (wantTruss selects G_T or G_O).
func (gen *generator) regionNeighbors(v graph.NodeID, wantTruss bool, fn func(nbr graph.NodeID, e graph.EdgeID) bool) {
	gen.g.VisitNeighbors(v, func(nbr graph.NodeID, e graph.EdgeID) bool {
		if gen.inTruss(e) == wantTruss {
			return fn(nbr, e)
		}
		return true
	})
}

// sampleChain samples a simple path in G_O of target length.
func (gen *generator) sampleChain() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.obliviousEdges)
	if !ok {
		return nil
	}
	target := gen.targetSize()
	e := gen.g.Edge(start)
	edges := []graph.EdgeID{start}
	visited := map[graph.NodeID]bool{e.U: true, e.V: true}
	// Extend from both ends alternately.
	ends := [2]graph.NodeID{e.U, e.V}
	for len(edges) < target {
		extended := false
		for side := 0; side < 2 && len(edges) < target; side++ {
			var options []struct {
				n graph.NodeID
				e graph.EdgeID
			}
			gen.regionNeighbors(ends[side], false, func(nbr graph.NodeID, eid graph.EdgeID) bool {
				if !visited[nbr] {
					options = append(options, struct {
						n graph.NodeID
						e graph.EdgeID
					}{nbr, eid})
				}
				return true
			})
			if len(options) == 0 {
				continue
			}
			pick := options[gen.rng.Intn(len(options))]
			visited[pick.n] = true
			edges = append(edges, pick.e)
			ends[side] = pick.n
			extended = true
		}
		if !extended {
			break
		}
	}
	return edges
}

// sampleStar samples a star in G_O: a center and up to target leaf edges.
func (gen *generator) sampleStar() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.obliviousEdges)
	if !ok {
		return nil
	}
	e := gen.g.Edge(start)
	center := e.U
	if gen.g.Degree(e.V) > gen.g.Degree(e.U) {
		center = e.V
	}
	target := gen.targetSize()
	edges := []graph.EdgeID{}
	gen.regionNeighbors(center, false, func(_ graph.NodeID, eid graph.EdgeID) bool {
		edges = append(edges, eid)
		return len(edges) < target
	})
	return edges
}

// sampleTree samples a random tree in G_O by frontier expansion that never
// closes a cycle.
func (gen *generator) sampleTree() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.obliviousEdges)
	if !ok {
		return nil
	}
	target := gen.targetSize()
	e := gen.g.Edge(start)
	edges := []graph.EdgeID{start}
	inTree := map[graph.NodeID]bool{e.U: true, e.V: true}
	nodes := []graph.NodeID{e.U, e.V}
	for len(edges) < target {
		// Random frontier edge from a random tree node.
		perm := gen.rng.Perm(len(nodes))
		added := false
		for _, pi := range perm {
			v := nodes[pi]
			var opts []struct {
				n graph.NodeID
				e graph.EdgeID
			}
			gen.regionNeighbors(v, false, func(nbr graph.NodeID, eid graph.EdgeID) bool {
				if !inTree[nbr] {
					opts = append(opts, struct {
						n graph.NodeID
						e graph.EdgeID
					}{nbr, eid})
				}
				return true
			})
			if len(opts) == 0 {
				continue
			}
			pick := opts[gen.rng.Intn(len(opts))]
			inTree[pick.n] = true
			nodes = append(nodes, pick.n)
			edges = append(edges, pick.e)
			added = true
			break
		}
		if !added {
			break
		}
	}
	return edges
}

// crumb is one node reached by sampleCycle's BFS: the edge it was reached
// by and the index of the crumb it was reached from.
type crumb struct {
	node graph.NodeID
	via  graph.EdgeID
	prev int
}

// sampleCycle finds a simple cycle through a random G_O edge via a
// depth-limited BFS between its endpoints that avoids the edge itself.
// Only the start edge is drawn from G_O: the BFS walks every edge of the
// network, so the closing path may run through G_T.
func (gen *generator) sampleCycle() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.obliviousEdges)
	if !ok {
		return nil
	}
	e := gen.g.Edge(start)
	maxLen := int32(gen.budget.MaxSize - 1) // path edges allowed
	if gen.seen == nil {
		gen.seen = make([]uint32, gen.g.NumNodes())
		gen.depth = make([]int32, gen.g.NumNodes())
	}
	if gen.stamp++; gen.stamp == 0 {
		clear(gen.seen)
		gen.stamp = 1
	}
	seen, depth, stamp := gen.seen, gen.depth, gen.stamp
	// Every crumb but the one that reaches e.V is enqueued as it is
	// appended, so the BFS queue is just crumbs[head:].
	crumbs := append(gen.crumbs[:0], crumb{node: e.U, via: -1, prev: -1})
	seen[e.U], depth[e.U] = stamp, 0
	for head := 0; head < len(crumbs); head++ {
		cur := crumbs[head]
		if depth[cur.node] >= maxLen {
			continue
		}
		found := -1
		gen.g.VisitNeighbors(cur.node, func(nbr graph.NodeID, eid graph.EdgeID) bool {
			if eid == start {
				return true
			}
			if nbr == e.V {
				crumbs = append(crumbs, crumb{node: nbr, via: eid, prev: head})
				found = len(crumbs) - 1
				return false
			}
			if seen[nbr] != stamp {
				seen[nbr] = stamp
				depth[nbr] = depth[cur.node] + 1
				crumbs = append(crumbs, crumb{node: nbr, via: eid, prev: head})
			}
			return true
		})
		if found >= 0 {
			edges := []graph.EdgeID{start}
			for i := found; crumbs[i].via >= 0; i = crumbs[i].prev {
				edges = append(edges, crumbs[i].via)
			}
			gen.crumbs = crumbs
			return edges
		}
	}
	gen.crumbs = crumbs
	return nil
}

// sampleTriangleChain grows a chain of edge-sharing triangles in G_T.
func (gen *generator) sampleTriangleChain() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.trussEdges)
	if !ok {
		return nil
	}
	target := gen.targetSize()
	edges := map[graph.EdgeID]bool{start: true}
	nodes := map[graph.NodeID]bool{}
	e := gen.g.Edge(start)
	nodes[e.U], nodes[e.V] = true, true
	frontier := []graph.EdgeID{start}
	for len(edges) < target && len(frontier) > 0 {
		// Close a triangle over a random frontier edge.
		fi := gen.rng.Intn(len(frontier))
		base := frontier[fi]
		frontier = append(frontier[:fi], frontier[fi+1:]...)
		be := gen.g.Edge(base)
		var w graph.NodeID = -1
		var e1, e2 graph.EdgeID
		gen.regionNeighbors(be.U, true, func(nbr graph.NodeID, ea graph.EdgeID) bool {
			if nodes[nbr] {
				return true
			}
			if eb, ok := gen.g.EdgeBetween(be.V, nbr); ok && gen.inTruss(eb) {
				w, e1, e2 = nbr, ea, eb
				return false
			}
			return true
		})
		if w < 0 {
			continue
		}
		nodes[w] = true
		if !edges[e1] {
			edges[e1] = true
			frontier = append(frontier, e1)
		}
		if !edges[e2] {
			edges[e2] = true
			frontier = append(frontier, e2)
		}
	}
	if len(edges) < 3 {
		return nil
	}
	return edgeKeys(edges)
}

// samplePetal builds a petal: two anchor nodes joined by an edge and by
// several internally disjoint 2-paths (their common neighbors in G_T).
func (gen *generator) samplePetal() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.trussEdges)
	if !ok {
		return nil
	}
	e := gen.g.Edge(start)
	target := gen.targetSize()
	edges := []graph.EdgeID{start}
	gen.regionNeighbors(e.U, true, func(nbr graph.NodeID, ea graph.EdgeID) bool {
		if nbr == e.V {
			return true
		}
		eb, ok := gen.g.EdgeBetween(e.V, nbr)
		if !ok || !gen.inTruss(eb) {
			return true
		}
		if len(edges)+2 > target {
			return false
		}
		edges = append(edges, ea, eb)
		return true
	})
	if len(edges) < 5 { // at least two petals (1 + 2·2)
		return nil
	}
	return edges
}

// sampleFlower combines a triangle at a center node with star edges
// radiating from it (petal + chains around a core, after the query-log
// taxonomy).
func (gen *generator) sampleFlower() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.trussEdges)
	if !ok {
		return nil
	}
	e := gen.g.Edge(start)
	center := e.U
	// Find a triangle through the center.
	var tri []graph.EdgeID
	gen.regionNeighbors(center, true, func(nbr graph.NodeID, ea graph.EdgeID) bool {
		gen.regionNeighbors(nbr, true, func(nbr2 graph.NodeID, eb graph.EdgeID) bool {
			if nbr2 == center {
				return true
			}
			if ec, ok := gen.g.EdgeBetween(center, nbr2); ok && gen.inTruss(ec) {
				tri = []graph.EdgeID{ea, eb, ec}
				return false
			}
			return true
		})
		return tri == nil
	})
	if tri == nil {
		return nil
	}
	target := gen.targetSize()
	edges := map[graph.EdgeID]bool{tri[0]: true, tri[1]: true, tri[2]: true}
	// Radiate leaves from the center (any region).
	gen.g.VisitNeighbors(center, func(_ graph.NodeID, eid graph.EdgeID) bool {
		if len(edges) >= target {
			return false
		}
		edges[eid] = true
		return true
	})
	if len(edges) < 4 {
		return nil
	}
	return edgeKeys(edges)
}

// sampleNearClique grows a dense subgraph in G_T: starting from a triangle,
// repeatedly absorb the neighbor adjacent to the most selected nodes,
// keeping all induced region edges.
func (gen *generator) sampleNearClique() []graph.EdgeID {
	start, ok := gen.randomEdge(gen.trussEdges)
	if !ok {
		return nil
	}
	e := gen.g.Edge(start)
	members := []graph.NodeID{e.U, e.V}
	inMembers := map[graph.NodeID]bool{e.U: true, e.V: true}
	target := gen.targetSize()
	for {
		// Candidate: neighbor of a member adjacent to ≥2 members.
		var best graph.NodeID = -1
		bestAdj := 1
		for _, v := range members {
			gen.regionNeighbors(v, true, func(nbr graph.NodeID, _ graph.EdgeID) bool {
				if inMembers[nbr] {
					return true
				}
				adj := 0
				for _, u := range members {
					if eid, ok := gen.g.EdgeBetween(nbr, u); ok && gen.inTruss(eid) {
						adj++
					}
				}
				if adj > bestAdj {
					best, bestAdj = nbr, adj
				}
				return true
			})
		}
		if best < 0 {
			break
		}
		// Count edges if we add best.
		added := 0
		for _, u := range members {
			if eid, ok := gen.g.EdgeBetween(best, u); ok && gen.inTruss(eid) {
				added++
			}
		}
		if currentInducedEdges(gen, members)+added > target {
			break
		}
		members = append(members, best)
		inMembers[best] = true
		if len(members) > 8 {
			break
		}
	}
	if len(members) < 3 {
		return nil
	}
	var edges []graph.EdgeID
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if eid, ok := gen.g.EdgeBetween(members[i], members[j]); ok && gen.inTruss(eid) {
				edges = append(edges, eid)
			}
		}
	}
	return edges
}

func currentInducedEdges(gen *generator, members []graph.NodeID) int {
	c := 0
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if eid, ok := gen.g.EdgeBetween(members[i], members[j]); ok && gen.inTruss(eid) {
				c++
			}
		}
	}
	return c
}

// edgeKeys returns the map keys sorted for determinism.
func edgeKeys(m map[graph.EdgeID]bool) []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
