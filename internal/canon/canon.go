// Package canon computes canonical forms of small labeled graphs.
//
// The canonical string of a graph is identical for isomorphic graphs and
// distinct for non-isomorphic ones, which makes it usable as a map key when
// deduplicating the thousands of candidate patterns the selection
// frameworks generate. The algorithm is the classical individualization-
// refinement scheme: color refinement (1-WL) over (label, degree) classes,
// then branch by individualizing each member of the first non-singleton
// class, refining again, and keeping the lexicographically smallest fully
// discrete encoding. This handles highly symmetric patterns (cycles, stars,
// cliques) in polynomial-ish time for the ≤ ~20-node patterns this
// repository works with; it is not intended for large networks.
//
// # Signatures and the byte-identity contract
//
// Canonical strings are persisted and used as cache, dedup and coverage
// keys, so their exact bytes are part of the contract, not just their
// equality classes. Colors are ranks of per-node signature strings:
//
//   - initially label|ddddddddd (the degree, zero-padded to nine digits);
//   - then, each refinement round, ddddddddd(l:ddddddddd,…) — the node's
//     color followed by its sorted (edge label, neighbor color) parts.
//
// Each round appends every node's signature into one reused byte arena and
// ranks nodes by sorting their indices on those bytes, so no string, map
// or fmt call is made per signature. Building the very bytes the codes were
// defined over — rather than, say, comparing tuples of label ranks — is
// what keeps codes stable: labels are compared inside the separator-
// suffixed parts, which is not plain label order (edge labels "1" and "12"
// give parts "12:…" < "1:…", the reverse of "1" < "12"). Individualized
// colorings stay integers: every color is below 2n, so numeric order equals
// the order of their nine-digit renderings. Scratch buffers are pooled, so a
// warm String allocates only its result.
package canon

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// String returns the canonical string of g. Two graphs have equal canonical
// strings iff they are isomorphic as labeled graphs.
func String(g *graph.Graph) string {
	c := canonize(g)
	s := string(c.best)
	c.release()
	return s
}

// Equal reports whether a and b are isomorphic, via canonical strings.
func Equal(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	return String(a) == String(b)
}

// Hash returns a 64-bit FNV hash of the canonical string, usable as a
// compact fingerprint (collisions are possible but astronomically unlikely
// at corpus scale; use String where exactness matters).
func Hash(g *graph.Graph) uint64 {
	c := canonize(g)
	// FNV-1a, as hash/fnv's New64a computes it.
	h := uint64(14695981039346656037)
	for _, b := range c.best {
		h ^= uint64(b)
		h *= 1099511628211
	}
	c.release()
	return h
}

// canonizer is one canonicalization's state. Every slice is a scratch
// buffer that outlives the call in canonPool.
type canonizer struct {
	g *graph.Graph
	n int

	// Flat adjacency: node v's neighbors are adjTo[adjStart[v]:adjStart[v+1]],
	// joined by edges labeled adjLabel[...].
	adjStart []int
	adjTo    []graph.NodeID
	adjLabel []string

	sig    []byte // every node's signature of the current round, back to back
	sigEnd []int  // node v's signature is sig[sigEnd[v-1]:sigEnd[v]]
	part   []byte // one node's (edge label, neighbor color) parts
	spans  []span // the parts' extents in part
	order  []int  // node indices, sorted by signature to rank them
	next   []int  // refinement's next coloring

	levels [][]int          // levels[d]: the coloring search branches from at depth d
	cells  [][]graph.NodeID // cells[d]: the cell search branches on at depth d
	counts []int            // per-color tallies and marks

	inCell   []bool         // isTwinClass: current cell membership
	seen     []int          // isTwinClass: seen[u] == stamp iff u was recorded
	seenLab  []string       // isTwinClass: label of the recorded edge to u
	stamp    int            // isTwinClass: current stamp, never reused
	refNbrs  []graph.NodeID // isTwinClass: outside neighbors of the cell's first member
	refLabel []string       // isTwinClass: and their edge labels

	perm  []graph.NodeID // encode: position -> node
	edges []edgeRec
	enc   []byte // the encoding of the current leaf
	best  []byte // the smallest leaf encoding so far
}

type span struct{ lo, hi int }

type edgeRec struct {
	u, v  int
	label string
}

var canonPool = sync.Pool{New: func() any { return new(canonizer) }}

// canonize runs the search for g and returns the canonizer holding the
// canonical bytes in best. The caller must release it.
func canonize(g *graph.Graph) *canonizer {
	c := canonPool.Get().(*canonizer)
	c.g, c.n = g, g.NumNodes()
	c.best = c.best[:0]
	if c.n == 0 {
		c.best = append(c.best, "n0;"...)
		return c
	}
	c.loadAdjacency()
	colors := c.level(0)
	c.initialColors(colors)
	c.refine(colors)
	c.search(0, colors)
	return c
}

func (c *canonizer) release() {
	c.g = nil
	clear(c.adjLabel)
	clear(c.seenLab)
	clear(c.refLabel)
	clear(c.edges)
	canonPool.Put(c)
}

func (c *canonizer) loadAdjacency() {
	g, n := c.g, c.n
	c.adjStart = resize(c.adjStart, n+1)
	c.adjTo, c.adjLabel = c.adjTo[:0], c.adjLabel[:0]
	for v := 0; v < n; v++ {
		c.adjStart[v] = len(c.adjTo)
		g.VisitNeighbors(v, func(nbr graph.NodeID, e graph.EdgeID) bool {
			c.adjTo = append(c.adjTo, nbr)
			c.adjLabel = append(c.adjLabel, g.EdgeLabel(e))
			return true
		})
	}
	c.adjStart[n] = len(c.adjTo)
}

// level returns the coloring buffer of search depth d.
func (c *canonizer) level(d int) []int {
	for len(c.levels) <= d {
		c.levels = append(c.levels, nil)
	}
	c.levels[d] = resize(c.levels[d], c.n)
	return c.levels[d]
}

// initialColors colors by (node label, degree): signature label|ddddddddd.
func (c *canonizer) initialColors(colors []int) {
	c.sig, c.sigEnd = c.sig[:0], resize(c.sigEnd, c.n)
	for v := 0; v < c.n; v++ {
		c.sig = append(c.sig, c.g.NodeLabel(v)...)
		c.sig = append(c.sig, '|')
		c.sig = appendPad9(c.sig, c.adjStart[v+1]-c.adjStart[v])
		c.sigEnd[v] = len(c.sig)
	}
	c.rank(colors)
}

// refine runs color refinement on colors, in place, until the partition
// stabilizes. A node's signature is its old color followed by the sorted
// multiset of (edge label, neighbor color) parts, so signature order is
// isomorphism-invariant.
func (c *canonizer) refine(colors []int) {
	n := c.n
	c.next = resize(c.next, n)
	classes := numClasses(colors)
	for round := 0; round < n; round++ {
		c.sig = c.sig[:0]
		for v := 0; v < n; v++ {
			c.part, c.spans = c.part[:0], c.spans[:0]
			for i := c.adjStart[v]; i < c.adjStart[v+1]; i++ {
				lo := len(c.part)
				c.part = append(c.part, c.adjLabel[i]...)
				c.part = append(c.part, ':')
				c.part = appendPad9(c.part, colors[c.adjTo[i]])
				c.spans = append(c.spans, span{lo, len(c.part)})
			}
			part := c.part
			slices.SortFunc(c.spans, func(a, b span) int {
				return bytes.Compare(part[a.lo:a.hi], part[b.lo:b.hi])
			})
			c.sig = appendPad9(c.sig, colors[v])
			c.sig = append(c.sig, '(')
			for i, sp := range c.spans {
				if i > 0 {
					c.sig = append(c.sig, ',')
				}
				c.sig = append(c.sig, part[sp.lo:sp.hi]...)
			}
			c.sig = append(c.sig, ')')
			c.sigEnd[v] = len(c.sig)
		}
		nextClasses := c.rank(c.next)
		copy(colors, c.next)
		if nextClasses == classes {
			break
		}
		classes = nextClasses
	}
}

// rank sets colors to the dense rank of each node's signature in the
// arena and returns the number of distinct signatures.
func (c *canonizer) rank(colors []int) int {
	c.order = resize(c.order, c.n)
	for v := range c.order {
		c.order[v] = v
	}
	slices.SortFunc(c.order, func(a, b int) int {
		return bytes.Compare(c.sigOf(a), c.sigOf(b))
	})
	r := 0
	colors[c.order[0]] = 0
	for i := 1; i < len(c.order); i++ {
		if !bytes.Equal(c.sigOf(c.order[i]), c.sigOf(c.order[i-1])) {
			r++
		}
		colors[c.order[i]] = r
	}
	return r + 1
}

func (c *canonizer) sigOf(v int) []byte {
	lo := 0
	if v > 0 {
		lo = c.sigEnd[v-1]
	}
	return c.sig[lo:c.sigEnd[v]]
}

// search performs individualization-refinement from the stable coloring
// of depth d and folds every reachable discrete encoding into best.
func (c *canonizer) search(d int, colors []int) {
	cell := c.firstNonSingletonCell(d, colors)
	if len(cell) == 0 {
		c.leaf(colors)
		return
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
	for _, v := range cell {
		ind := c.level(d + 1)
		c.individualize(colors, v, ind)
		c.refine(ind)
		c.search(d+1, ind)
	}
}

// isTwinClass reports whether all members of cell are pairwise twins: same
// node label, identical labeled adjacency to every node outside the cell,
// and uniform adjacency (all-present with one edge label, or all-absent)
// inside the cell.
func (c *canonizer) isTwinClass(cell []graph.NodeID) bool {
	c.inCell = resize(c.inCell, c.n)
	for _, v := range cell {
		c.inCell[v] = true
	}
	twins := c.sameOutsideAdjacency(cell)
	for _, v := range cell {
		c.inCell[v] = false
	}
	if !twins {
		return false
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

// sameOutsideAdjacency reports whether every member of cell has cell[0]'s
// node label and labeled adjacency to the nodes outside the cell. The
// comparison is the one canonical codes were defined with: equal outside
// degrees, and each of cell[0]'s outside edges (u, l) matched by the
// member's label to u — where a member with no edge to u reads as the
// empty label.
func (c *canonizer) sameOutsideAdjacency(cell []graph.NodeID) bool {
	c.refNbrs, c.refLabel = c.refNbrs[:0], c.refLabel[:0]
	first := cell[0]
	for i := c.adjStart[first]; i < c.adjStart[first+1]; i++ {
		if u := c.adjTo[i]; !c.inCell[u] {
			c.refNbrs = append(c.refNbrs, u)
			c.refLabel = append(c.refLabel, c.adjLabel[i])
		}
	}
	c.seen, c.seenLab = resize(c.seen, c.n), resize(c.seenLab, c.n)
	for _, v := range cell[1:] {
		if c.g.NodeLabel(v) != c.g.NodeLabel(first) {
			return false
		}
		c.stamp++
		outside := 0
		for i := c.adjStart[v]; i < c.adjStart[v+1]; i++ {
			if u := c.adjTo[i]; !c.inCell[u] {
				c.seen[u], c.seenLab[u] = c.stamp, c.adjLabel[i]
				outside++
			}
		}
		if outside != len(c.refNbrs) {
			return false
		}
		for k, u := range c.refNbrs {
			l := ""
			if c.seen[u] == c.stamp {
				l = c.seenLab[u]
			}
			if l != c.refLabel[k] {
				return false
			}
		}
	}
	return true
}

// individualize writes to out a coloring that gives v a color strictly
// smaller than the rest of its cell while preserving the relative order of
// all other cells: 2·color, plus one for every node ordered after v, then
// re-densified.
func (c *canonizer) individualize(colors []int, v graph.NodeID, out []int) {
	cv := colors[v]
	for u, col := range colors {
		out[u] = col * 2
		if col > cv || (col == cv && u != v) {
			out[u]++
		}
	}
	c.counts = resize(c.counts, 2*numClasses(colors))
	clear(c.counts)
	for _, x := range out {
		c.counts[x] = 1
	}
	r := 0
	for x, present := range c.counts {
		if present != 0 {
			c.counts[x] = r
			r++
		}
	}
	for u, x := range out {
		out[u] = c.counts[x]
	}
}

// firstNonSingletonCell returns, in the cell buffer of depth d, the members
// of the lowest-colored class with more than one member, or an empty slice
// if the coloring is discrete.
func (c *canonizer) firstNonSingletonCell(d int, colors []int) []graph.NodeID {
	c.counts = resize(c.counts, numClasses(colors))
	clear(c.counts)
	for _, col := range colors {
		c.counts[col]++
	}
	best := slices.IndexFunc(c.counts, func(k int) bool { return k > 1 })
	for len(c.cells) <= d {
		c.cells = append(c.cells, nil)
	}
	cell := c.cells[d][:0]
	if best >= 0 {
		for v, col := range colors {
			if col == best {
				cell = append(cell, v)
			}
		}
	}
	c.cells[d] = cell
	return cell
}

// leaf encodes the graph under the node order of a discrete coloring (node
// v at position colors[v]) and keeps the encoding if it is the smallest so
// far.
func (c *canonizer) leaf(colors []int) {
	c.enc = c.encode(c.enc[:0], colors)
	if len(c.best) == 0 || bytes.Compare(c.enc, c.best) < 0 {
		c.best, c.enc = c.enc, c.best
	}
}

// encode appends the serialization of g under the node order pos (node v
// at position pos[v]): node count, node labels in order, then the
// sorted renumbered edges.
func (c *canonizer) encode(b []byte, pos []int) []byte {
	g, n := c.g, c.n
	b = append(b, 'n')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ';')
	c.perm = resize(c.perm, n)
	for v, p := range pos {
		c.perm[p] = v
	}
	for _, v := range c.perm {
		b = append(b, g.NodeLabel(v)...)
		b = append(b, ';')
	}
	c.edges = c.edges[:0]
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(id)
		u, v := pos[e.U], pos[e.V]
		if u > v {
			u, v = v, u
		}
		c.edges = append(c.edges, edgeRec{u, v, e.Label})
	}
	slices.SortFunc(c.edges, func(x, y edgeRec) int {
		if x.u != y.u {
			return x.u - y.u
		}
		if x.v != y.v {
			return x.v - y.v
		}
		return strings.Compare(x.label, y.label)
	})
	for _, e := range c.edges {
		b = strconv.AppendInt(b, int64(e.u), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(e.v), 10)
		b = append(b, ':')
		b = append(b, e.label...)
		b = append(b, ';')
	}
	return b
}

// appendPad9 appends x as fmt's %09d renders a non-negative int.
func appendPad9(b []byte, x int) []byte {
	if x >= 1e9 {
		return strconv.AppendInt(b, int64(x), 10)
	}
	var d [9]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = byte('0' + x%10)
		x /= 10
	}
	return append(b, d[:]...)
}

func numClasses(c []int) int {
	max := -1
	for _, x := range c {
		if x > max {
			max = x
		}
	}
	return max + 1
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Elements keep whatever the backing array held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
