package gindex

// The filter's per-graph features and the one pass that reads them.
//
// Count features: "at least k nodes labeled l", "at least k edges of
// triple t" and "some l-labeled node of degree at least d". Each is
// sound for monomorphism and induced matching alike — an embedding maps
// query nodes and edges injectively onto equally labeled data nodes and
// edges, and a data node has at least the degree of any query node mapped
// onto it — so ANDing them into the filter never dismisses a match.
//
// Storage follows the presence bitsets: one inverted bitset per (key,
// exact value), holding the graphs whose value is exactly that. Exact
// levels are disjoint per key, so derive compacts them with compactInto
// and drops emptied levels, and a derived index stays byte-identical to a
// fresh build. Values 0 and 1 get no level: "at least 1" is the presence
// bitset (for degrees, a skipped check, which is sound). The
// sizeClass-style suffix bitsets that Candidates ANDs in are rebuilt from
// the exact levels by every derive and section decode; they are never
// stored.

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// level names one exact value of a count feature: the graphs whose value
// for key is exactly n (n >= 2).
type level[K comparable] struct {
	key K
	n   int
}

// countIndex is one count feature over keys K: exact levels (stored and
// compacted) plus their suffix classes (derived).
type countIndex[K comparable] struct {
	exact map[level[K]]pattern.Bitset
	ge    map[K]sizeClass // ge[key].atLeast(k): graphs with value >= k
}

// newCountIndex returns a count feature holding the levels of src that
// survive runs, with room for size graphs. The suffix classes are built
// by finish, after the new graphs are added.
func newCountIndex[K comparable](src countIndex[K], runs []bitRun, size int) countIndex[K] {
	ci := countIndex[K]{exact: make(map[level[K]]pattern.Bitset, len(src.exact))}
	compactInto(ci.exact, src.exact, runs, size)
	return ci
}

// finish rebuilds the suffix classes from the exact levels: per key, the
// distinct values ascending, each level ORed with every level above it.
// O(levels · words); reads no graph.
func (ci *countIndex[K]) finish(size int) {
	values := make(map[K][]int)
	for lv := range ci.exact {
		values[lv.key] = append(values[lv.key], lv.n)
	}
	ci.ge = make(map[K]sizeClass, len(values))
	bits := carve(len(ci.exact), (size+63)/64)
	for key, ns := range values {
		sort.Ints(ns)
		ge := bits[:len(ns):len(ns)]
		bits = bits[len(ns):]
		for i, n := range ns {
			copy(ge[i], ci.exact[level[K]{key, n}])
		}
		ci.ge[key] = suffixClass(ns, ge)
	}
}

// atLeast returns the graphs whose value for key is at least k (k >= 2);
// ok is false when no graph reaches k. The bitset is shared — do not
// modify.
func (ci countIndex[K]) atLeast(key K, k int) (pattern.Bitset, bool) {
	sc, ok := ci.ge[key]
	if !ok {
		return nil, false
	}
	return sc.atLeast(k)
}

// atLeastReference is atLeast computed the slow way, by ORing every exact
// level of key at or above k — the oracle for the suffix classes.
func (ci countIndex[K]) atLeastReference(key K, k, size int) (pattern.Bitset, bool) {
	out := pattern.NewBitset(size)
	found := false
	for lv, b := range ci.exact {
		if lv.key == key && lv.n >= k {
			out.Or(b)
			found = true
		}
	}
	return out, found
}

// sortedLevels returns the levels of ci ordered by key (per less) then
// value, the order sections store them in.
func sortedLevels[K comparable](ci countIndex[K], less func(a, b K) bool) []level[K] {
	out := make([]level[K], 0, len(ci.exact))
	for lv := range ci.exact {
		out = append(out, lv)
	}
	sort.Slice(out, func(i, j int) bool { return levelLess(out[i], out[j], less) })
	return out
}

func levelLess[K comparable](a, b level[K], less func(a, b K) bool) bool {
	if a.key != b.key {
		return less(a.key, b.key)
	}
	return a.n < b.n
}

func stringLess(a, b string) bool { return a < b }

func tripleLess(x, y triple) bool {
	if x.a != y.a {
		return x.a < y.a
	}
	if x.e != y.e {
		return x.e < y.e
	}
	return x.b < y.b
}

// featureBuilder is derive's per-graph pass: it reads each new graph once
// and sets its bits in every feature. Labels and triples are interned to
// dense slots once per derive, and each slot resolves its index bitsets
// from the string-keyed maps (carried-over survivors' bits included) on
// first use, so per-graph work hashes each run of equal node or edge
// labels once, each edge's endpoint ids once, and no triple by strings.
type featureBuilder struct {
	nx    *Index
	n     int
	ids   map[string]int32 // label -> id; nodes[id], edges[id] are its slots
	names []string
	nodes []*featSlot
	edges []*featSlot
	pairs map[uint64][]int32 // endpoint label ids (low, high) -> indexes into trips
	trips []*featSlot

	// Per-graph scratch: the node slot of each node, and the node and
	// triple slots the current graph touched.
	nodeSlot     []*featSlot
	touched      []*featSlot
	touchedTrips []*featSlot
}

// featSlot is one label's or triple's features during a derive.
type featSlot struct {
	key      string // node or edge label (label slots)
	id       int32  // key's interned id (label slots); edge label id (triple slots)
	t        triple // triple slots
	presence pattern.Bitset
	counts   []levelBits // exact-count levels resolved so far
	degrees  []levelBits // exact-max-degree levels (node label slots)

	stamp      int // last graph that touched the slot
	count, deg int // that graph's count and max degree
}

type levelBits struct {
	n    int
	bits pattern.Bitset
}

func newFeatureBuilder(nx *Index, n int) *featureBuilder {
	return &featureBuilder{nx: nx, n: n, ids: make(map[string]int32), pairs: make(map[uint64][]int32)}
}

// id interns label l.
func (fb *featureBuilder) id(l string) int32 {
	if id, ok := fb.ids[l]; ok {
		return id
	}
	id := int32(len(fb.names))
	fb.ids[l] = id
	fb.names = append(fb.names, l)
	fb.nodes = append(fb.nodes, &featSlot{key: l, id: id, stamp: -1})
	fb.edges = append(fb.edges, &featSlot{key: l, id: id, stamp: -1})
	return id
}

// tripleSlot interns the triple of an edge labeled e between nodes
// labeled a and b (ids). Slots are found by endpoint pair, then by edge
// label among the pair's few triples.
func (fb *featureBuilder) tripleSlot(a, e, b int32) *featSlot {
	if a > b {
		a, b = b, a
	}
	pair := uint64(a)<<32 | uint64(b)
	for _, i := range fb.pairs[pair] {
		if sl := fb.trips[i]; sl.id == e {
			return sl
		}
	}
	x, y := fb.names[a], fb.names[b]
	if x > y {
		x, y = y, x
	}
	sl := &featSlot{id: e, t: triple{x, fb.names[e], y}, stamp: -1}
	fb.pairs[pair] = append(fb.pairs[pair], int32(len(fb.trips)))
	fb.trips = append(fb.trips, sl)
	return sl
}

// levelFor returns the bitset of exact level n among levels, resolving it
// with resolve on first use.
func levelFor(levels *[]levelBits, n int, resolve func() pattern.Bitset) pattern.Bitset {
	for _, lv := range *levels {
		if lv.n == n {
			return lv.bits
		}
	}
	b := resolve()
	*levels = append(*levels, levelBits{n, b})
	return b
}

// add reads graph gi into every feature.
func (fb *featureBuilder) add(gi int, g *graph.Graph) {
	nx, n := fb.nx, fb.n
	// Node labels: interned per node (a run of equal labels reuses the last
	// id), then counted and max-degreed per distinct label.
	fb.nodeSlot, fb.touched = fb.nodeSlot[:0], fb.touched[:0]
	last, lastID := "", int32(-1)
	for v := 0; v < g.NumNodes(); v++ {
		if l := g.NodeLabel(v); lastID < 0 || l != last {
			last, lastID = l, fb.id(l)
		}
		sl := fb.nodes[lastID]
		fb.nodeSlot = append(fb.nodeSlot, sl)
		if sl.stamp != gi {
			sl.stamp, sl.count, sl.deg = gi, 0, 0
			fb.touched = append(fb.touched, sl)
		}
		sl.count++
		sl.deg = max(sl.deg, g.Degree(v))
	}
	for _, sl := range fb.touched {
		if sl.presence == nil {
			sl.presence = bitsetFor(nx.nodeLabel, sl.key, n)
		}
		sl.presence.Set(gi)
		if sl.count >= 2 {
			levelFor(&sl.counts, sl.count, func() pattern.Bitset {
				return bitsetFor(nx.nodeCount.exact, level[string]{sl.key, sl.count}, n)
			}).Set(gi)
		}
		if sl.deg >= 2 {
			levelFor(&sl.degrees, sl.deg, func() pattern.Bitset {
				return bitsetFor(nx.labelDegree.exact, level[string]{sl.key, sl.deg}, n)
			}).Set(gi)
		}
	}
	// Edges: edge-label presence, and triples counted per distinct triple.
	fb.touchedTrips = fb.touchedTrips[:0]
	last, lastID = "", -1
	for ei := 0; ei < g.NumEdges(); ei++ {
		e := g.Edge(ei)
		if lastID < 0 || e.Label != last {
			last, lastID = e.Label, fb.id(e.Label)
		}
		if el := fb.edges[lastID]; el.stamp != gi {
			el.stamp = gi
			if el.presence == nil {
				el.presence = bitsetFor(nx.edgeLabel, el.key, n)
			}
			el.presence.Set(gi)
		}
		sl := fb.tripleSlot(fb.nodeSlot[e.U].id, lastID, fb.nodeSlot[e.V].id)
		if sl.stamp != gi {
			sl.stamp, sl.count = gi, 0
			fb.touchedTrips = append(fb.touchedTrips, sl)
		}
		sl.count++
	}
	for _, sl := range fb.touchedTrips {
		if sl.presence == nil {
			sl.presence = bitsetFor(nx.triples, sl.t, n)
		}
		sl.presence.Set(gi)
		if sl.count >= 2 {
			levelFor(&sl.counts, sl.count, func() pattern.Bitset {
				return bitsetFor(nx.tripleCount.exact, level[triple]{sl.t, sl.count}, n)
			}).Set(gi)
		}
	}
}
