// Package gindex accelerates subgraph search over a corpus with the
// classical filter-then-verify strategy used by graph-database query
// processors: cheap per-graph features (node labels, labeled edge
// triples, size bounds) prune graphs that cannot contain the query, and
// only the surviving candidates pay for a subgraph-isomorphism check.
//
// A VQI's Results Panel issues exactly this kind of query every time the
// user presses Run, so the index is what makes interactive response times
// possible on corpora of thousands of graphs — the "powerful graph query
// processing engines" the tutorial's introduction says visual interfaces
// democratize.
package gindex

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// Metric handles resolved once; searches record their totals at the end
// of a call (a few atomic adds), never per candidate. Gated on obs.On().
var (
	obsSearches    = obs.Default.Counter("gindex_searches_total")
	obsCandidates  = obs.Default.Counter("gindex_filter_candidates_total")
	obsVerified    = obs.Default.Counter("gindex_verify_total")
	obsMatches     = obs.Default.Counter("gindex_matches_total")
	obsTruncated   = obs.Default.Counter("gindex_truncated_total")
	obsBudgetStops = obs.Default.Counter("gindex_budget_stops_total")
)

// recordSearch publishes one completed (whole-index or per-shard)
// filter-verify pass.
func recordSearch(candidates, verified, matches int, truncated bool) {
	if !obs.On() {
		return
	}
	obsSearches.Inc()
	obsCandidates.Add(int64(candidates))
	obsVerified.Add(int64(verified))
	obsMatches.Add(int64(matches))
	if truncated {
		obsTruncated.Inc()
	}
}

type triple struct{ a, e, b string }

// sizeClass answers "which graphs have size >= k" in O(log distinct-sizes)
// with one precomputed suffix bitset per distinct size, replacing the O(n)
// per-query scan over the size arrays.
type sizeClass struct {
	sizes []int            // distinct sizes, ascending
	ge    []pattern.Bitset // ge[i]: graphs with size >= sizes[i]
}

func buildSizeClass(vals []int) sizeClass {
	n := len(vals)
	var sc sizeClass
	if n == 0 {
		// Empty corpus: no value range, so no suffix bitsets. atLeast
		// then always answers (nil, false), which Candidates turns into
		// "no matches".
		return sc
	}
	seen := make(map[int]bool, n)
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			sc.sizes = append(sc.sizes, v)
		}
	}
	sort.Ints(sc.sizes)
	sc.ge = make([]pattern.Bitset, len(sc.sizes))
	for i, s := range sc.sizes {
		b := pattern.NewBitset(n)
		for gi, v := range vals {
			if v >= s {
				b.Set(gi)
			}
		}
		sc.ge[i] = b
	}
	return sc
}

// atLeast returns the bitset of graphs with size >= k; ok is false when no
// graph is that large. The returned bitset is shared — do not modify.
func (sc sizeClass) atLeast(k int) (pattern.Bitset, bool) {
	i := sort.SearchInts(sc.sizes, k)
	if i == len(sc.sizes) {
		return nil, false
	}
	return sc.ge[i], true
}

// Index is an immutable filter index over a corpus snapshot. A changed
// corpus gets a new Index derived from this one (derive), which carries
// the surviving graphs' features over instead of re-reading the graphs.
type Index struct {
	corpus    *graph.Corpus
	nodeLabel map[string]pattern.Bitset
	edgeLabel map[string]pattern.Bitset
	triples   map[triple]pattern.Bitset
	numNodes  []int
	numEdges  []int
	sizeNodes sizeClass
	sizeEdges sizeClass
	// labelIdx holds the per-graph node-label index for VF2. Eager builds
	// fill every slot; an index restored from a persisted section leaves
	// them nil and fills each on first verification of that graph (atomic,
	// so concurrent shard searches race benignly to an identical value).
	labelIdx []atomic.Pointer[isomorph.LabelIndex]
}

// targetIndexFor returns graph gi's label index, building and caching it
// if the slot is still empty (a section-restored index never paid the
// eager pass).
func (idx *Index) targetIndexFor(gi int, g *graph.Graph) *isomorph.LabelIndex {
	if li := idx.labelIdx[gi].Load(); li != nil {
		return li
	}
	li := isomorph.BuildLabelIndex(g)
	idx.labelIdx[gi].CompareAndSwap(nil, li)
	return li
}

// Build indexes the corpus: the empty index with every graph added.
func Build(c *graph.Corpus) *Index {
	return new(Index).derive(c, nil)
}

// derive returns the index over c, whose first len(keep) graphs are the
// receiver's graphs at positions keep (ascending) and whose remaining
// graphs are new. Survivors' sizes, label indexes and inverted-bitset
// bits are carried over from the receiver — they are never hydrated, so
// a lazy corpus stays lazy — and only the new graphs are read. Bitsets
// left empty by the removals are dropped, so the result is byte-identical
// to Build(c). The zero Index is the empty index; the receiver is not
// modified.
func (idx *Index) derive(c *graph.Corpus, keep []int) *Index {
	n := c.Len()
	nx := &Index{
		corpus:    c,
		nodeLabel: make(map[string]pattern.Bitset, len(idx.nodeLabel)),
		edgeLabel: make(map[string]pattern.Bitset, len(idx.edgeLabel)),
		triples:   make(map[triple]pattern.Bitset, len(idx.triples)),
		numNodes:  make([]int, n),
		numEdges:  make([]int, n),
		labelIdx:  make([]atomic.Pointer[isomorph.LabelIndex], n),
	}
	for i, old := range keep {
		nx.numNodes[i] = idx.numNodes[old]
		nx.numEdges[i] = idx.numEdges[old]
		nx.labelIdx[i].Store(idx.labelIdx[old].Load())
	}
	runs := keepRuns(keep)
	compactInto(nx.nodeLabel, idx.nodeLabel, runs, n)
	compactInto(nx.edgeLabel, idx.edgeLabel, runs, n)
	compactInto(nx.triples, idx.triples, runs, n)
	for gi := len(keep); gi < n; gi++ {
		g := c.Graph(gi)
		nx.numNodes[gi] = g.NumNodes()
		nx.numEdges[gi] = g.NumEdges()
		nx.labelIdx[gi].Store(isomorph.BuildLabelIndex(g))
		for v := 0; v < g.NumNodes(); v++ {
			bitsetFor(nx.nodeLabel, g.NodeLabel(v), n).Set(gi)
		}
		for ei := 0; ei < g.NumEdges(); ei++ {
			e := g.Edge(ei)
			bitsetFor(nx.edgeLabel, e.Label, n).Set(gi)
			a, b := g.NodeLabel(e.U), g.NodeLabel(e.V)
			if a > b {
				a, b = b, a
			}
			bitsetFor(nx.triples, triple{a, e.Label, b}, n).Set(gi)
		}
	}
	nx.sizeNodes = buildSizeClass(nx.numNodes)
	nx.sizeEdges = buildSizeClass(nx.numEdges)
	return nx
}

// bitsetFor returns m[key], first adding an empty n-bit bitset.
func bitsetFor[K comparable](m map[K]pattern.Bitset, key K, n int) pattern.Bitset {
	b, ok := m[key]
	if !ok {
		b = pattern.NewBitset(n)
		m[key] = b
	}
	return b
}

// bitRun is a stretch of survivors that stay adjacent across a
// derivation: old positions [src, src+n) move to [dst, dst+n).
type bitRun struct{ src, dst, n int }

// keepRuns groups ascending kept positions into runs; new position i
// holds old position keep[i].
func keepRuns(keep []int) []bitRun {
	var runs []bitRun
	for i, p := range keep {
		if last := len(runs) - 1; last >= 0 && runs[last].src+runs[last].n == p {
			runs[last].n++
			continue
		}
		runs = append(runs, bitRun{src: p, dst: i, n: 1})
	}
	return runs
}

// compactInto moves every bitset of src to its runs' new positions in an
// n-bit bitset of dst, dropping the ones with no bit left — a key whose
// graphs were all removed disappears, as it would from a fresh build.
// Word-at-a-time: O(words + runs) per bitset.
func compactInto[K comparable](dst, src map[K]pattern.Bitset, runs []bitRun, n int) {
	for key, b := range src {
		out := pattern.NewBitset(n)
		var set uint64
		for _, r := range runs {
			from, to, left := r.src, r.dst, r.n
			for left > 0 {
				c := min(64-to%64, left)
				w := bitsAt(b, from, c) << uint(to%64)
				out[to/64] |= w
				set |= w
				from, to, left = from+c, to+c, left-c
			}
		}
		if set != 0 {
			dst[key] = out
		}
	}
}

// bitsAt returns the c (1..64) bits of b starting at position p,
// low-aligned.
func bitsAt(b pattern.Bitset, p, c int) uint64 {
	w, off := p/64, uint(p%64)
	v := b[w] >> off
	if off != 0 && w+1 < len(b) {
		v |= b[w+1] << (64 - off)
	}
	if c < 64 {
		v &= 1<<uint(c) - 1
	}
	return v
}

// appendDedup adds s to dst unless already present (linear scan — query
// graphs are small, so this beats a map allocation).
func appendDedup(dst []string, s string) []string {
	for _, x := range dst {
		if x == s {
			return dst
		}
	}
	return append(dst, s)
}

// Candidates returns the corpus positions that pass every filter for q —
// a superset of the true matches (no false dismissals). Wildcard labels
// contribute no constraint. Filtering is pure bitset arithmetic: the size
// suffix bitsets seed the candidate set, label/triple inverted bitsets are
// ANDed in place, and the survivors are extracted with trailing-zero
// scans. Returns nil when nothing survives.
func (idx *Index) Candidates(q *graph.Graph) []int {
	if idx.corpus.Len() == 0 {
		return nil
	}
	seed, ok := idx.sizeNodes.atLeast(q.NumNodes())
	if !ok {
		return nil
	}
	cand := seed.Clone()
	and := func(b pattern.Bitset, ok bool) bool {
		if !ok {
			// Constraint label absent from the whole corpus: no matches.
			return false
		}
		zero := true
		for i := range cand {
			cand[i] &= b[i]
			if cand[i] != 0 {
				zero = false
			}
		}
		return !zero
	}
	if !and(idx.sizeEdges.atLeast(q.NumEdges())) {
		return nil
	}
	// Distinct query labels via slice dedup: no per-query label maps.
	nodeLabels := make([]string, 0, q.NumNodes())
	edgeLabels := make([]string, 0, q.NumEdges())
	for v := 0; v < q.NumNodes(); v++ {
		if l := q.NodeLabel(v); l != isomorph.Wildcard {
			nodeLabels = appendDedup(nodeLabels, l)
		}
	}
	for ei := 0; ei < q.NumEdges(); ei++ {
		if l := q.EdgeLabel(ei); l != isomorph.Wildcard {
			edgeLabels = appendDedup(edgeLabels, l)
		}
	}
	for _, l := range nodeLabels {
		b, ok := idx.nodeLabel[l]
		if !and(b, ok) {
			return nil
		}
	}
	for _, l := range edgeLabels {
		b, ok := idx.edgeLabel[l]
		if !and(b, ok) {
			return nil
		}
	}
	for ei := 0; ei < q.NumEdges(); ei++ {
		e := q.Edge(ei)
		a, b := q.NodeLabel(e.U), q.NodeLabel(e.V)
		if a == isomorph.Wildcard || b == isomorph.Wildcard || e.Label == isomorph.Wildcard {
			continue
		}
		if a > b {
			a, b = b, a
		}
		tb, ok := idx.triples[triple{a, e.Label, b}]
		if !and(tb, ok) {
			return nil
		}
	}
	out := make([]int, 0, cand.Popcount())
	for wi, w := range cand {
		for w != 0 {
			out = append(out, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// CandidatesReference is the pre-bitset-rewrite implementation of
// Candidates, kept verbatim as the oracle the property tests and the K1
// benchmark compare the fast path against.
func (idx *Index) CandidatesReference(q *graph.Graph) []int {
	n := idx.corpus.Len()
	// Start from all-ones and intersect constraint bitsets.
	cand := pattern.NewBitset(n)
	for i := 0; i < n; i++ {
		if idx.numNodes[i] >= q.NumNodes() && idx.numEdges[i] >= q.NumEdges() {
			cand.Set(i)
		}
	}
	intersect := func(b pattern.Bitset, ok bool) {
		if !ok {
			// Constraint label absent from the whole corpus: no matches.
			for i := range cand {
				cand[i] = 0
			}
			return
		}
		for i := range cand {
			cand[i] &= b[i]
		}
	}
	for l := range q.NodeLabels() {
		if l == isomorph.Wildcard {
			continue
		}
		b, ok := idx.nodeLabel[l]
		intersect(b, ok)
	}
	for l := range q.EdgeLabels() {
		if l == isomorph.Wildcard {
			continue
		}
		b, ok := idx.edgeLabel[l]
		intersect(b, ok)
	}
	for _, e := range q.Edges() {
		a, b := q.NodeLabel(e.U), q.NodeLabel(e.V)
		if a == isomorph.Wildcard || b == isomorph.Wildcard || e.Label == isomorph.Wildcard {
			continue
		}
		if a > b {
			a, b = b, a
		}
		tb, ok := idx.triples[triple{a, e.Label, b}]
		intersect(tb, ok)
	}
	var out []int
	for i := 0; i < n; i++ {
		if cand.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// Result reports a search outcome.
type Result struct {
	// Matches are the names of graphs containing the query.
	Matches []string
	// Candidates is how many graphs survived filtering (verification
	// cost); Scanned is the corpus size.
	Candidates int
	Scanned    int
	// Verified is how many candidates were actually checked; less than
	// Candidates when the search was cut short.
	Verified int
	// Truncated reports the search gave up early — the context died or a
	// per-graph step budget tripped — so Matches is a sound subset of the
	// true answer, not the complete one.
	Truncated bool
}

// Search runs filter-then-verify for query q.
func (idx *Index) Search(q *graph.Graph, opts isomorph.Options) Result {
	return idx.SearchCtx(context.Background(), q, opts)
}

// SearchCtx is Search under a context: the context is threaded into every
// per-candidate VF2 check and polled between candidates, so an expired
// deadline returns the matches confirmed so far with Truncated set. A
// graph whose own check truncated (budget or cancellation) also marks the
// result truncated — its absence from Matches is "unknown", not "no".
func (idx *Index) SearchCtx(ctx context.Context, q *graph.Graph, opts isomorph.Options) Result {
	res := Result{Scanned: idx.corpus.Len()}
	defer func() { recordSearch(res.Candidates, res.Verified, len(res.Matches), res.Truncated) }()
	if q.NumNodes() == 0 {
		return res
	}
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	cands := idx.Candidates(q)
	res.Candidates = len(cands)
	opts.MaxEmbeddings = 1
	for _, gi := range cands {
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		g, err := idx.corpus.Hydrate(gi)
		if err != nil {
			// Corrupt lazy frame: this graph is unknowable, not a non-match.
			res.Truncated = true
			continue
		}
		// The prebuilt per-graph label index makes VF2 seed its root scan
		// rarest-label-first instead of sweeping every target node.
		opts.TargetIndex = idx.targetIndexFor(gi, g)
		r := isomorph.Count(q, g, opts)
		res.Verified++
		if r.Embeddings > 0 {
			res.Matches = append(res.Matches, g.Name())
			// Candidates are verified in ascending corpus order, so
			// stopping at the budget returns exactly the MaxResults
			// lowest-position matches — the same prefix Sharded's
			// budgeted fan-out reconstructs.
			if opts.MaxResults > 0 && len(res.Matches) >= opts.MaxResults {
				break
			}
		} else if r.Truncated {
			res.Truncated = true
		}
	}
	return res
}

// FilterRatio returns the fraction of the corpus pruned without
// verification for query q, in [0,1]; higher is better.
func (idx *Index) FilterRatio(q *graph.Graph) float64 {
	if idx.corpus.Len() == 0 {
		return 0
	}
	return 1 - float64(len(idx.Candidates(q)))/float64(idx.corpus.Len())
}
