// Package isomorph implements subgraph matching for labeled undirected
// graphs: subgraph monomorphism (the semantics of visual subgraph queries),
// exact graph isomorphism, and embedding enumeration with budgets.
//
// The matcher is a VF2-style backtracking search with a connectivity-
// preserving matching order, label-based candidate filtering, and degree
// pruning. Patterns in this repository are small (≤ ~15 nodes), so the
// matcher is tuned for many small-pattern-vs-medium-graph calls rather than
// for single huge instances; budgets (step and embedding limits) keep worst
// cases bounded when scoring thousands of candidate patterns.
//
// Label semantics: a pattern label matches a target label if they are equal
// or if the pattern label is Wildcard (""). This holds for both node and
// edge labels.
package isomorph

import (
	"context"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Package-level metric handles, resolved once so the per-call cost of
// instrumentation is a few atomic adds at the end of Enumerate — never
// anything per search step. Gated on obs.On().
var (
	obsSearches    = obs.Default.Counter("isomorph_searches_total")
	obsSteps       = obs.Default.Counter("isomorph_steps_total")
	obsEmbeddings  = obs.Default.Counter("isomorph_embeddings_total")
	obsTruncSteps  = obs.Default.Counter("isomorph_truncated_total", "reason", string(StopSteps))
	obsTruncCancel = obs.Default.Counter("isomorph_truncated_total", "reason", string(StopCanceled))
)

// recordSearch publishes one completed matching run's totals.
func recordSearch(res *Result) {
	if !obs.On() {
		return
	}
	obsSearches.Inc()
	obsSteps.Add(int64(res.Steps))
	obsEmbeddings.Add(int64(res.Embeddings))
	switch res.Reason {
	case StopSteps:
		obsTruncSteps.Inc()
	case StopCanceled:
		obsTruncCancel.Inc()
	}
}

// Wildcard is the pattern label that matches any target label.
const Wildcard = ""

// DefaultCheckEvery is the step interval at which the matcher polls
// Options.Ctx when CheckEvery is zero. Steps are cheap (a few pointer
// chases), so 1024 steps keeps cancellation latency in the microsecond
// range without measurable polling overhead.
const DefaultCheckEvery = 1024

// Options control a matching run.
type Options struct {
	// MaxEmbeddings stops enumeration after this many embeddings have been
	// reported. Zero means unlimited.
	MaxEmbeddings int
	// MaxSteps bounds the number of backtracking search steps, as a safety
	// valve against pathological instances. Zero means unlimited. When the
	// budget is exhausted the search stops; Result.Truncated reports it.
	MaxSteps int
	// MaxResults bounds the number of matching *graphs* a filter-verify
	// search over a corpus returns (gindex.Index.Search and
	// gindex.Sharded.Search); the matcher itself ignores it. The budget is
	// order-preserving: the matches returned are always the first
	// MaxResults in corpus order, never an arbitrary subset. Like
	// MaxEmbeddings, hitting the budget is a satisfied request, not a
	// truncation. Zero means unlimited.
	MaxResults int
	// Induced requires the mapping to be an induced-subgraph isomorphism:
	// non-adjacent pattern nodes must map to non-adjacent target nodes.
	// The default (false) is monomorphism, the semantics of subgraph
	// queries drawn on a VQI.
	Induced bool
	// Ctx, when non-nil, is polled every CheckEvery search steps; a
	// canceled or expired context stops the search with the embeddings
	// found so far and Result.Reason == StopCanceled. This is what lets an
	// interactive front end put a wall-clock deadline on a query without
	// guessing a step budget.
	Ctx context.Context
	// CheckEvery is the polling interval in steps (0 = DefaultCheckEvery).
	CheckEvery int
	// TargetIndex, when non-nil, must be a LabelIndex built over the exact
	// target graph being searched. The matcher then ranks pattern nodes by
	// label rarity without recounting target labels, and restricts the root
	// scan of each pattern component with a non-wildcard label to the nodes
	// in that label class. Class node lists are ascending, so embeddings
	// are found in the same order and counts are identical to the unindexed
	// search — only Result.Steps shrinks.
	TargetIndex *LabelIndex
	// Order, when it is a permutation of the pattern's nodes, replaces the
	// per-target matching-order heuristic with a precomputed order — the
	// hook a compiled query plan (internal/plan) uses to rank pattern nodes
	// by corpus-level label rarity once instead of per target graph.
	// Anchors are derived from the order (each node anchors on its first
	// earlier neighbor), so a connectivity-preserving order keeps candidate
	// generation neighbor-driven. The matching order never changes which
	// embeddings exist — only Result.Steps — so any permutation is safe;
	// anything that is not a permutation is ignored and the heuristic runs.
	Order []graph.NodeID
}

// IsZero reports whether o is the zero Options (no budgets, no context,
// no index, no order) — the "caller didn't configure matching" sentinel
// some call sites replace with their own defaults. Needed as a method
// because the Order slice makes Options non-comparable with ==.
func (o Options) IsZero() bool {
	return o.MaxEmbeddings == 0 && o.MaxSteps == 0 && o.MaxResults == 0 &&
		!o.Induced && o.Ctx == nil && o.CheckEvery == 0 &&
		o.TargetIndex == nil && o.Order == nil
}

// StopReason says why a search gave up before exhausting its space.
type StopReason string

// Stop reasons. StopNone means the search ran to completion (or hit
// MaxEmbeddings, which is a satisfied request, not a failure to finish).
const (
	StopNone     StopReason = ""
	StopSteps    StopReason = "steps"    // MaxSteps budget exhausted
	StopCanceled StopReason = "canceled" // Options.Ctx canceled or deadline exceeded
)

// Result summarizes a matching run.
type Result struct {
	// Embeddings is the number of embeddings found (capped by
	// MaxEmbeddings if set).
	Embeddings int
	// Steps is the number of search-tree nodes expanded.
	Steps int
	// Truncated reports that the search gave up (step budget or context
	// cancellation) before the search space was fully explored — the
	// counts are a sound lower bound, not an exact answer.
	Truncated bool
	// Reason distinguishes *why* a truncated search gave up: a step budget
	// (StopSteps) or a canceled/expired context (StopCanceled). StopNone
	// when Truncated is false.
	Reason StopReason
}

// matcher is one matching run's state. Its slices are scratch buffers that
// a run sizes to its pattern (used: to its target) and that outlive the run
// in matcherPool, so a warm Enumerate spends no allocations on set-up.
type matcher struct {
	p, t     *graph.Graph
	opts     Options
	order    []graph.NodeID // pattern matching order
	anchors  []anchor       // for order[i>0]: a previously-matched neighbor + edge label
	pAdj     [][]pedge      // pattern adjacency with labels; rows slice adjBuf
	adjBuf   []pedge        // every pattern adjacency entry, row after row
	core     []graph.NodeID // pattern node -> target node (-1 unmatched)
	used     []bool         // target node already used; all false between runs
	inOrder  []bool         // pattern node already placed in order
	rarity   []int          // pattern node -> target nodes its label matches
	labels   []string       // distinct non-wildcard pattern labels (rarity scratch)
	counts   []int          // target frequency of each of labels (rarity scratch)
	fn       func(mapping []graph.NodeID) bool
	res      Result
	stopped  bool
	ctxEvery int // poll Ctx every this many steps (0 = no context)
}

// matcherPool recycles matchers and their buffers across runs. A matcher
// returns to the pool only after its run completes, so an fn that
// re-enters Enumerate gets a matcher of its own.
var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

type pedge struct {
	to    graph.NodeID
	label string
}

type anchor struct {
	prev  graph.NodeID // pattern node matched earlier
	label string       // label of edge (prev, order[i]) in the pattern
}

// labelMatch reports whether pattern label pl is compatible with target
// label tl.
func labelMatch(pl, tl string) bool { return pl == Wildcard || pl == tl }

// Exists reports whether pattern has at least one embedding in target under
// the given options.
func Exists(pattern, target *graph.Graph, opts Options) bool {
	opts.MaxEmbeddings = 1
	r := Enumerate(pattern, target, opts, nil)
	return r.Embeddings > 0
}

// Count returns the number of embeddings of pattern in target, subject to
// opts budgets.
func Count(pattern, target *graph.Graph, opts Options) Result {
	return Enumerate(pattern, target, opts, nil)
}

// Enumerate finds embeddings of pattern in target and calls fn for each one
// with the mapping from pattern node IDs to target node IDs. The mapping
// slice is reused between calls and after Enumerate returns; fn must copy
// it to retain it. Enumeration stops when fn returns false, the embedding
// cap is hit, or the step budget is exhausted. fn may be nil (counting
// only).
//
// The empty pattern has exactly one (empty) embedding in any target.
func Enumerate(pattern, target *graph.Graph, opts Options, fn func(mapping []graph.NodeID) bool) Result {
	res := enumerate(pattern, target, opts, fn)
	recordSearch(&res)
	return res
}

func enumerate(pattern, target *graph.Graph, opts Options, fn func(mapping []graph.NodeID) bool) Result {
	// An already-dead context yields an immediate, clearly-marked
	// truncation instead of paying for even one search step.
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return Result{Truncated: true, Reason: StopCanceled}
	}
	if pattern.NumNodes() == 0 {
		if fn != nil {
			fn(nil)
		}
		return Result{Embeddings: 1}
	}
	if pattern.NumNodes() > target.NumNodes() || pattern.NumEdges() > target.NumEdges() {
		return Result{}
	}
	m := matcherPool.Get().(*matcher)
	m.p, m.t, m.opts, m.fn = pattern, target, opts, fn
	m.res, m.stopped, m.ctxEvery = Result{}, false, 0
	if opts.Ctx != nil {
		m.ctxEvery = opts.CheckEvery
		if m.ctxEvery <= 0 {
			m.ctxEvery = DefaultCheckEvery
		}
	}
	m.prepare()
	m.core = resize(m.core, pattern.NumNodes())
	for i := range m.core {
		m.core[i] = -1
	}
	// Every search backtracks used to all false, so a pooled buffer needs
	// no clearing.
	m.used = resize(m.used, target.NumNodes())
	m.search(0)
	res := m.res
	m.p, m.t, m.opts, m.fn = nil, nil, Options{}, nil
	matcherPool.Put(m)
	return res
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Elements keep whatever the backing array held; a fresh
// array is zeroed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare builds the pattern adjacency and computes the matching order: a
// connectivity-preserving order that starts at the most constrained node
// (rarest label, then highest degree) and always extends the matched
// frontier when possible (patterns may be disconnected; each new component
// restarts at its most constrained node). A valid Options.Order
// short-circuits the heuristic entirely.
func (m *matcher) prepare() {
	n := m.p.NumNodes()
	// One flat buffer holds every row, sized up front so appends never
	// move the rows already sliced from it.
	if deg := 2 * m.p.NumEdges(); cap(m.adjBuf) < deg {
		m.adjBuf = make([]pedge, 0, deg)
	}
	m.adjBuf = m.adjBuf[:0]
	m.pAdj = resize(m.pAdj, n)
	for i := 0; i < n; i++ {
		start := len(m.adjBuf)
		m.p.VisitNeighbors(i, func(nbr graph.NodeID, e graph.EdgeID) bool {
			m.adjBuf = append(m.adjBuf, pedge{to: nbr, label: m.p.EdgeLabel(e)})
			return true
		})
		m.pAdj[i] = m.adjBuf[start:len(m.adjBuf):len(m.adjBuf)]
	}
	m.anchors = resize(m.anchors, n)
	if m.adoptOrder(m.opts.Order) {
		return
	}
	m.computeRarity()
	m.clearInOrder(n)
	m.order = m.order[:0]
	for len(m.order) < n {
		// Pick the best frontier node: adjacent to the matched set if any
		// such node exists, otherwise the best unmatched node (new
		// component).
		best := graph.NodeID(-1)
		bestAnchored := false
		for v := 0; v < n; v++ {
			if m.inOrder[v] {
				continue
			}
			anchored := false
			for _, pe := range m.pAdj[v] {
				if m.inOrder[pe.to] {
					anchored = true
					break
				}
			}
			if best == -1 || m.better(v, anchored, best, bestAnchored) {
				best = v
				bestAnchored = anchored
			}
		}
		idx := len(m.order)
		m.order = append(m.order, best)
		m.inOrder[best] = true
		m.anchors[idx] = anchor{prev: -1}
		if bestAnchored {
			for _, pe := range m.pAdj[best] {
				if pe.to != best && m.inOrder[pe.to] {
					m.anchors[idx] = anchor{prev: pe.to, label: pe.label}
					break
				}
			}
		}
	}
}

// better reports whether unplaced pattern node v should take the next
// order slot from the current pick best; anchored and bestAnchored say
// whether each has a neighbor already placed.
func (m *matcher) better(v graph.NodeID, anchored bool, best graph.NodeID, bestAnchored bool) bool {
	if anchored != bestAnchored {
		return anchored
	}
	if rv, rb := m.rarity[v], m.rarity[best]; rv != rb {
		return rv < rb
	}
	if dv, db := len(m.pAdj[v]), len(m.pAdj[best]); dv != db {
		return dv > db
	}
	// Equal rarity and degree: break the tie by label, not node index, so
	// two drawings of the same pattern (nodes inserted in different
	// orders) compute label-identical matching orders — required for
	// compiled plans to be byte-stable across runs.
	if lv, lb := m.p.NodeLabel(v), m.p.NodeLabel(best); lv != lb {
		return lv < lb
	}
	return v < best
}

// computeRarity sets each pattern node's rarity: how many target nodes its
// label matches. A wildcard matches every node; a prebuilt LabelIndex
// answers the rest directly; otherwise one scan of the target counts just
// the pattern's distinct labels.
func (m *matcher) computeRarity() {
	m.rarity = resize(m.rarity, m.p.NumNodes())
	if ix := m.opts.TargetIndex; ix != nil {
		for v := range m.rarity {
			if l := m.p.NodeLabel(v); l == Wildcard {
				m.rarity[v] = m.t.NumNodes()
			} else {
				m.rarity[v] = ix.Freq(l)
			}
		}
		return
	}
	// rarity[v] first holds the index of v's label in labels (-1 for a
	// wildcard), then that label's count.
	m.labels = m.labels[:0]
	for v := range m.rarity {
		l := m.p.NodeLabel(v)
		if l == Wildcard {
			m.rarity[v] = -1
			continue
		}
		k := 0
		for k < len(m.labels) && m.labels[k] != l {
			k++
		}
		if k == len(m.labels) {
			m.labels = append(m.labels, l)
		}
		m.rarity[v] = k
	}
	m.counts = resize(m.counts, len(m.labels))
	clear(m.counts)
	if len(m.labels) > 0 {
		for tv := 0; tv < m.t.NumNodes(); tv++ {
			tl := m.t.NodeLabel(tv)
			for k, l := range m.labels {
				if l == tl {
					m.counts[k]++
					break
				}
			}
		}
	}
	for v, k := range m.rarity {
		if k < 0 {
			m.rarity[v] = m.t.NumNodes()
		} else {
			m.rarity[v] = m.counts[k]
		}
	}
}

// clearInOrder sizes inOrder to n pattern nodes, all unplaced.
func (m *matcher) clearInOrder(n int) {
	m.inOrder = resize(m.inOrder, n)
	clear(m.inOrder)
}

// adoptOrder installs a caller-supplied matching order (Options.Order) if
// it is a permutation of the pattern's nodes, deriving each node's anchor
// from its first neighbor that appears earlier in the order. Non-
// permutations are rejected (heuristic runs instead); a permutation that
// is not connectivity-preserving merely leaves some anchors empty, which
// costs full root scans but stays correct — tryExtend checks every
// matched neighbor regardless of anchoring.
func (m *matcher) adoptOrder(ord []graph.NodeID) bool {
	n := m.p.NumNodes()
	if len(ord) != n {
		return false
	}
	m.clearInOrder(n)
	for _, v := range ord {
		if v < 0 || v >= n || m.inOrder[v] {
			return false
		}
		m.inOrder[v] = true
	}
	m.order = append(m.order[:0], ord...)
	m.clearInOrder(n)
	for i, v := range ord {
		m.anchors[i] = anchor{prev: -1}
		for _, pe := range m.pAdj[v] {
			if pe.to != v && m.inOrder[pe.to] {
				m.anchors[i] = anchor{prev: pe.to, label: pe.label}
				break
			}
		}
		m.inOrder[v] = true
	}
	return true
}

func (m *matcher) search(depth int) {
	if m.stopped {
		return
	}
	if depth == len(m.order) {
		m.res.Embeddings++
		if m.fn != nil && !m.fn(m.core) {
			m.stopped = true
		}
		if m.opts.MaxEmbeddings > 0 && m.res.Embeddings >= m.opts.MaxEmbeddings {
			m.stopped = true
		}
		return
	}
	pv := m.order[depth]
	a := m.anchors[depth]
	if a.prev >= 0 {
		// Candidates are the neighbors of the already-matched anchor.
		tu := m.core[a.prev]
		m.t.VisitNeighbors(tu, func(tv graph.NodeID, e graph.EdgeID) bool {
			if m.stopped {
				return false
			}
			if !m.used[tv] && labelMatch(a.label, m.t.EdgeLabel(e)) {
				m.tryExtend(depth, pv, tv)
			}
			return !m.stopped
		})
		return
	}
	// No anchor (first node of a component): scan the root label's class
	// when an index is available, otherwise all target nodes. The class is
	// ascending, so this visits exactly the nodes the full scan would pass
	// to tryExtend and survive its label check, in the same order.
	if ix := m.opts.TargetIndex; ix != nil {
		if l := m.p.NodeLabel(pv); l != Wildcard {
			for _, tv := range ix.Nodes(l) {
				if m.stopped {
					return
				}
				if !m.used[tv] {
					m.tryExtend(depth, pv, tv)
				}
			}
			return
		}
	}
	for tv := 0; tv < m.t.NumNodes() && !m.stopped; tv++ {
		if !m.used[tv] {
			m.tryExtend(depth, pv, tv)
		}
	}
}

// tryExtend attempts to map pattern node pv to target node tv at the given
// depth and recurses on success.
func (m *matcher) tryExtend(depth int, pv, tv graph.NodeID) {
	m.res.Steps++
	if m.opts.MaxSteps > 0 && m.res.Steps > m.opts.MaxSteps {
		m.res.Truncated = true
		m.res.Reason = StopSteps
		m.stopped = true
		return
	}
	if m.ctxEvery > 0 && m.res.Steps%m.ctxEvery == 0 && m.opts.Ctx.Err() != nil {
		m.res.Truncated = true
		m.res.Reason = StopCanceled
		m.stopped = true
		return
	}
	if !labelMatch(m.p.NodeLabel(pv), m.t.NodeLabel(tv)) {
		return
	}
	if len(m.pAdj[pv]) > m.t.Degree(tv) {
		return
	}
	// Feasibility: every already-matched pattern neighbor of pv must be a
	// target neighbor of tv with a compatible edge label; under Induced,
	// additionally no already-matched pattern NON-neighbor may be adjacent
	// to tv.
	for _, pe := range m.pAdj[pv] {
		if tu := m.core[pe.to]; tu >= 0 {
			te, ok := m.t.EdgeBetween(tv, tu)
			if !ok || !labelMatch(pe.label, m.t.EdgeLabel(te)) {
				return
			}
		}
	}
	if m.opts.Induced {
		for pu, tu := range m.core {
			if tu < 0 || m.p.HasEdge(pv, graph.NodeID(pu)) {
				continue
			}
			if m.t.HasEdge(tv, tu) {
				return
			}
		}
	}
	m.core[pv] = tv
	m.used[tv] = true
	m.search(depth + 1)
	m.core[pv] = -1
	m.used[tv] = false
}

// Isomorphic reports whether a and b are isomorphic as labeled graphs.
func Isomorphic(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if !sameMultiset(a.NodeLabels(), b.NodeLabels()) || !sameMultiset(a.EdgeLabels(), b.EdgeLabels()) {
		return false
	}
	if !sameDegreeSeq(a, b) {
		return false
	}
	return Exists(a, b, Options{Induced: true})
}

// Automorphisms returns the number of automorphisms of g (label-preserving
// self-isomorphisms). Intended for small pattern graphs.
func Automorphisms(g *graph.Graph) int {
	r := Count(g, g, Options{Induced: true})
	return r.Embeddings
}

// CountDistinct returns the number of distinct matches of pattern in
// target — embeddings modulo the pattern's automorphisms. This is the
// count a Results Panel reports to users: a triangle occurring once has
// one match, not six. The result is exact when neither search truncates.
func CountDistinct(pattern, target *graph.Graph, opts Options) int {
	if pattern.NumNodes() == 0 {
		return 0
	}
	aut := Automorphisms(pattern)
	if aut == 0 {
		return 0
	}
	r := Count(pattern, target, opts)
	return r.Embeddings / aut
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sameDegreeSeq(a, b *graph.Graph) bool {
	da, db := a.DegreeSequence(), b.DegreeSequence()
	for i := range da {
		if da[i] != db[i] {
			return false
		}
	}
	return true
}

// CoveredEdges returns, for each edge of target, whether it is covered by
// at least one embedding of pattern. Enumeration respects the opts budgets;
// with tight budgets the result is a (sound) under-approximation.
//
// Edge coverage is the quantity CATAPULT's and TATTOO's coverage measures
// aggregate: an edge (u,v) of the target is covered if some embedding maps
// a pattern edge onto it.
func CoveredEdges(pattern, target *graph.Graph, opts Options) []bool {
	covered := make([]bool, target.NumEdges())
	if pattern.NumNodes() == 0 || pattern.NumEdges() == 0 {
		return covered
	}
	pEdges := pattern.Edges()
	Enumerate(pattern, target, opts, func(mapping []graph.NodeID) bool {
		for _, pe := range pEdges {
			if te, ok := target.EdgeBetween(mapping[pe.U], mapping[pe.V]); ok {
				covered[te] = true
			}
		}
		return true
	})
	return covered
}

// CoverageFraction returns the fraction of target edges covered by
// embeddings of pattern, in [0,1].
func CoverageFraction(pattern, target *graph.Graph, opts Options) float64 {
	if target.NumEdges() == 0 {
		return 0
	}
	covered := CoveredEdges(pattern, target, opts)
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	return float64(n) / float64(len(covered))
}
