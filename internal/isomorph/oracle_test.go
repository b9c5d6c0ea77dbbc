package isomorph

// The differential oracle: the matcher as it was before its per-call set-up
// was made allocation-free (pooled state, flat pattern adjacency, rarity
// computed once per pattern node), kept verbatim apart from renamed
// identifiers. The property tests in differential_test.go require the
// production matcher to agree with it on every Result field and on the exact
// sequence of mappings it reports.

import "repro/internal/graph"

type refMatcher struct {
	p, t     *graph.Graph
	opts     Options
	order    []graph.NodeID // pattern matching order
	anchors  []refAnchor    // for order[i>0]: a previously-matched neighbor + edge label
	pAdj     [][]refPedge   // pattern adjacency with labels
	core     []graph.NodeID // pattern node -> target node (-1 unmatched)
	used     []bool         // target node already used
	fn       func(mapping []graph.NodeID) bool
	res      Result
	stopped  bool
	ctxEvery int // poll Ctx every this many steps (0 = no context)
}

type refPedge struct {
	to    graph.NodeID
	label string
}

type refAnchor struct {
	prev  graph.NodeID // pattern node matched earlier
	label string       // label of edge (prev, order[i]) in the pattern
}

// refLabelMatch reports whether pattern label pl is compatible with target
// label tl.
func refLabelMatch(pl, tl string) bool { return pl == Wildcard || pl == tl }

func refEnumerate(pattern, target *graph.Graph, opts Options, fn func(mapping []graph.NodeID) bool) Result {
	m := &refMatcher{p: pattern, t: target, opts: opts, fn: fn}
	if opts.Ctx != nil {
		m.ctxEvery = opts.CheckEvery
		if m.ctxEvery <= 0 {
			m.ctxEvery = DefaultCheckEvery
		}
		// An already-dead context yields an immediate, clearly-marked
		// truncation instead of paying for even one search step.
		if opts.Ctx.Err() != nil {
			m.res.Truncated = true
			m.res.Reason = StopCanceled
			return m.res
		}
	}
	if pattern.NumNodes() == 0 {
		m.res.Embeddings = 1
		if fn != nil {
			fn(nil)
		}
		return m.res
	}
	if pattern.NumNodes() > target.NumNodes() || pattern.NumEdges() > target.NumEdges() {
		return m.res
	}
	m.prepare()
	m.core = make([]graph.NodeID, pattern.NumNodes())
	for i := range m.core {
		m.core[i] = -1
	}
	m.used = make([]bool, target.NumNodes())
	m.search(0)
	return m.res
}

// prepare computes the matching order: a connectivity-preserving order that
// starts at the most constrained node (rarest label, then highest degree)
// and always extends the matched frontier when possible (patterns may be
// disconnected; each new component restarts at its most constrained node).
// A valid Options.Order short-circuits the heuristic entirely.
func (m *refMatcher) prepare() {
	n := m.p.NumNodes()
	m.pAdj = make([][]refPedge, n)
	for i := 0; i < n; i++ {
		m.p.VisitNeighbors(i, func(nbr graph.NodeID, e graph.EdgeID) bool {
			m.pAdj[i] = append(m.pAdj[i], refPedge{to: nbr, label: m.p.EdgeLabel(e)})
			return true
		})
	}
	if m.adoptOrder(m.opts.Order) {
		return
	}
	// Rarity of node labels in the target guides the start node: a
	// prebuilt LabelIndex answers frequencies directly, otherwise count
	// once into a map.
	var tLabelFreq map[string]int
	if m.opts.TargetIndex == nil {
		tLabelFreq = m.t.NodeLabels()
	}
	rarity := func(v graph.NodeID) int {
		l := m.p.NodeLabel(v)
		if l == Wildcard {
			return m.t.NumNodes()
		}
		if ix := m.opts.TargetIndex; ix != nil {
			return ix.Freq(l)
		}
		return tLabelFreq[l]
	}
	inOrder := make([]bool, n)
	m.order = m.order[:0]
	m.anchors = make([]refAnchor, n)
	for len(m.order) < n {
		// Pick the best frontier node: adjacent to the matched set if any
		// such node exists, otherwise the best unmatched node (new
		// component).
		best := graph.NodeID(-1)
		bestAnchored := false
		better := func(v graph.NodeID, anchored bool) bool {
			if best == -1 {
				return true
			}
			if anchored != bestAnchored {
				return anchored
			}
			rv, rb := rarity(v), rarity(best)
			if rv != rb {
				return rv < rb
			}
			dv, db := len(m.pAdj[v]), len(m.pAdj[best])
			if dv != db {
				return dv > db
			}
			// Equal rarity and degree: break the tie by label, not node
			// index, so two drawings of the same pattern (nodes inserted in
			// different orders) compute label-identical matching orders —
			// required for compiled plans to be byte-stable across runs.
			if lv, lb := m.p.NodeLabel(v), m.p.NodeLabel(best); lv != lb {
				return lv < lb
			}
			return v < best
		}
		for v := 0; v < n; v++ {
			if inOrder[v] {
				continue
			}
			anchored := false
			for _, pe := range m.pAdj[v] {
				if inOrder[pe.to] {
					anchored = true
					break
				}
			}
			if better(v, anchored) {
				best = v
				bestAnchored = anchored
			}
		}
		idx := len(m.order)
		m.order = append(m.order, best)
		inOrder[best] = true
		m.anchors[idx] = refAnchor{prev: -1}
		if bestAnchored {
			for _, pe := range m.pAdj[best] {
				if pe.to != best && refContainsNode(m.order[:idx], pe.to) {
					m.anchors[idx] = refAnchor{prev: pe.to, label: pe.label}
					break
				}
			}
		}
	}
}

// adoptOrder installs a caller-supplied matching order (Options.Order) if
// it is a permutation of the pattern's nodes, deriving each node's anchor
// from its first neighbor that appears earlier in the order. Non-
// permutations are rejected (heuristic runs instead); a permutation that
// is not connectivity-preserving merely leaves some anchors empty, which
// costs full root scans but stays correct — tryExtend checks every
// matched neighbor regardless of anchoring.
func (m *refMatcher) adoptOrder(ord []graph.NodeID) bool {
	n := m.p.NumNodes()
	if len(ord) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range ord {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	m.order = append(m.order[:0], ord...)
	m.anchors = make([]refAnchor, n)
	inOrder := make([]bool, n)
	for i, v := range ord {
		m.anchors[i] = refAnchor{prev: -1}
		for _, pe := range m.pAdj[v] {
			if pe.to != v && inOrder[pe.to] {
				m.anchors[i] = refAnchor{prev: pe.to, label: pe.label}
				break
			}
		}
		inOrder[v] = true
	}
	return true
}

func refContainsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (m *refMatcher) search(depth int) {
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
			if !m.used[tv] && refLabelMatch(a.label, m.t.EdgeLabel(e)) {
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
func (m *refMatcher) tryExtend(depth int, pv, tv graph.NodeID) {
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
	if !refLabelMatch(m.p.NodeLabel(pv), m.t.NodeLabel(tv)) {
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
			if !ok || !refLabelMatch(pe.label, m.t.EdgeLabel(te)) {
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
