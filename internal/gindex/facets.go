package gindex

// Memoized panel facets. The Results Panel groups every answer by the
// canned patterns each matched graph contains (results.Facets). Which
// patterns a graph contains depends only on the graph and the panel, so
// each shard's index keeps one small mask per graph slot, filled the
// first time that graph is faceted and reused by every later answer that
// includes it. derive carries survivors' masks like their label indexes;
// masks are never persisted, never filled at boot, and never filled for a
// graph that no answer matched.

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
)

// Panel is a fixed, ordered list of patterns that answers are grouped by
// — a server's canned patterns. A mask is memoized for the *Panel it was
// computed with; asking with a different Panel recomputes it. Build one
// Panel per pattern list and keep it.
type Panel struct {
	patterns []*pattern.Pattern
}

// NewPanel returns a panel over patterns, in order. The slice is held by
// reference; treat it as immutable.
func NewPanel(patterns []*pattern.Pattern) *Panel {
	return &Panel{patterns: patterns}
}

// Len returns the number of patterns on the panel.
func (p *Panel) Len() int { return len(p.patterns) }

// panelMask is one graph's memoized containment mask for one panel.
type panelMask struct {
	panel *Panel
	bits  pattern.Bitset // bit i: the graph contains panel pattern i
}

// contains decides which of p's patterns g contains exactly as
// results.Facets does — isomorph.Exists under pattern.MatchOptions(),
// with no label index and no context — so a memoized bit equals the
// on-the-fly answer even where the step budget cuts a check short.
func (p *Panel) contains(g *graph.Graph) pattern.Bitset {
	b := pattern.NewBitset(len(p.patterns))
	opts := pattern.MatchOptions()
	for i, pt := range p.patterns {
		if isomorph.Exists(pt.G, g, opts) {
			b.Set(i)
		}
	}
	return b
}

// maskFor returns graph gi's mask for p, computing and memoizing it when
// the slot is empty or holds another panel's mask; only then is the graph
// read. Concurrent callers may both compute it; they store identical
// values. nil when the graph cannot be read.
func (idx *Index) maskFor(gi int, p *Panel) pattern.Bitset {
	old := idx.panelMask[gi].Load()
	if old != nil && old.panel == p {
		return old.bits
	}
	g, err := idx.corpus.Hydrate(gi)
	if err != nil {
		return nil
	}
	m := &panelMask{panel: p, bits: p.contains(g)}
	idx.panelMask[gi].CompareAndSwap(old, m)
	return m.bits
}

// PanelMasks returns, for each named graph, the set of p's patterns it
// contains: masks[i].Get(j) is isomorph.Exists(pattern j, graph names[i],
// pattern.MatchOptions()). Masks are memoized per graph slot, so a graph
// is checked against the panel once per index lineage, not once per
// answer. Only the named graphs are hydrated. A name the index does not
// hold, or whose graph cannot be read, gets an empty mask.
func (sh *Sharded) PanelMasks(names []string, p *Panel) []pattern.Bitset {
	masks := make([]pattern.Bitset, len(names))
	var none pattern.Bitset
	for i, name := range names {
		masks[i] = sh.panelMask(name, p)
		if masks[i] == nil {
			if none == nil {
				none = pattern.NewBitset(p.Len())
			}
			masks[i] = none
		}
	}
	return masks
}

// panelMask returns the memoized mask of the named graph, nil when the
// graph is not indexed or cannot be read.
func (sh *Sharded) panelMask(name string, p *Panel) pattern.Bitset {
	gp, ok := sh.pos[name]
	if !ok {
		return nil
	}
	s := ShardOf(name, sh.k)
	return sh.shards[s].idx.maskFor(sort.SearchInts(sh.globals[s], gp), p)
}
