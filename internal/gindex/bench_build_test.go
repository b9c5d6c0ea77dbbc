package gindex

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/results"
)

// servingShapeCorpus is a corpus of the serving shape: 2,000 compounds of
// 14-30 atoms.
func servingShapeCorpus() *graph.Corpus {
	return datagen.ChemicalCorpus(1, 2000, datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30})
}

// Benchmark sinks, so the compiler cannot drop the measured calls.
var (
	builtSink  *Sharded
	facetsSink []results.Facet
)

// BenchmarkBuildSharded times a from-scratch two-shard build of a
// serving-shape corpus on one worker: the index half of a cold boot.
func BenchmarkBuildSharded(b *testing.B) {
	c := servingShapeCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtSink = BuildSharded(c, 2, 1)
	}
}

// BenchmarkFacets compares grouping one answer's matches by a ten-pattern
// panel on the fly (results.Facets: one VF2 check per pattern and graph)
// with reading the index's memoized masks, warm and cold (a new Panel
// per iteration, so every mask is recomputed).
func BenchmarkFacets(b *testing.B) {
	c := servingShapeCorpus()
	sh := BuildSharded(c, 2, 1)
	rng := rand.New(rand.NewSource(3))
	var pats []*pattern.Pattern
	for len(pats) < 10 {
		if g := datagen.RandomConnectedSubgraph(rng, c.Graph(rng.Intn(c.Len())), 3+rng.Intn(4)); g != nil {
			pats = append(pats, &pattern.Pattern{G: g})
		}
	}
	q := graph.New("q")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "s")
	matched := sh.Search(q, pattern.MatchOptions()).Matches
	group := func(masks []pattern.Bitset) {
		facetsSink, _ = results.Group(matched, len(pats), func(pi, mi int) bool { return masks[mi].Get(pi) })
	}
	b.Run("results.Facets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			facetsSink, _ = results.Facets(matched, c, pats, pattern.MatchOptions())
		}
	})
	b.Run("memo-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			group(sh.PanelMasks(matched, NewPanel(pats)))
		}
	})
	b.Run("memo-warm", func(b *testing.B) {
		p := NewPanel(pats)
		sh.PanelMasks(matched, p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			group(sh.PanelMasks(matched, p))
		}
	})
}
