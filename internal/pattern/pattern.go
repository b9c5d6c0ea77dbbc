// Package pattern defines the pattern model shared by every selection and
// maintenance framework in this repository, together with the three quality
// measures the tutorial reviews: coverage, diversity, and cognitive load.
//
// Terminology follows the tutorial (Section 2.3):
//
//   - A basic (default) pattern has size at most BasicMaxSize edges (edge,
//     2-path, triangle). End users know these shapes; every VQI exposes
//     them statically.
//   - A canned pattern is a connected subgraph larger than BasicMaxSize,
//     mined from the data source; canned pattern sets should have high
//     coverage, high structural diversity, and low cognitive load.
//
// Pattern size is measured in edges, consistent with the "edge, 2-edge,
// triangle" enumeration of basic patterns in the tutorial.
package pattern

import (
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/graphlet"
	"repro/internal/isomorph"
	"repro/internal/plan"
)

// BasicMaxSize is the maximum size (in edges) of a basic pattern; larger
// patterns are canned patterns. The tutorial uses z ≤ 3.
const BasicMaxSize = 3

// Pattern is a reusable query building block displayed on a VQI's Pattern
// Panel.
type Pattern struct {
	// G is the pattern graph. Node/edge labels may be isomorph.Wildcard to
	// match any label.
	G *graph.Graph
	// Source records which generator produced the pattern (e.g. "basic",
	// "catapult", "tattoo:star"), for reporting and ablation.
	Source string
	// Support is generator-specific frequency information (e.g. number of
	// cluster summary graphs or truss regions the pattern occurred in).
	Support int

	canonStr string    // lazily computed canonical form
	features []float64 // lazily computed feature vector
}

// New wraps a graph as a pattern.
func New(g *graph.Graph, source string) *Pattern {
	return &Pattern{G: g, Source: source}
}

// Size returns the pattern size in edges.
func (p *Pattern) Size() int { return p.G.NumEdges() }

// Nodes returns the number of nodes.
func (p *Pattern) Nodes() int { return p.G.NumNodes() }

// IsBasic reports whether the pattern is a basic (default) pattern.
func (p *Pattern) IsBasic() bool { return p.Size() <= BasicMaxSize }

// Canon returns the canonical string of the pattern graph, computed once.
func (p *Pattern) Canon() string {
	if p.canonStr == "" {
		p.canonStr = canon.String(p.G)
	}
	return p.canonStr
}

// String returns a short description.
func (p *Pattern) String() string {
	return fmt.Sprintf("%s[n=%d,m=%d]", p.Source, p.G.NumNodes(), p.G.NumEdges())
}

// Budget is the user-specified constraint on a canned pattern set: how many
// patterns the Pattern Panel displays and the permissible size range (in
// edges) of each.
type Budget struct {
	Count   int // number of canned patterns to select
	MinSize int // minimum pattern size in edges (> BasicMaxSize for canned)
	MaxSize int // maximum pattern size in edges
}

// Validate returns an error if the budget is not sensible.
func (b Budget) Validate() error {
	if b.Count <= 0 {
		return fmt.Errorf("pattern: budget count %d must be positive", b.Count)
	}
	if b.MinSize <= 0 || b.MaxSize < b.MinSize {
		return fmt.Errorf("pattern: budget size range [%d,%d] invalid", b.MinSize, b.MaxSize)
	}
	return nil
}

// Admits reports whether a pattern's size falls within the budget's range.
func (b Budget) Admits(p *Pattern) bool {
	return p.Size() >= b.MinSize && p.Size() <= b.MaxSize
}

// DefaultBudget mirrors the ranges used in the surveyed evaluations: 10
// patterns of 4-12 edges.
func DefaultBudget() Budget { return Budget{Count: 10, MinSize: 4, MaxSize: 12} }

// Basic returns the three basic patterns (edge, 2-path, triangle) with
// wildcard labels. Every VQI, manual or data-driven, exposes these.
func Basic() []*Pattern {
	edge := graph.New("basic-edge")
	edge.AddNodes(2, isomorph.Wildcard)
	edge.MustAddEdge(0, 1, isomorph.Wildcard)

	path2 := graph.New("basic-2path")
	path2.AddNodes(3, isomorph.Wildcard)
	path2.MustAddEdge(0, 1, isomorph.Wildcard)
	path2.MustAddEdge(1, 2, isomorph.Wildcard)

	tri := graph.New("basic-triangle")
	tri.AddNodes(3, isomorph.Wildcard)
	tri.MustAddEdge(0, 1, isomorph.Wildcard)
	tri.MustAddEdge(1, 2, isomorph.Wildcard)
	tri.MustAddEdge(0, 2, isomorph.Wildcard)

	return []*Pattern{New(edge, "basic"), New(path2, "basic"), New(tri, "basic")}
}

// MatchOptions returns the embedding-search budgets used when scoring
// patterns. Bounded search keeps pattern scoring tractable on medium
// graphs; coverage becomes a sound under-approximation when budgets bind.
func MatchOptions() isomorph.Options {
	return isomorph.Options{MaxEmbeddings: 64, MaxSteps: 200000}
}

// PlanConfig returns the zero plan.Config; callers fill in their
// deployment capabilities (ANN state, result budget) themselves.
//
// Deprecated: vqibench's in-process replica is its only user; delete it
// when that replica is retired.
func PlanConfig() plan.Config {
	return plan.Config{}
}

// ---------------------------------------------------------------------------
// Cognitive load
// ---------------------------------------------------------------------------

// CognitiveLoad quantifies the working-memory demand of visually
// interpreting a pattern, following the size-and-density model of the
// surveyed work: interpreting edge relationships gets harder with the
// number of edges and with how entangled they are. The measure is
//
//	cl(p) = m · (1 + density(p)) / 2
//
// normalized so an edge pattern scores ≈ 0.5·(1+1)=1 low and a 12-edge
// near-clique scores ≈ 12. Lower is better.
func CognitiveLoad(p *Pattern) float64 {
	m := float64(p.G.NumEdges())
	return m * (1 + p.G.Density()) / 2
}

// NormalizedCognitiveLoad maps CognitiveLoad into [0,1] relative to the
// worst admissible pattern under the budget (a clique of MaxSize edges,
// density → 1).
func NormalizedCognitiveLoad(p *Pattern, b Budget) float64 {
	worst := float64(b.MaxSize) // m·(1+1)/2 with m = MaxSize
	if worst == 0 {
		return 0
	}
	cl := CognitiveLoad(p) / worst
	if cl > 1 {
		cl = 1
	}
	return cl
}

// SetCognitiveLoad is the mean normalized cognitive load of a pattern set.
func SetCognitiveLoad(set []*Pattern, b Budget) float64 {
	if len(set) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range set {
		s += NormalizedCognitiveLoad(p, b)
	}
	return s / float64(len(set))
}

// ---------------------------------------------------------------------------
// Diversity
// ---------------------------------------------------------------------------

// FeatureVector embeds a pattern into a fixed-dimension numeric space:
// its graphlet census plus coarse structural descriptors. Used for the
// structural-similarity measure underlying diversity. The vector is
// computed once per pattern and cached — the greedy and swapping loops
// evaluate similarities thousands of times.
func FeatureVector(p *Pattern) []float64 {
	if p.features == nil {
		gl := graphlet.Count(p.G)
		v := make([]float64, 0, int(graphlet.NumTypes)+3)
		for _, x := range gl {
			v = append(v, x)
		}
		v = append(v,
			float64(p.G.NumNodes()),
			float64(p.G.NumEdges()),
			float64(p.G.MaxDegree()),
		)
		p.features = v
	}
	return p.features
}

// Similarity is the cosine similarity of two patterns' feature vectors, in
// [0,1] (feature vectors are non-negative). Identical structures score 1.
func Similarity(p, q *Pattern) float64 {
	a, b := FeatureVector(p), FeatureVector(q)
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// SetDiversity is 1 minus the mean pairwise similarity of the set, in
// [0,1]. Singleton and empty sets score 1 (vacuously diverse).
func SetDiversity(set []*Pattern) float64 {
	if len(set) < 2 {
		return 1
	}
	sum, pairs := 0.0, 0
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			sum += Similarity(set[i], set[j])
			pairs++
		}
	}
	return 1 - sum/float64(pairs)
}

// MarginalDiversity returns the diversity contribution of adding cand to
// set: 1 minus its maximum similarity to any member. An empty set yields 1.
func MarginalDiversity(set []*Pattern, cand *Pattern) float64 {
	maxSim := 0.0
	for _, p := range set {
		if s := Similarity(p, cand); s > maxSim {
			maxSim = s
		}
	}
	return 1 - maxSim
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

// GraphCoverage returns the fraction of corpus graphs that contain at least
// one embedding of p ("p covers G" in the tutorial's definition).
func GraphCoverage(p *Pattern, c *graph.Corpus, opts isomorph.Options) float64 {
	if c.Len() == 0 {
		return 0
	}
	covered := 0
	c.Each(func(_ int, g *graph.Graph) {
		if isomorph.Exists(p.G, g, opts) {
			covered++
		}
	})
	return float64(covered) / float64(c.Len())
}

// CoverageIndex tracks, per corpus edge, whether any committed pattern
// covers it. It supports the greedy marginal-gain loop shared by CATAPULT,
// TATTOO (on a single network: use a 1-graph corpus), and MIDAS's swapping
// strategy.
type CoverageIndex struct {
	corpus  *graph.Corpus
	opts    isomorph.Options
	covered [][]bool // per graph, per edge
	total   int      // total edges in corpus
	hit     int      // covered edges
}

// NewCoverageIndex builds an empty index over the corpus.
func NewCoverageIndex(c *graph.Corpus, opts isomorph.Options) *CoverageIndex {
	idx := &CoverageIndex{corpus: c, opts: opts}
	idx.covered = make([][]bool, c.Len())
	c.Each(func(i int, g *graph.Graph) {
		idx.covered[i] = make([]bool, g.NumEdges())
		idx.total += g.NumEdges()
	})
	return idx
}

// Covered returns the fraction of corpus edges currently covered.
func (idx *CoverageIndex) Covered() float64 {
	if idx.total == 0 {
		return 0
	}
	return float64(idx.hit) / float64(idx.total)
}

// TotalEdges returns the number of edges in the indexed corpus.
func (idx *CoverageIndex) TotalEdges() int { return idx.total }

// Gain returns the number of corpus edges p would newly cover.
func (idx *CoverageIndex) Gain(p *Pattern) int {
	type key struct {
		gi int
		e  graph.EdgeID
	}
	seen := make(map[key]bool)
	gain := 0
	idx.visit(p, func(gi int, e graph.EdgeID) {
		k := key{gi, e}
		if !idx.covered[gi][e] && !seen[k] {
			seen[k] = true
			gain++
		}
	})
	return gain
}

// Commit marks the edges covered by p and returns the number newly
// covered.
func (idx *CoverageIndex) Commit(p *Pattern) int {
	gain := 0
	idx.visit(p, func(gi int, e graph.EdgeID) {
		if !idx.covered[gi][e] {
			idx.covered[gi][e] = true
			gain++
		}
	})
	idx.hit += gain
	return gain
}

// EachCovered calls fn for every currently covered edge, identified by
// corpus position and edge ID.
func (idx *CoverageIndex) EachCovered(fn func(gi int, e graph.EdgeID)) {
	for gi, row := range idx.covered {
		for e, cov := range row {
			if cov {
				fn(gi, e)
			}
		}
	}
}

// Clone returns an independent copy of the index (used by MIDAS's
// multi-scan swapping to evaluate tentative swaps).
func (idx *CoverageIndex) Clone() *CoverageIndex {
	c := &CoverageIndex{corpus: idx.corpus, opts: idx.opts, total: idx.total, hit: idx.hit}
	c.covered = make([][]bool, len(idx.covered))
	for i, row := range idx.covered {
		c.covered[i] = append([]bool(nil), row...)
	}
	return c
}

func (idx *CoverageIndex) visit(p *Pattern, fn func(gi int, e graph.EdgeID)) {
	pEdges := p.G.Edges()
	idx.corpus.Each(func(gi int, g *graph.Graph) {
		if p.G.NumNodes() > g.NumNodes() || p.G.NumEdges() > g.NumEdges() {
			return
		}
		isomorph.Enumerate(p.G, g, idx.opts, func(mapping []graph.NodeID) bool {
			for _, pe := range pEdges {
				if te, ok := g.EdgeBetween(mapping[pe.U], mapping[pe.V]); ok {
					fn(gi, te)
				}
			}
			return true
		})
	})
}

// SetEdgeCoverage computes the fraction of corpus edges covered by the
// union of the set's embeddings, from scratch.
func SetEdgeCoverage(set []*Pattern, c *graph.Corpus, opts isomorph.Options) float64 {
	idx := NewCoverageIndex(c, opts)
	for _, p := range set {
		idx.Commit(p)
	}
	return idx.Covered()
}

// SingletonCorpus wraps a single large network as a 1-graph corpus so the
// same coverage machinery serves TATTOO.
func SingletonCorpus(g *graph.Graph) *graph.Corpus {
	c := graph.NewCorpus()
	c.MustAdd(g)
	return c
}

// ---------------------------------------------------------------------------
// Pattern-set score
// ---------------------------------------------------------------------------

// Weights balances the three quality measures in the combined score. The
// surveyed frameworks expose these as tunables; equal thirds is the
// default.
type Weights struct {
	Coverage  float64
	Diversity float64
	CogLoad   float64
}

// DefaultWeights returns the default configuration: coverage and diversity
// weighted equally, with cognitive load as a lighter regularizer — a full
// unit weight on load would make the greedy collapse onto the smallest
// admissible patterns, defeating coverage.
func DefaultWeights() Weights { return Weights{Coverage: 1, Diversity: 1, CogLoad: 0.3} }

// SetScore is the pattern-set score: weighted coverage plus diversity minus
// cognitive load, the quantity the greedy selectors maximize and MIDAS's
// maintenance guarantee is stated over. Higher is better.
func SetScore(set []*Pattern, c *graph.Corpus, b Budget, w Weights, opts isomorph.Options) float64 {
	cov := SetEdgeCoverage(set, c, opts)
	div := SetDiversity(set)
	cl := SetCognitiveLoad(set, b)
	return w.Coverage*cov + w.Diversity*div - w.CogLoad*cl
}

// Dedup removes patterns with duplicate canonical forms, preserving order.
func Dedup(set []*Pattern) []*Pattern {
	seen := make(map[string]bool, len(set))
	out := set[:0:0]
	for _, p := range set {
		if key := p.Canon(); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}
