// Package plan compiles a visual query into an optimized physical plan —
// the "query engine bridge" between what the user draws and how the
// matcher executes it.
//
// Compilation is three stages:
//
//  1. Parse lifts the drawn pattern into an AST with interned label ids
//     (Parse). Interning gives every label a stable integer identity, so
//     all downstream tie-breaks are byte-stable across runs and across
//     the order the user happened to draw nodes in.
//
//  2. RarestFirstOrder turns corpus label statistics (the Stats interface,
//     implemented by gindex over its inverted bitsets) into a
//     connectivity-preserving VF2 matching order that crosses the rarest
//     edges first — the classic "most selective first" join ordering
//     applied to backtracking search. The order changes only how fast VF2
//     runs, never which embeddings exist, so it is always safe to apply.
//
//  3. Compile chooses a Strategy with a deterministic cost model:
//     monolithic VF2, decomposition into sub-pattern fragments whose
//     containment views are intersected to prune candidates (profitable
//     when fragment views are cached or the pattern is large), or
//     ANN-shortlist-then-verify (profitable when a small MaxResults budget
//     meets a large candidate set). Every strategy returns exactly the
//     monolithic answer — the plan layer trades work, not correctness:
//     the executor (gindex.SearchPlan) confirms every match with exact
//     VF2, and strategies differ only in which candidates it verifies
//     and in what order.
//
// Plans are immutable and safe to share/cache; qcache.PlanKey keys them by
// canonical query code and the index epoch vector so corpus updates
// invalidate exactly the plans whose statistics went stale.
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/canon"
	"repro/internal/graph"
)

// Strategy names a physical execution strategy.
type Strategy string

const (
	// StrategyMonolithic runs one VF2 per filter candidate, with the
	// compiled matching order.
	StrategyMonolithic Strategy = "monolithic"
	// StrategyDecomposed probes cached per-fragment containment views,
	// intersects them, and verifies only the joint survivors with ordered
	// VF2.
	StrategyDecomposed Strategy = "decomposed"
	// StrategyANN verifies the most embedding-similar candidates first so a
	// MaxResults budget fills (and starts pruning) early, then completes an
	// ascending sweep for exactness.
	StrategyANN Strategy = "ann"
)

// Config bounds compilation. The zero value resolves to usable defaults.
type Config struct {
	// MinDecomposeEdges is the smallest pattern (in edges) considered for
	// decomposition (0 = 8). Below it fragment overhead always loses.
	MinDecomposeEdges int
	// MaxFragments caps the fragment count, prefix fragment included
	// (0 = 3). More fragments mean more views to probe and join.
	MaxFragments int
	// ANN reports that the executing index carries similarity state, making
	// StrategyANN available.
	ANN bool
	// MaxResults is the serving result budget the plan will run under
	// (0 = unlimited). StrategyANN is only profitable under a budget.
	MaxResults int
	// HasViewCache reports that fragment views will be served from a
	// materialized-view cache, discounting the probe cost for warm views.
	HasViewCache bool
	// Force, when non-empty, overrides the cost-model choice with the given
	// strategy where feasible (a forced StrategyDecomposed still requires a
	// decomposable pattern, a forced StrategyANN an ANN-enabled config;
	// otherwise the plan degrades to StrategyMonolithic). Used by the
	// serving layer's ?plan= override and by benchmarks that measure one
	// strategy in isolation.
	Force Strategy
}

func (c Config) resolved() Config {
	if c.MinDecomposeEdges <= 0 {
		c.MinDecomposeEdges = 8
	}
	if c.MaxFragments <= 0 {
		c.MaxFragments = 3
	}
	return c
}

// Plan is a compiled physical plan. Immutable; safe for concurrent use and
// for caching under qcache.PlanKey.
type Plan struct {
	// Canon is the canonical code of the compiled query.
	Canon string
	// Strategy is the chosen execution strategy.
	Strategy Strategy
	// Order is the compiled matching order: a permutation of the pattern's
	// nodes, rarest-edge-first and connectivity-preserving. Valid for every
	// strategy (isomorph.Options.Order).
	Order []graph.NodeID
	// Fragments is the sub-pattern decomposition (nil unless the pattern
	// decomposes; always populated when it does, even if the cost model
	// picked another strategy, so a forced decomposed run needs no
	// recompile).
	Fragments []Fragment
	// Connected reports the pattern is connected (decomposition requires
	// it).
	Connected bool
	// EstCandidates estimates how many corpus graphs survive filtering.
	EstCandidates float64
	// CostMonolithic and CostDecomposed are the cost-model scores that
	// picked Strategy (CostDecomposed is 0 when the pattern does not
	// decompose). Units are abstract "work"; only the comparison matters.
	CostMonolithic float64
	CostDecomposed float64
}

// Cost-model constants. The model is deliberately coarse — it has to rank
// three strategies, not predict wall time — and fully deterministic: equal
// inputs compile equal plans, byte for byte.
const (
	// verifyBase is the per-edge branching factor of a VF2 check; cost
	// grows geometrically with pattern edges (capped so huge patterns do
	// not overflow).
	verifyBase   = 1.35
	verifyCapExp = 18
	// viewCacheDiscount scales fragment probe cost when views are served
	// from a warm materialized-view cache.
	viewCacheDiscount = 0.35
	// annShortlistFactor: StrategyANN pays off when the candidate estimate
	// exceeds this multiple of the result budget.
	annShortlistFactor = 4
)

// verifyCost scores one VF2 containment check of an m-edge pattern.
func verifyCost(m int) float64 {
	e := m
	if e > verifyCapExp {
		e = verifyCapExp
	}
	return float64(1+m) * math.Pow(verifyBase, float64(e))
}

// Compile builds the physical plan for q against a corpus described by st.
func Compile(q *graph.Graph, st Stats, cfg Config) *Plan {
	cfg = cfg.resolved()
	a := Parse(q)
	pl := &Plan{
		Canon:     canon.String(q),
		Order:     a.RarestFirstOrder(st),
		Connected: a.Connected,
	}
	n := st.Graphs()
	if n <= 0 {
		n = 1
	}
	m := len(a.Edges)
	minSel := 1.0
	for _, e := range a.Edges {
		if s := float64(edgeRarity(a, st, e)) / float64(n); s < minSel {
			minSel = s
		}
	}
	pl.EstCandidates = float64(n) * minSel
	pl.CostMonolithic = math.Max(pl.EstCandidates, 1) * verifyCost(m)

	if m >= cfg.MinDecomposeEdges && a.Connected {
		pl.Fragments = Decompose(a, pl.Order, cfg.MaxFragments)
	}
	decomposed := false
	if len(pl.Fragments) >= 2 {
		probe, joint := 0.0, 1.0
		for i := range pl.Fragments {
			fsel := fragmentSelectivity(&pl.Fragments[i], st, n)
			probe += math.Max(float64(n)*fsel, 1) * verifyCost(pl.Fragments[i].G.NumEdges())
			joint *= fsel
		}
		if cfg.HasViewCache {
			probe *= viewCacheDiscount
		}
		estJoint := float64(n) * joint
		pl.CostDecomposed = probe + math.Max(estJoint, 1)*verifyCost(m)
		decomposed = pl.CostDecomposed < pl.CostMonolithic
	}

	switch {
	case cfg.Force == StrategyMonolithic:
		pl.Strategy = StrategyMonolithic
	case cfg.Force == StrategyDecomposed:
		pl.Strategy = StrategyMonolithic
		if len(pl.Fragments) >= 2 {
			pl.Strategy = StrategyDecomposed
		}
	case cfg.Force == StrategyANN:
		pl.Strategy = StrategyMonolithic
		if cfg.ANN {
			pl.Strategy = StrategyANN
		}
	case decomposed:
		pl.Strategy = StrategyDecomposed
	case cfg.ANN && cfg.MaxResults > 0 &&
		pl.EstCandidates > annShortlistFactor*float64(cfg.MaxResults):
		pl.Strategy = StrategyANN
	default:
		pl.Strategy = StrategyMonolithic
	}
	return pl
}

// fragmentSelectivity estimates the fraction of corpus graphs containing
// the fragment: the selectivity of its rarest edge.
func fragmentSelectivity(f *Fragment, st Stats, n int) float64 {
	sel := 1.0
	for _, e := range f.G.Edges() {
		r := rarityOf(st, f.G.NodeLabel(e.U), e.Label, f.G.NodeLabel(e.V))
		if s := float64(r) / float64(n); s < sel {
			sel = s
		}
	}
	return sel
}

// String renders a compact human-readable plan summary (trace output).
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s order=%v", p.Strategy, p.Order)
	if p.Strategy == StrategyDecomposed {
		fmt.Fprintf(&b, " fragments=%d", len(p.Fragments))
	}
	fmt.Fprintf(&b, " est_candidates=%.1f cost=%.0f/%.0f",
		p.EstCandidates, p.CostMonolithic, p.CostDecomposed)
	return b.String()
}
