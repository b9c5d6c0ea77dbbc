// Package plan compiles a visual query into a physical plan — the
// "query engine bridge" between what the user draws and how the matcher
// executes it.
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
//  3. Compile chooses a Strategy: monolithic VF2 over the filter's
//     candidates, or ANN-first (verify the most embedding-similar
//     candidates first, profitable when a small MaxResults budget meets a
//     large candidate estimate). Both return exactly the monolithic
//     answer — the executor (gindex.SearchPlan) confirms every match with
//     exact VF2 in one verify loop, and the strategies differ only in the
//     order it verifies candidates in.
//
// Plans are immutable and safe to share/cache; qcache.PlanKey keys them by
// canonical query code and the index epoch vector so corpus updates
// invalidate exactly the plans whose statistics went stale.
package plan

import (
	"fmt"

	"repro/internal/graph"
)

// Strategy names a physical execution strategy.
type Strategy string

const (
	// StrategyMonolithic runs one VF2 per filter candidate, with the
	// compiled matching order.
	StrategyMonolithic Strategy = "monolithic"
	// StrategyDecomposed named fragment decomposition, which no longer
	// exists: Compile never returns it and treats it as a forced
	// StrategyMonolithic.
	//
	// Deprecated: vqibench's in-process replica is its only user; delete it
	// when that replica is retired.
	StrategyDecomposed Strategy = "decomposed"
	// StrategyANN verifies the most embedding-similar candidates first so a
	// MaxResults budget fills (and starts pruning) early, then completes an
	// ascending sweep for exactness.
	StrategyANN Strategy = "ann"
)

// Config describes the deployment a plan will run in. The zero value
// compiles monolithic plans.
type Config struct {
	// ANN reports that the executing index carries similarity state, making
	// StrategyANN available.
	ANN bool
	// MaxResults is the serving result budget the plan will run under
	// (0 = unlimited). StrategyANN is only profitable under a budget.
	MaxResults int
	// HasViewCache is ignored: fragment views no longer exist.
	//
	// Deprecated: vqibench's in-process replica is its only user; delete it
	// when that replica is retired.
	HasViewCache bool
	// Force, when non-empty, overrides the choice with the given strategy
	// where feasible (a forced StrategyANN needs an ANN-enabled config;
	// otherwise the plan degrades to StrategyMonolithic). Used by the
	// serving layer's ?plan= override and by benchmarks that measure one
	// strategy in isolation.
	Force Strategy
}

// Plan is a compiled physical plan. Immutable; safe for concurrent use and
// for caching under qcache.PlanKey.
type Plan struct {
	// Strategy is the chosen execution strategy.
	Strategy Strategy
	// Order is the compiled matching order: a permutation of the pattern's
	// nodes, rarest-edge-first and connectivity-preserving. Valid for every
	// strategy (isomorph.Options.Order).
	Order []graph.NodeID
	// EstCandidates estimates how many corpus graphs survive filtering:
	// the document frequency of the pattern's rarest edge.
	EstCandidates float64
}

// annShortlistFactor: StrategyANN pays off when the candidate estimate
// exceeds this multiple of the result budget.
const annShortlistFactor = 4

// Compile builds the physical plan for q against a corpus described by st.
// It is deterministic: equal inputs compile equal plans, byte for byte.
func Compile(q *graph.Graph, st Stats, cfg Config) *Plan {
	a := Parse(q)
	pl := &Plan{Order: a.RarestFirstOrder(st)}
	n := st.Graphs()
	if n <= 0 {
		n = 1
	}
	minSel := 1.0
	for _, e := range a.Edges {
		if s := float64(edgeRarity(a, st, e)) / float64(n); s < minSel {
			minSel = s
		}
	}
	pl.EstCandidates = float64(n) * minSel

	pl.Strategy = StrategyMonolithic
	if cfg.ANN && (cfg.Force == StrategyANN || cfg.Force == "" && cfg.MaxResults > 0 &&
		pl.EstCandidates > annShortlistFactor*float64(cfg.MaxResults)) {
		pl.Strategy = StrategyANN
	}
	return pl
}

// String renders a compact human-readable plan summary (trace output).
func (p *Plan) String() string {
	return fmt.Sprintf("%s order=%v est_candidates=%.1f", p.Strategy, p.Order, p.EstCandidates)
}
