package gindex

// Plan execution: runs a compiled physical plan (internal/plan) against a
// Sharded index while preserving the monolithic search contract exactly —
// same match set, same order, same Truncated semantics, at any shard
// count, worker count, and MaxResults budget.
//
// Every strategy verifies through the one per-shard loop (verifyShard)
// under the plan's compiled rarest-edge-first matching order and the
// shared cross-shard budget (fanOut); the strategies differ only in the
// order they hand that loop the filter's candidates:
//
//   monolithic — ascending corpus order.
//
//   ann — the most embedding-similar candidates first, so a MaxResults
//   budget fills (and its position bound starts pruning) early; the
//   ascending sweep then reuses those outcomes.

import (
	"context"
	"sort"

	"repro/internal/ann"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// Plan-execution observability: the strategy mix.
var (
	obsPlanMono = obs.Default.Counter("gindex_plan_searches_total", "strategy", "monolithic")
	obsPlanANN  = obs.Default.Counter("gindex_plan_searches_total", "strategy", "ann")
)

// PlanOptions is the executor's former collaborator set; SearchPlan
// ignores it.
type PlanOptions struct {
	// Views is ignored: fragment views no longer exist.
	//
	// Deprecated: vqibench's in-process replica is its only user; delete it
	// when that replica is retired.
	Views *qcache.Cache[ShardResult]
}

// CompilePlan compiles q against this index's label statistics. ANN is
// automatically masked off when the index carries no similarity state.
func (sh *Sharded) CompilePlan(q *graph.Graph, cfg plan.Config) *plan.Plan {
	if sh.annCfg == nil {
		cfg.ANN = false
	}
	return plan.Compile(q, sh.PlanStats(), cfg)
}

// SearchPlan executes a compiled plan. The result is set-equal (and, under
// a MaxResults budget, order-exact) to SearchCtx with the same options —
// property-tested against the monolithic oracle at every strategy. A nil
// plan runs SearchCtx unchanged.
func (sh *Sharded) SearchPlan(ctx context.Context, q *graph.Graph, opts isomorph.Options, pl *plan.Plan, _ PlanOptions) Result {
	if pl == nil {
		return sh.SearchCtx(ctx, q, opts)
	}
	opts.Order = pl.Order
	if pl.Strategy == plan.StrategyANN && sh.annCfg != nil {
		if obs.On() {
			obsPlanANN.Inc()
		}
		return sh.searchANNFirst(ctx, q, opts)
	}
	if obs.On() {
		obsPlanMono.Inc()
	}
	return sh.SearchCtx(ctx, q, opts)
}

// searchANNFirst runs the ANN-shortlist-then-verify strategy: each shard
// verifies its filter candidates with the top-K most similar handed to
// verifyShard as the first pass, so the shared budget's position bound
// tightens early; the ascending sweep then reuses those outcomes.
func (sh *Sharded) searchANNFirst(ctx context.Context, q *graph.Graph, opts isomorph.Options) Result {
	sctx, span := obs.StartSpan(ctx, "plan.shortlist")
	qv := sh.emb.Embed(q)
	span.End()
	vctx, span := obs.StartSpan(sctx, "plan.verify")
	defer span.End()
	shortK := annShortlistSize(opts.MaxResults)
	return sh.fanOut(opts.MaxResults, func(s int, b *resultBudget) ShardResult {
		cands := sh.candidates(s, q)
		return sh.verifyShard(vctx, s, q, opts, cands, sh.annShortlist(s, cands, qv, shortK), b)
	})
}

// annShortlist returns the k candidates of shard s most cosine-similar to
// the query embedding qv, most similar first. Deterministic: ties order
// by ascending position.
func (sh *Sharded) annShortlist(s int, cands []int, qv []float32, k int) []int {
	if k > len(cands) {
		k = len(cands)
	}
	if k == 0 {
		return nil
	}
	type scored struct {
		li    int
		score float64
	}
	vecs := sh.shards[s].vecs
	rank := make([]scored, len(cands))
	for i, li := range cands {
		rank[i] = scored{li: li, score: ann.Cosine(vecs[li], qv)}
	}
	sort.Slice(rank, func(i, j int) bool {
		if rank[i].score != rank[j].score {
			return rank[i].score > rank[j].score
		}
		return rank[i].li < rank[j].li
	})
	out := make([]int, k)
	for i := range out {
		out[i] = rank[i].li
	}
	return out
}

// annShortlistSize sizes the ANN first pass from the result budget.
func annShortlistSize(maxResults int) int {
	if maxResults <= 0 {
		return 0
	}
	k := 4 * maxResults
	if k < 16 {
		k = 16
	}
	return k
}
