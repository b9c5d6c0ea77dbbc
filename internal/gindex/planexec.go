package gindex

// Plan execution: runs a compiled physical plan (internal/plan) against a
// Sharded index while preserving the monolithic search contract exactly —
// same match set, same order, same Truncated semantics, at any shard
// count, worker count, and MaxResults budget.
//
// Every strategy verifies through the one per-shard loop (verifyShard)
// under the plan's compiled rarest-edge-first matching order and the
// shared cross-shard budget; the strategies differ only in the candidates
// they hand that loop:
//
//   monolithic — the filter's candidates.
//
//   decomposed — the joint survivors of three phases. (1) fragment-probe:
//   for every (fragment, shard) pair, compute or fetch the fragment's
//   containment view — the complete, unbudgeted list of shard graphs
//   containing the fragment (cacheable under qcache.ViewKey: fragment
//   canon x shard x epoch, so RCU updates invalidate exactly the rebuilt
//   shards' views, and two queries sharing a sub-pattern share the view).
//   (2) join: intersect the per-shard views — a graph lacking any fragment
//   provably lacks the whole pattern, because an embedding restricts to an
//   embedding of every fragment. (3) verify: the joint survivors, with
//   ordered VF2. A failed or faulted join, or an incomplete view, falls
//   back to the filter's candidates for that shard. Degrade, never a wrong
//   answer.
//
//   ann — the filter's candidates, with the most embedding-similar ones
//   verified first so a MaxResults budget fills (and its position bound
//   starts pruning) early.
//
// The decomposed join is the one place a plan can "fail" at runtime, so it
// carries the fault-injection site "plan.join" (error/panic → monolithic
// fallback for the shard; delay → context pressure surfaces as Truncated
// downstream), exercised by the fault/equivalence tests under -race.

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/ann"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// Plan-execution observability: strategy mix, join failures (fault or
// panic → shard-level monolithic fallback), incomplete views (shard-level
// fallback).
var (
	obsPlanMono      = obs.Default.Counter("gindex_plan_searches_total", "strategy", "monolithic")
	obsPlanDecomp    = obs.Default.Counter("gindex_plan_searches_total", "strategy", "decomposed")
	obsPlanANN       = obs.Default.Counter("gindex_plan_searches_total", "strategy", "ann")
	obsPlanJoinFail  = obs.Default.Counter("gindex_plan_join_failures_total")
	obsPlanShardFall = obs.Default.Counter("gindex_plan_shard_fallbacks_total")
)

// PlanOptions carries the executor's optional collaborators.
type PlanOptions struct {
	// Views, when non-nil, caches fragment containment views under
	// qcache.ViewKey. Truncated views are never cached (they are not
	// complete, hence not reusable).
	Views *qcache.Cache[ShardResult]
	// Inject, when non-nil, fires the "plan.join" fault site once per
	// shard join.
	Inject *faultinject.Injector
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
// property-tested against the monolithic oracle at every strategy.
func (sh *Sharded) SearchPlan(ctx context.Context, q *graph.Graph, opts isomorph.Options, pl *plan.Plan, po PlanOptions) Result {
	if pl == nil {
		return sh.SearchCtx(ctx, q, opts)
	}
	opts.Order = pl.Order
	switch {
	case pl.Strategy == plan.StrategyDecomposed && len(pl.Fragments) >= 2:
		if obs.On() {
			obsPlanDecomp.Inc()
		}
		return sh.searchDecomposed(ctx, q, opts, pl, po)
	case pl.Strategy == plan.StrategyANN && sh.annCfg != nil:
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

// viewBase builds the option-sensitive part of a view cache key: views
// depend on the fragment and on anything that can change a containment
// verdict (the step budget) — never on MaxResults, which views
// deliberately ignore, nor on induced semantics, which views never use.
func viewBase(fragCanon string, opts isomorph.Options) string {
	return fragCanon + "|ms" + strconv.Itoa(opts.MaxSteps)
}

func (sh *Sharded) searchDecomposed(ctx context.Context, q *graph.Graph, opts isomorph.Options, pl *plan.Plan, po PlanOptions) Result {
	nf := len(pl.Fragments)

	// Phase 1 — fragment-probe: complete containment views per (fragment,
	// shard). Views are unbudgeted (MaxResults=0): the join below is only
	// sound against complete lists. Fragment searches use the per-target
	// heuristic order — fragments are small and the query's compiled order
	// does not apply to them. Views are a necessary-condition filter,
	// so they use plain (non-induced) containment: under induced semantics
	// a fragment that omits a query edge between two of its own nodes
	// would otherwise miss graphs holding the whole query. Final
	// verification below applies opts.Induced.
	viewOpts := opts
	viewOpts.Induced = false
	viewOpts.MaxResults = 0
	viewOpts.MaxEmbeddings = 1
	viewOpts.Order = nil
	viewOpts.TargetIndex = nil
	pctx, span := obs.StartSpan(ctx, "plan.fragment-probe")
	views := make([]ShardResult, nf*sh.k)
	par.ForEachN(nf*sh.k, sh.workers, func(i int) {
		f, s := i/sh.k, i%sh.k
		frag := pl.Fragments[f]
		compute := func() (ShardResult, bool) {
			r := sh.SearchShardCtx(pctx, s, frag.G, viewOpts)
			return r, !r.Truncated
		}
		if po.Views != nil {
			views[i] = po.Views.Do(qcache.ViewKey(viewBase(frag.Canon, viewOpts), s, sh.epochs[s]), compute)
		} else {
			views[i], _ = compute()
		}
	})
	span.End()

	// Phase 2 — join: per-shard intersection of the views' match
	// positions. A shard whose join fails (fault, panic) or whose views
	// are incomplete degrades to the monolithic path below.
	_, span = obs.StartSpan(ctx, "plan.join")
	joint := make([][]int, sh.k)
	fallback := make([]bool, sh.k)
	for s := 0; s < sh.k; s++ {
		joint[s], fallback[s] = joinShardViews(views, nf, sh.k, s, sh.globals[s], po.Inject)
	}
	span.End()

	// Phase 3 — verify joint survivors (or every filter candidate where
	// the join degraded) under the shared cross-shard budget.
	vctx, span := obs.StartSpan(ctx, "plan.verify")
	defer span.End()
	return sh.fanOut(opts.MaxResults, func(s int, b *resultBudget) ShardResult {
		if fallback[s] {
			return sh.searchShard(vctx, s, q, opts, b)
		}
		return sh.verifyShard(vctx, s, q, opts, joint[s], nil, b)
	})
}

// joinShardViews intersects shard s's fragment views into the ascending
// list of local positions (globals maps them to global positions) that
// contain every fragment. fallback is reported (with a nil list) when any
// view is incomplete or the join fires a fault — the caller then runs the
// shard monolithically, which is always sound.
func joinShardViews(views []ShardResult, nf, k, s int, globals []int, inject *faultinject.Injector) (joint []int, fallback bool) {
	defer func() {
		if r := recover(); r != nil {
			if obs.On() {
				obsPlanJoinFail.Inc()
			}
			joint, fallback = nil, true
		}
	}()
	for f := 0; f < nf; f++ {
		if views[f*k+s].Truncated {
			if obs.On() {
				obsPlanShardFall.Inc()
			}
			return nil, true
		}
	}
	if err := inject.Fire("plan.join"); err != nil {
		if obs.On() {
			obsPlanJoinFail.Inc()
		}
		return nil, true
	}
	for _, m := range views[s].Matches { // fragment 0
		joint = append(joint, m.Pos)
	}
	for f := 1; f < nf && len(joint) > 0; f++ {
		joint = intersectAsc(joint, views[f*k+s].Matches)
	}
	for i, gp := range joint {
		joint[i] = sort.SearchInts(globals, gp)
	}
	return joint, false
}

// intersectAsc intersects an ascending position list with a ShardResult's
// ascending matches.
func intersectAsc(a []int, b []ShardMatch) []int {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j].Pos:
			i++
		case a[i] > b[j].Pos:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
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
