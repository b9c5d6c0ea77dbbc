package gindex

// Plan execution: runs a compiled physical plan (internal/plan) against a
// Sharded index while preserving the monolithic search contract exactly —
// same match set, same order, same Truncated semantics, at any shard
// count, worker count, and MaxResults budget.
//
// Strategies:
//
//   monolithic — the existing budgeted fan-out, with VF2 running under the
//   plan's compiled rarest-edge-first matching order.
//
//   decomposed — three phases. (1) fragment-probe: for every (fragment,
//   shard) pair, compute or fetch the fragment's containment view — the
//   complete, unbudgeted list of shard graphs containing the fragment
//   (cacheable under qcache.ViewKey: fragment canon x shard x epoch, so
//   RCU updates invalidate exactly the rebuilt shards' views, and two
//   queries sharing a sub-pattern share the view). (2) join: intersect the
//   per-shard views — a graph lacking any fragment provably lacks the
//   whole pattern, because an embedding restricts to an embedding of every
//   fragment. (3) verify: for each joint survivor in ascending corpus
//   order (under the shared cross-shard result budget), stitch fragment
//   embeddings together on shared nodes inside a bounded join buffer and
//   confirm the stitched mapping with isomorph.VerifyMapping — an exact
//   whole-pattern check, so a stitched "yes" is as sound as a VF2 "yes".
//   Any overflow or truncation on the shortcut path falls back to plain
//   ordered VF2 for that graph; a failed or faulted join falls back to the
//   monolithic path for that shard. Degrade, never a wrong answer.
//
//   ann — verify the most embedding-similar candidates first so a
//   MaxResults budget fills (and its position bound starts pruning) early,
//   then complete the ascending sweep reusing the recorded outcomes. The
//   final per-shard match list is the same ascending prefix the oracle
//   computes; extra verified matches beyond the prefix merge away.
//
// The decomposed join is the one place a plan can "fail" at runtime, so it
// carries the fault-injection site "plan.join" (error/panic → monolithic
// fallback for the shard; delay → context pressure surfaces as Truncated
// downstream). The join buffer is exercised under -race by the
// fault/equivalence tests.

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
// fallback), per-graph stitch outcomes.
var (
	obsPlanMono      = obs.Default.Counter("gindex_plan_searches_total", "strategy", "monolithic")
	obsPlanDecomp    = obs.Default.Counter("gindex_plan_searches_total", "strategy", "decomposed")
	obsPlanANN       = obs.Default.Counter("gindex_plan_searches_total", "strategy", "ann")
	obsPlanJoinFail  = obs.Default.Counter("gindex_plan_join_failures_total")
	obsPlanShardFall = obs.Default.Counter("gindex_plan_shard_fallbacks_total")
	obsPlanStitched  = obs.Default.Counter("gindex_plan_stitched_verifies_total")
	obsPlanGraphFall = obs.Default.Counter("gindex_plan_graph_fallbacks_total")
)

// stitchEnumCap bounds per-fragment embedding enumeration inside
// stitchGraph (see the comment there). Deliberately tight: measured
// against first-embedding ordered VF2, stitching only wins when every
// fragment embeds a couple of ways, and the cap is also what keeps a
// failed probe cheap — when a fragment embeds hundreds of ways, VF2
// finds the (cap+1)th embedding almost immediately and the probe bails
// for roughly the price of a first-embedding check.
const stitchEnumCap = 2

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
	switch pl.Strategy {
	case plan.StrategyDecomposed:
		if len(pl.Fragments) >= 2 {
			if obs.On() {
				obsPlanDecomp.Inc()
			}
			return sh.searchDecomposed(ctx, q, opts, pl, po)
		}
	case plan.StrategyANN:
		if sh.annCfg != nil {
			if obs.On() {
				obsPlanANN.Inc()
			}
			return sh.searchANNFirst(ctx, q, opts, pl)
		}
	}
	if obs.On() {
		obsPlanMono.Inc()
	}
	opts.Order = pl.Order
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
	// heuristic order — fragments are small and their compiled order would
	// differ per fragment anyway. Views are a necessary-condition filter,
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
		joint[s], fallback[s] = joinShardViews(views, nf, sh.k, s, po.Inject)
	}
	span.End()

	// Phase 3 — verify joint survivors (or run the monolithic shard search
	// where the join degraded) under the shared cross-shard budget.
	vctx, span := obs.StartSpan(ctx, "plan.verify")
	defer span.End()
	var b *resultBudget
	if opts.MaxResults > 0 {
		b = newResultBudget(opts.MaxResults)
	}
	partials := make([]ShardResult, sh.k)
	par.ForEachN(sh.k, sh.workers, func(s int) {
		if fallback[s] {
			sOpts := opts
			sOpts.Order = pl.Order
			partials[s] = sh.searchShard(vctx, s, q, sOpts, b)
			return
		}
		partials[s] = sh.verifyJoint(vctx, s, q, opts, pl, joint[s], b)
	})
	return MergeShardResults(partials, opts.MaxResults)
}

// joinShardViews intersects shard s's fragment views into the ascending
// list of global positions that contain every fragment. fallback is
// reported (with a nil list) when any view is incomplete or the join
// fires a fault — the caller then runs the shard monolithically, which is
// always sound.
func joinShardViews(views []ShardResult, nf, k, s int, inject *faultinject.Injector) (joint []int, fallback bool) {
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

// verifyJoint confirms each joint candidate of shard s in ascending
// corpus order — the same loop shape (budget viability, hydration
// degrade, MaxResults break) as searchShard, so order-exactness under
// budgets carries over unchanged. Graphs are confirmed by stitching
// fragment embeddings; any stitch anomaly falls back to plain ordered VF2
// for that graph.
func (sh *Sharded) verifyJoint(ctx context.Context, s int, q *graph.Graph, opts isomorph.Options, pl *plan.Plan, joint []int, b *resultBudget) ShardResult {
	core := sh.shards[s]
	res := ShardResult{Shard: s, Epoch: sh.epochs[s], Scanned: core.sub.Len(), Candidates: len(joint)}
	defer func() { recordSearch(res.Candidates, res.Verified, len(res.Matches), res.Truncated) }()
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	opts.MaxEmbeddings = 1
	// Whether fragments embed few enough ways to stitch is a property of
	// the corpus region, not of one graph: once several graphs in a row
	// have surrendered to VF2, the rest of the shard will too, and the
	// doomed enumeration attempts are pure overhead. Stop trying after a
	// streak; one clean stitch re-arms the shortcut.
	const stitchGiveUpStreak = 2
	fallStreak := 0
	for _, gp := range joint {
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		if b != nil && !b.viable(gp) {
			if obs.On() {
				obsBudgetStops.Inc()
			}
			break
		}
		li := sort.SearchInts(sh.globals[s], gp)
		g, err := core.sub.Hydrate(li)
		if err != nil {
			res.Truncated = true
			continue
		}
		tix := core.idx.targetIndexFor(li, g)
		found, clean := false, false
		if fallStreak < stitchGiveUpStreak {
			found, clean = stitchGraph(q, pl, g, tix, opts)
			if obs.On() {
				obsPlanStitched.Inc()
			}
		}
		trunc := false
		if !clean {
			fallStreak++
			if obs.On() {
				obsPlanGraphFall.Inc()
			}
			vopts := opts
			vopts.Order = pl.Order
			vopts.TargetIndex = tix
			r := isomorph.Count(q, g, vopts)
			found, trunc = r.Embeddings > 0, r.Truncated
		} else {
			fallStreak = 0
		}
		res.Verified++
		if found {
			res.Matches = append(res.Matches, ShardMatch{Pos: gp, Name: g.Name()})
			if b != nil {
				b.admit(gp)
			}
			if opts.MaxResults > 0 && len(res.Matches) >= opts.MaxResults {
				break
			}
		} else if trunc {
			res.Truncated = true
		}
	}
	return res
}

// stitchGraph decides whether q embeds in g by enumerating each
// fragment's embeddings (complete, up to the join buffer) and merging
// them on shared pattern nodes under injectivity, then verifying any
// complete assignment with an exact whole-pattern check. Outcomes:
//
//	clean && found   — q embeds in g (VerifyMapping-confirmed).
//	clean && !found  — q provably does not embed: the fragment embedding
//	                   lists were complete and no consistent union exists,
//	                   but any true embedding would restrict to one row of
//	                   each list and survive the merge.
//	!clean           — the shortcut could not run to completion (buffer
//	                   overflow, truncated enumeration, or a view that
//	                   disagrees with the graph); the caller must decide
//	                   with a plain VF2 check, which carries its own
//	                   Truncated reporting.
func stitchGraph(q *graph.Graph, pl *plan.Plan, g *graph.Graph, tix *isomorph.LabelIndex, opts isomorph.Options) (found, clean bool) {
	n := q.NumNodes()
	buf := pl.JoinBuffer
	// Enumerating a fragment's embeddings costs far more than the
	// first-embedding VF2 check the fallback runs, so the stitch only pays
	// off when every fragment's embedding list is genuinely small. Cap the
	// enumeration well below the merge buffer and surrender the graph to
	// ordered VF2 past it — the join already did the expensive pruning.
	enumCap := stitchEnumCap
	if enumCap > buf {
		enumCap = buf
	}
	eopts := isomorph.Options{
		MaxEmbeddings: enumCap + 1,
		MaxSteps:      opts.MaxSteps,
		Ctx:           opts.Ctx,
		CheckEvery:    opts.CheckEvery,
		TargetIndex:   tix,
	}
	// attempts bounds total merge work, not just surviving assignments: a
	// common fragment can drive buf x buf failing merges per stage — all
	// wasted if the stitch then overflows anyway. Past the cap the plain
	// VF2 fallback is the cheaper way to decide this graph.
	attempts, maxAttempts := 0, 32*buf
	assigns := [][]graph.NodeID{nil}
	for fi := range pl.Fragments {
		frag := &pl.Fragments[fi]
		var embs [][]graph.NodeID
		r := isomorph.Enumerate(frag.G, g, eopts, func(m []graph.NodeID) bool {
			embs = append(embs, append([]graph.NodeID(nil), m...))
			return true
		})
		if r.Truncated || len(embs) > enumCap || len(embs) == 0 {
			return false, false
		}
		var next [][]graph.NodeID
		for _, a := range assigns {
			for _, e := range embs {
				attempts++
				if attempts > maxAttempts {
					return false, false
				}
				if merged, ok := mergeAssignment(a, n, frag.Nodes, e); ok {
					next = append(next, merged)
					if len(next) > buf {
						return false, false
					}
				}
			}
		}
		if len(next) == 0 {
			return false, true
		}
		assigns = next
	}
	for _, a := range assigns {
		if complete(a) && isomorph.VerifyMapping(q, g, a, opts.Induced) {
			return true, true
		}
	}
	return false, true
}

// mergeAssignment extends partial assignment a (pattern node -> target
// node, -1 unset) with one fragment embedding, rejecting conflicts on
// shared nodes and injectivity violations.
func mergeAssignment(a []graph.NodeID, n int, fragNodes []int, emb []graph.NodeID) ([]graph.NodeID, bool) {
	merged := make([]graph.NodeID, n)
	if a == nil {
		for i := range merged {
			merged[i] = -1
		}
	} else {
		copy(merged, a)
	}
	for li, pv := range fragNodes {
		tv := emb[li]
		if merged[pv] == tv {
			continue
		}
		if merged[pv] != -1 {
			return nil, false // shared node mapped differently
		}
		for _, other := range merged {
			if other == tv {
				return nil, false // injectivity
			}
		}
		merged[pv] = tv
	}
	return merged, true
}

func complete(a []graph.NodeID) bool {
	for _, v := range a {
		if v == -1 {
			return false
		}
	}
	return true
}

// searchANNFirst runs the ANN-shortlist-then-verify strategy: phase 1
// verifies the top-K most similar candidates per shard so the shared
// budget's position bound tightens early; phase 2 is the standard
// ascending sweep, reusing phase-1 outcomes instead of re-verifying. The
// per-shard match list is the ascending prefix the oracle would emit,
// possibly plus already-verified matches beyond it — which the global
// merge's sort-and-truncate discards identically.
func (sh *Sharded) searchANNFirst(ctx context.Context, q *graph.Graph, opts isomorph.Options, pl *plan.Plan) Result {
	sctx, span := obs.StartSpan(ctx, "plan.shortlist")
	qv := sh.emb.Embed(q)
	span.End()
	vctx, span := obs.StartSpan(sctx, "plan.verify")
	defer span.End()
	var b *resultBudget
	if opts.MaxResults > 0 {
		b = newResultBudget(opts.MaxResults)
	}
	partials := make([]ShardResult, sh.k)
	par.ForEachN(sh.k, sh.workers, func(s int) {
		partials[s] = sh.searchShardANNFirst(vctx, s, q, qv, opts, pl, b)
	})
	return MergeShardResults(partials, opts.MaxResults)
}

func (sh *Sharded) searchShardANNFirst(ctx context.Context, s int, q *graph.Graph, qv []float32, opts isomorph.Options, pl *plan.Plan, b *resultBudget) ShardResult {
	core := sh.shards[s]
	res := ShardResult{Shard: s, Epoch: sh.epochs[s], Scanned: core.sub.Len()}
	defer func() { recordSearch(res.Candidates, res.Verified, len(res.Matches), res.Truncated) }()
	if q.NumNodes() == 0 || core.sub.Len() == 0 {
		return res
	}
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	cands := core.idx.Candidates(q)
	res.Candidates = len(cands)
	opts.MaxEmbeddings = 1
	opts.Order = pl.Order

	outcome := make(map[int]bool) // local index -> matched
	names := make(map[int]string)
	verify := func(li int) (matched, ok bool) {
		g, err := core.sub.Hydrate(li)
		if err != nil {
			res.Truncated = true
			return false, false
		}
		vopts := opts
		vopts.TargetIndex = core.idx.targetIndexFor(li, g)
		r := isomorph.Count(q, g, vopts)
		res.Verified++
		if r.Truncated && r.Embeddings == 0 {
			res.Truncated = true
		}
		names[li] = g.Name()
		return r.Embeddings > 0, true
	}

	// Phase 1 — shortlist: cosine-rank the candidates and verify the most
	// similar first. Deterministic: ties order by ascending position.
	shortK := annShortlistSize(opts.MaxResults)
	if shortK > len(cands) {
		shortK = len(cands)
	}
	if shortK > 0 && b != nil {
		type scored struct {
			li    int
			score float64
		}
		rank := make([]scored, len(cands))
		for i, li := range cands {
			rank[i] = scored{li: li, score: ann.Cosine(core.vecs[li], qv)}
		}
		sort.Slice(rank, func(i, j int) bool {
			if rank[i].score != rank[j].score {
				return rank[i].score > rank[j].score
			}
			return rank[i].li < rank[j].li
		})
		for _, c := range rank[:shortK] {
			if ctx.Err() != nil {
				res.Truncated = true
				break
			}
			gp := sh.globals[s][c.li]
			if b.viable(gp) {
				if m, ok := verify(c.li); ok {
					outcome[c.li] = m
					if m {
						b.admit(gp)
					}
				}
			}
		}
	}

	// Phase 2 — ascending sweep, identical to the oracle's loop except
	// that phase-1 outcomes are reused instead of recomputed. The budget
	// bound compares strictly, so a phase-1 match can make its own
	// position non-viable; the post-loop pass below re-emits any verified
	// match the sweep skipped (extras beyond the global top-limit merge
	// away under the final sort-and-truncate).
	emitted := make(map[int]bool)
	count := 0
	for _, li := range cands {
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		gp := sh.globals[s][li]
		if b != nil && !b.viable(gp) {
			if obs.On() {
				obsBudgetStops.Inc()
			}
			break
		}
		m, seen := outcome[li]
		if !seen {
			var ok bool
			if m, ok = verify(li); !ok {
				continue
			}
			outcome[li] = m
			if m && b != nil {
				b.admit(gp)
			}
		}
		if m {
			res.Matches = append(res.Matches, ShardMatch{Pos: gp, Name: names[li]})
			emitted[li] = true
			count++
			if opts.MaxResults > 0 && count >= opts.MaxResults {
				break
			}
		}
	}
	for _, li := range cands {
		if outcome[li] && !emitted[li] {
			res.Matches = append(res.Matches, ShardMatch{Pos: sh.globals[s][li], Name: names[li]})
		}
	}
	sort.Slice(res.Matches, func(i, j int) bool { return res.Matches[i].Pos < res.Matches[j].Pos })
	return res
}

// annShortlistSize sizes the phase-1 shortlist from the result budget.
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
