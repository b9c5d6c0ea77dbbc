package main

// In-process replay: the load's request stream sent, in stream order,
// through the same public calls vqiserve's handlers make (decode, canon,
// the five qcache layers, the plan compiler, sharded search, facets,
// suggestions, similarity, validated durable batches). Spans recorded
// here, around each call, plus the spans the library already records,
// give the per-layer breakdown; the server binary itself is not traced.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/results"
	"repro/internal/store"
	"repro/internal/vqi"
)

// Serving configuration shared by the server flags and the replica.
const (
	serveShards     = 2
	serveCacheSize  = 512
	serveTimeout    = 10 * time.Second
	churnMaxResults = 50
)

// cachedResp is a cached answer; like vqiserve, the replica caches the
// response value and encodes it on every request.
type cachedResp struct {
	v      any
	status int
}

// replica mirrors one vqiserve instance in-process.
type replica struct {
	spec       *vqi.Spec
	maxResults int
	annOn      bool

	corpus *graph.Corpus
	idx    *gindex.Sharded
	st     *store.Store

	qc, simQC       *qcache.Cache[cachedResp]
	shardQC, viewQC *qcache.Cache[gindex.ShardResult]
	planQC          *qcache.Cache[*plan.Plan]

	// counts collects per-call tallies the spans cannot carry.
	counts replayCounts
}

type replayCounts struct {
	queries, suggests, similars, updates int
	plans                                [3]int // monolithic, decomposed, ann
	facetChecks                          int
	// isomorph searches/steps by the span they ran under.
	searchIso, facetIso isoCount
}

type isoCount struct{ searches, steps int64 }

func isoNow() isoCount {
	return isoCount{
		searches: obs.Default.Counter("isomorph_searches_total").Value(),
		steps:    obs.Default.Counter("isomorph_steps_total").Value(),
	}
}

func (a *isoCount) addSince(from isoCount) {
	now := isoNow()
	a.searches += now.searches - from.searches
	a.steps += now.steps - from.steps
}

func newReplica(spec *vqi.Spec, corpus *graph.Corpus, idx *gindex.Sharded, maxResults int) *replica {
	return &replica{
		spec: spec, maxResults: maxResults,
		annOn: idx.ANNEnabled(), corpus: corpus, idx: idx,
		qc:      qcache.New[cachedResp](serveCacheSize),
		simQC:   qcache.New[cachedResp](serveCacheSize),
		shardQC: qcache.New[gindex.ShardResult](serveCacheSize),
		viewQC:  qcache.New[gindex.ShardResult](serveCacheSize),
		planQC:  qcache.New[*plan.Plan](serveCacheSize),
	}
}

// span runs fn under a named span.
func span(ctx context.Context, name string, fn func(context.Context)) {
	cctx, sp := obs.StartSpan(ctx, name)
	fn(cctx)
	sp.End()
}

func encodeBody(ctx context.Context, v any) []byte {
	var buf bytes.Buffer
	span(ctx, "vqiserve.encode", func(context.Context) { json.NewEncoder(&buf).Encode(v) })
	return buf.Bytes()
}

// handle answers one request as vqiserve would.
func (r *replica) handle(ctx context.Context, o op) (int, []byte, error) {
	var cancel context.CancelFunc
	span(ctx, "vqiserve.timeout", func(context.Context) { ctx, cancel = context.WithTimeout(ctx, serveTimeout) })
	defer cancel()
	switch o.kind {
	case opQuery:
		return r.query(ctx, o.body)
	case opSuggest:
		return r.suggest(ctx, o.body)
	case opSimilar:
		return r.similar(ctx, o.body)
	default:
		return r.update(ctx, o.body)
	}
}

func (r *replica) decodeGraph(ctx context.Context, body []byte) (q *graph.Graph, err error) {
	span(ctx, "vqiserve.decode", func(context.Context) { q, err = decodeGraph(body) })
	return q, err
}

// keyOf builds a cache key under the qcache layer's span.
func keyOf(ctx context.Context, build func() string) (key string) {
	span(ctx, "qcache.key", func(context.Context) { key = build() })
	return key
}

func (r *replica) canonOf(ctx context.Context, q *graph.Graph) (s string) {
	span(ctx, "canon.String", func(context.Context) { s = canon.String(q) })
	return s
}

func (r *replica) query(ctx context.Context, body []byte) (int, []byte, error) {
	r.counts.queries++
	q, err := r.decodeGraph(ctx, body)
	if err != nil {
		return 0, nil, err
	}
	const mode = "auto"
	// vqiserve times plan compilation, plan cache included, as the
	// "plan.compile" stage; the replica keeps that span.
	var pl *plan.Plan
	span(ctx, "plan.compile", func(cctx context.Context) { pl = r.compiledPlan(cctx, q, mode) })
	base := r.canonOf(ctx, q) + "|plan=" + mode
	key := keyOf(ctx, func() string { return qcache.EpochKey(base, r.idx.Epochs()) })
	var out cachedResp
	span(ctx, "qcache.Do", func(cctx context.Context) {
		out = r.qc.Do(key, func() (cachedResp, bool) {
			resp, status := r.execQuery(cctx, q, pl)
			return cachedResp{v: resp, status: status}, status == http.StatusOK && !resp.Truncated
		})
	})
	return out.status, encodeBody(ctx, out.v), nil
}

func (r *replica) compiledPlan(ctx context.Context, q *graph.Graph, mode string) *plan.Plan {
	cfg := pattern.PlanConfig()
	cfg.ANN = r.annOn
	cfg.MaxResults = r.maxResults
	cfg.HasViewCache = true
	base := r.canonOf(ctx, q) + "|m=" + mode
	key := keyOf(ctx, func() string { return qcache.PlanKey(base, r.idx.Epochs()) })
	var pl *plan.Plan
	span(ctx, "qcache.Do", func(cctx context.Context) {
		pl = r.planQC.Do(key, func() (*plan.Plan, bool) {
			var p *plan.Plan
			span(cctx, "plan.CompilePlan", func(context.Context) { p = r.idx.CompilePlan(q, cfg) })
			return p, true
		})
	})
	switch pl.Strategy {
	case plan.StrategyDecomposed:
		r.counts.plans[1]++
	case plan.StrategyANN:
		r.counts.plans[2]++
	default:
		r.counts.plans[0]++
	}
	return pl
}

func (r *replica) execQuery(ctx context.Context, q *graph.Graph, pl *plan.Plan) (queryResp, int) {
	var resp queryResp
	from := isoNow()
	res := r.searchSharded(ctx, q, pl)
	r.counts.searchIso.addSince(from)
	resp.Matched, resp.Truncated = res.Matches, res.Truncated
	if ctx.Err() != nil {
		return resp, http.StatusGatewayTimeout
	}
	if len(resp.Matched) > 0 {
		// vqiserve re-derives the pattern panel for every faceted answer.
		var canned []*pattern.Pattern
		span(ctx, "vqi.AllPatterns", func(context.Context) {
			panel, _ := r.spec.AllPatterns()
			canned = panel[len(r.spec.Patterns.Basic):]
		})
		from = isoNow()
		var fs []results.Facet
		span(ctx, "results.Facets", func(context.Context) {
			fs, _ = results.Facets(resp.Matched, r.corpus, canned, pattern.MatchOptions())
		})
		r.counts.facetIso.addSince(from)
		r.counts.facetChecks += len(resp.Matched) * len(canned)
		for _, f := range fs {
			resp.Facets = append(resp.Facets, facetEntry{Pattern: r.spec.Patterns.Canned[f.PatternIndex].Name, Graphs: f.Graphs})
		}
	}
	return resp, http.StatusOK
}

func (r *replica) searchSharded(ctx context.Context, q *graph.Graph, pl *plan.Plan) gindex.Result {
	opts := pattern.MatchOptions()
	opts.MaxResults = r.maxResults
	if pl.Strategy != plan.StrategyMonolithic {
		var res gindex.Result
		span(ctx, "gindex.SearchPlan", func(cctx context.Context) {
			res = r.idx.SearchPlan(cctx, q, opts, pl, gindex.PlanOptions{Views: r.viewQC})
		})
		return res
	}
	opts.Order = pl.Order
	base := r.canonOf(ctx, q)
	partials := make([]gindex.ShardResult, r.idx.NumShards())
	par.ForEachN(r.idx.NumShards(), 0, func(si int) {
		key := keyOf(ctx, func() string { return qcache.ShardKey(base, si, r.idx.Epoch(si)) })
		span(ctx, "qcache.Do", func(cctx context.Context) {
			partials[si] = r.shardQC.Do(key, func() (gindex.ShardResult, bool) {
				var sr gindex.ShardResult
				span(cctx, "gindex.SearchShardCtx", func(sctx context.Context) { sr = r.idx.SearchShardCtx(sctx, si, q, opts) })
				return sr, !sr.Truncated
			})
		})
	})
	var res gindex.Result
	span(ctx, "gindex.MergeShardResults", func(context.Context) { res = gindex.MergeShardResults(partials, r.maxResults) })
	return res
}

func (r *replica) suggest(ctx context.Context, body []byte) (int, []byte, error) {
	r.counts.suggests++
	q, err := r.decodeGraph(ctx, body)
	if err != nil {
		return 0, nil, err
	}
	var sugs []vqi.Suggestion
	span(ctx, "vqi.SuggestForSpec", func(context.Context) { sugs, err = vqi.SuggestForSpec(r.spec, q, 8) })
	if err != nil {
		return 0, nil, err
	}
	resp := suggestResp{Suggestions: []suggestEntry{}}
	for _, sg := range sugs {
		resp.Suggestions = append(resp.Suggestions, suggestEntry{PatternIndex: sg.PatternIndex, Name: sg.Pattern.Name, NewEdges: sg.NewEdges})
	}
	return http.StatusOK, encodeBody(ctx, resp), nil
}

func (r *replica) similar(ctx context.Context, body []byte) (int, []byte, error) {
	r.counts.similars++
	var req similarReq
	var err error
	span(ctx, "vqiserve.decode", func(context.Context) { err = json.Unmarshal(body, &req) })
	if err != nil {
		return 0, nil, err
	}
	g, ok := r.corpus.ByName(req.Graph)
	if !ok {
		return 0, nil, fmt.Errorf("unknown graph %s", req.Graph)
	}
	key := keyOf(ctx, func() string {
		return qcache.EpochKey(fmt.Sprintf("sim\x00%s\x00%d\x00%v\x00%s", req.Mode, req.K, false, "name\x00"+req.Graph), r.idx.Epochs())
	})
	var out cachedResp
	span(ctx, "qcache.Do", func(cctx context.Context) {
		out = r.simQC.Do(key, func() (cachedResp, bool) {
			var res gindex.SimilarResult
			span(cctx, "gindex.SimilarCtx", func(sctx context.Context) {
				res, err = r.idx.SimilarCtx(sctx, g, gindex.SimilarOptions{K: req.K, Exact: req.Mode == "exact", VerifyOpts: pattern.MatchOptions()})
			})
			if err != nil {
				return cachedResp{status: http.StatusInternalServerError}, false
			}
			resp := similarResp{Matches: make([]similarMatch, 0, len(res.Matches)), Mode: "approx",
				Probed: res.Probed, Shortlist: res.Shortlist, Scanned: res.Scanned, Verified: res.Verified, Truncated: res.Truncated}
			if req.Mode == "exact" {
				resp.Mode = "exact"
			}
			for _, m := range res.Matches {
				resp.Matches = append(resp.Matches, similarMatch{Name: m.Name, Score: m.Score, Contains: m.Contains})
			}
			return cachedResp{v: resp, status: http.StatusOK}, !res.Truncated
		})
	})
	if err != nil {
		return 0, nil, err
	}
	return out.status, encodeBody(ctx, out.v), nil
}

func (r *replica) update(ctx context.Context, body []byte) (int, []byte, error) {
	r.counts.updates++
	var added []*graph.Graph
	var removed []string
	var err error
	span(ctx, "vqiserve.decode", func(context.Context) { added, removed, err = decodeUpdate(body) })
	if err != nil {
		return 0, nil, err
	}
	span(ctx, "gindex.ValidateBatch", func(context.Context) { err = r.idx.ValidateBatch(added, removed) })
	if err != nil {
		return 0, nil, err
	}
	var seq uint64
	if r.st != nil {
		span(ctx, "store.Append", func(context.Context) { seq, err = r.st.Append(store.Batch{Added: added, Removed: removed}) })
		if err != nil {
			return 0, nil, err
		}
	}
	var next *gindex.Sharded
	var rep *gindex.UpdateReport
	span(ctx, "gindex.ApplyBatch", func(context.Context) { next, rep, err = r.idx.ApplyBatch(added, removed) })
	if err != nil {
		return 0, nil, err
	}
	span(ctx, "vqiserve.mirror", func(context.Context) {
		rm := make(map[string]bool, len(removed))
		for _, n := range removed {
			rm[n] = true
		}
		nc := graph.NewCorpus()
		r.corpus.EachName(func(i int, name string) {
			if !rm[name] {
				nc.MustAdopt(r.corpus, i)
			}
		})
		for _, g := range added {
			nc.MustAdd(g)
		}
		r.corpus, r.idx = nc, next
	})
	rebuilt := rep.Rebuilt
	if rebuilt == nil {
		rebuilt = []int{}
	}
	resp := updateResp{Added: rep.Added, Removed: rep.Removed, Graphs: r.corpus.Len(), Shards: rep.Shards, Rebuilt: rebuilt, Seq: seq}
	return http.StatusOK, encodeBody(ctx, resp), nil
}

// --- replay runs and span accounting ----------------------------------

// replayOut is one replayed request.
type replayOut struct {
	status int
	body   []byte
	wall   time.Duration
	spans  []obs.SpanRecord // traced replays only
}

// replay sends the stream's ops at idxs through r in order, traced or
// not, stopping once the replay's wall time passes budget (0 = no limit).
func replay(r *replica, s *stream, idxs []int, traced bool, budget time.Duration) ([]replayOut, error) {
	var out []replayOut
	var spent time.Duration
	for _, oi := range idxs {
		if budget > 0 && spent > budget {
			break
		}
		ctx := context.Background()
		var tr *obs.Trace
		if traced {
			ctx, tr = obs.StartTrace(ctx, "replay")
		}
		start := time.Now()
		status, body, err := r.handle(ctx, s.ops[oi])
		o := replayOut{status: status, body: body, wall: time.Since(start)}
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", oi, err)
		}
		if tr != nil {
			o.spans = tr.Spans()
		}
		spent += o.wall
		out = append(out, o)
	}
	return out, nil
}

type interval struct{ a, b time.Duration }

// unionLen is the total length covered by ivs.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.a > cur.b {
			total += cur.b - cur.a
			cur = iv
		} else if iv.b > cur.b {
			cur.b = iv.b
		}
	}
	return total + cur.b - cur.a
}

// selfTimes returns each span's duration minus the part of it its
// children cover, and the union of the root spans.
func selfTimes(spans []obs.SpanRecord) (self []time.Duration, roots time.Duration) {
	kids := make([][]interval, len(spans))
	var rootIvs []interval
	for _, sp := range spans {
		iv := interval{sp.Start, sp.Start + sp.Dur}
		if sp.Parent < 0 {
			rootIvs = append(rootIvs, iv)
		} else {
			kids[sp.Parent] = append(kids[sp.Parent], iv)
		}
	}
	self = make([]time.Duration, len(spans))
	for i, sp := range spans {
		self[i] = sp.Dur - unionLen(kids[i])
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self, unionLen(rootIvs)
}

// layerOf names the layer a span belongs to: the prefix before the first
// '.', with the similarity stages filed under ann.
func layerOf(name string) string {
	if strings.HasPrefix(name, "similar_") {
		if name == "similar_verify" {
			return "isomorph"
		}
		return "ann"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanStats aggregates a traced replay: per-span-name count, total and
// self time, per-layer self time, and root coverage of the wall time.
type spanStats struct {
	count    map[string]int
	total    map[string]time.Duration
	self     map[string]time.Duration
	layer    map[string]time.Duration
	wall     time.Duration
	covered  time.Duration
	requests int
}

func aggregate(outs []replayOut) *spanStats {
	st := &spanStats{count: map[string]int{}, total: map[string]time.Duration{}, self: map[string]time.Duration{}, layer: map[string]time.Duration{}}
	for _, o := range outs {
		self, roots := selfTimes(o.spans)
		for i, sp := range o.spans {
			st.count[sp.Name]++
			st.total[sp.Name] += sp.Dur
			st.self[sp.Name] += self[i]
			st.layer[layerOf(sp.Name)] += self[i]
		}
		st.wall += o.wall
		st.covered += roots
		st.requests++
	}
	return st
}

// --- replica boot -----------------------------------------------------

// bootReplica builds the replica's index over corpus (browse, compose).
func bootReplica(ctx context.Context, spec *vqi.Spec, corpus *graph.Corpus) (*replica, error) {
	var idx *gindex.Sharded
	span(ctx, "gindex.BuildSharded", func(context.Context) { idx = gindex.BuildSharded(corpus, serveShards, 0) })
	return newReplica(spec, corpus, idx, 0), nil
}

// bootDurableReplica recovers the replica from a data directory the way
// vqiserve -data-dir -mmap -ann does (churn).
func bootDurableReplica(ctx context.Context, spec *vqi.Spec, dir string) (*replica, error) {
	var st *store.Store
	var rec *store.Recovery
	var err error
	span(ctx, "store.Open", func(cctx context.Context) {
		st, rec, err = store.Open(cctx, dir, store.Options{Sync: store.SyncAlways, Mmap: true})
	})
	if err != nil {
		return nil, err
	}
	secs := map[int][]byte{}
	for _, sec := range rec.Sections {
		if sec.Shard < len(rec.Meta.Epochs) && sec.Epoch == rec.Meta.Epochs[sec.Shard] {
			secs[sec.Shard] = sec.Data
		}
	}
	cfg := serveANN()
	var idx *gindex.Sharded
	span(ctx, "gindex.RestoreSharded", func(context.Context) {
		idx, _ = gindex.RestoreSharded(rec.Corpus, serveShards, 0, &cfg, secs)
	})
	if rec.Meta.Shards == idx.NumShards() {
		idx.RestoreEpochs(rec.Meta.Epochs)
	}
	if len(rec.Batches) > 0 {
		st.Close()
		return nil, fmt.Errorf("prepared data directory has %d WAL batches; want a compacted snapshot", len(rec.Batches))
	}
	r := newReplica(spec, rec.Corpus, idx, churnMaxResults)
	r.st = st
	return r, nil
}

// serveANN is the LSH configuration vqiserve -ann uses with default flags.
func serveANN() ann.Config { return ann.Config{Center: true} }
