package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"

	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/results"
	"repro/internal/vqi"
)

// apiError is the uniform error envelope: {"error":{"code","message"}}.
// Code is a stable machine-readable slug; Message is human-readable.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg}})
}

// routes assembles the handler chain: recovery outermost (panics anywhere
// below become 500s), request metrics + per-request trace on every route,
// per-request deadlines on the query-shaped endpoints. Wrapping at route
// registration pre-creates every metric family, so a scrape that arrives
// before any traffic still sees them (at zero).
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.withMetrics("/", s.handleIndex))
	mux.HandleFunc("GET /healthz", s.withMetrics("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.withMetrics("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /api/spec", s.withMetrics("/api/spec", s.handleSpec))
	mux.HandleFunc("POST /api/query", s.withMetrics("/api/query", s.withTimeout(s.handleQuery)))
	mux.HandleFunc("POST /api/suggest", s.withMetrics("/api/suggest", s.withTimeout(s.handleSuggest)))
	mux.HandleFunc("POST /api/similar", s.withMetrics("/api/similar", s.withTimeout(s.handleSimilar)))
	mux.HandleFunc("POST /admin/update", s.withMetrics("/admin/update", s.handleAdminUpdate))
	mux.HandleFunc("GET /metrics", s.withMetrics("/metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/vars", s.withMetrics("/debug/vars", s.handleVars))
	if s.pprofEnabled {
		registerPprof(mux)
	}
	return withRecover(mux)
}

// withTimeout attaches the server's query budget to the request context.
// Handlers thread that context into the matcher, so an exhausted budget
// surfaces as a 504 carrying whatever partial results were found.
func (s *server) withTimeout(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.queryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	}
}

// withRecover converts handler panics into 500 responses so one bad
// request cannot take the whole server down. http.ErrAbortHandler keeps
// its net/http meaning and is re-raised.
func withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				log.Printf("vqiserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeErr(w, http.StatusInternalServerError, "internal", "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports the boot state machine: 503 "not_ready" while the
// index builds, 503 "replaying" while recovered WAL records re-apply, 200
// once the server answers queries against fully recovered state. The
// distinct replaying code lets orchestration tell a slow recovery from a
// stuck build.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch s.phase.Load() {
	case phaseBuilding:
		writeErr(w, http.StatusServiceUnavailable, "not_ready", "index build in progress")
	case phaseReplaying:
		writeErr(w, http.StatusServiceUnavailable, "replaying", "write-ahead log replay in progress")
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func (s *server) handleSpec(w http.ResponseWriter, _ *http.Request) {
	payload, err := s.spec.Encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

type queryRequest struct {
	Nodes []string `json:"nodes"`
	Edges []struct {
		U     int    `json:"u"`
		V     int    `json:"v"`
		Label string `json:"label"`
	} `json:"edges"`
}

type queryResponse struct {
	Matched    []string     `json:"matched"`
	Facets     []facetEntry `json:"facets,omitempty"`
	Embeddings int          `json:"embeddings"`
	// Truncated marks a response whose budget ran out: what is present is
	// valid, but more matches may exist.
	Truncated bool `json:"truncated"`
	// Plan and Stages are attached only when the request carried a ?plan=
	// parameter: the compiled plan summary and this request's stage-span
	// timings (plan.compile, plan.shortlist, plan.verify, ...). Never
	// cached — they describe this request, not the answer.
	Plan   *planInfo    `json:"plan,omitempty"`
	Stages []stageEntry `json:"stages,omitempty"`
}

// planInfo is the compiled-plan summary echoed to a ?plan= request.
type planInfo struct {
	Mode     string `json:"mode"`     // resolved planning mode (auto/off/forced)
	Strategy string `json:"strategy"` // chosen execution strategy, "" when off
	Summary  string `json:"summary"`  // human-readable plan line
}

// stageEntry is one stage span of this request's trace.
type stageEntry struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// facetEntry groups matches by the canned pattern they contain, so the
// front end can offer drill-down instead of a flat list.
type facetEntry struct {
	Pattern string   `json:"pattern"`
	Graphs  []string `json:"graphs"`
}

// decodeQuery reads, validates, and builds the posted query graph. On
// failure it writes the appropriate error envelope (413 oversized body,
// 400 malformed JSON or invalid edges, 422 oversized query) and returns
// ok=false.
func (s *server) decodeQuery(w http.ResponseWriter, r *http.Request) (*graph.Graph, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.maxBodyBytes))
			return nil, false
		}
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error())
		return nil, false
	}
	if size := len(req.Nodes) + len(req.Edges); size > s.maxQuerySize {
		writeErr(w, http.StatusUnprocessableEntity, "query_too_large",
			fmt.Sprintf("query has %d nodes+edges, limit is %d", size, s.maxQuerySize))
		return nil, false
	}
	q := graph.New("query")
	for _, l := range req.Nodes {
		q.AddNode(l)
	}
	for _, e := range req.Edges {
		if _, err := q.AddEdge(e.U, e.V, e.Label); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_query", err.Error())
			return nil, false
		}
	}
	return q, true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if err := s.inject.Fire("query"); err != nil {
		writeErr(w, http.StatusInternalServerError, "injected", err.Error())
		return
	}
	q, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// The "verify" fault site models a failure inside query verification,
	// after the request parsed cleanly. It feeds the error counter the
	// fault-injection tests assert on.
	if err := s.inject.Fire("verify"); err != nil {
		s.obs.Counter("vqiserve_verify_errors_total").Inc()
		writeErr(w, http.StatusInternalServerError, "injected", err.Error())
		return
	}
	mode, ok := s.planParam(w, r)
	if !ok {
		return
	}
	ctx := r.Context()
	corpus, idx := s.snapshot()
	// The plan is compiled only when the answer is computed, so a
	// response-cache hit pays no compile — except for a ?plan= request,
	// which needs the summary even when the answer itself is served from
	// cache.
	var pl *plan.Plan
	compile := func() {
		if pl == nil && mode != "off" && !s.network && idx != nil {
			_, span := obs.StartSpan(ctx, "plan.compile")
			pl = s.compilePlan(idx, q, mode)
			span.End()
		}
	}
	exec := func() (queryResponse, int) {
		compile()
		return s.execQuery(ctx, q, corpus, idx, pl)
	}
	finish := func(resp queryResponse, status int) {
		if r.URL.Query().Has("plan") {
			compile()
			s.attachPlanTrace(&resp, r, mode, pl)
		}
		writeJSON(w, status, resp)
	}
	if s.qc == nil {
		finish(exec())
		return
	}
	// Isomorphic queries share one cache line regardless of how the user
	// drew them: the key starts from the canonical code of the query graph,
	// scoped by the resolved planning mode (different modes may produce
	// differently-truncated outcomes and must not alias).
	// With a sharded index the key is additionally scoped to the full
	// shard-epoch vector, so a batch update silently retires every cached
	// answer that could have changed — no Reset, and answers computed
	// against the old index never leak past the update. Only complete
	// answers are stored — a truncated or timed-out response is handed to
	// its waiters but never cached. Waiters de-duplicated onto an in-flight
	// computation share the leader's outcome (including its budget), which
	// is the desired behavior for a stampede of identical queries.
	key := canon.String(q) + "|plan=" + mode
	if idx != nil {
		key = qcache.EpochKey(key, idx.Epochs())
	}
	out := s.qc.Do(key, func() (cachedResponse, bool) {
		resp, status := exec()
		return cachedResponse{resp: resp, status: status},
			status == http.StatusOK && !resp.Truncated
	})
	finish(out.resp, out.status)
}

// planParam resolves the request's planning mode: the ?plan= parameter
// when present (400 bad_plan on unknown values; empty means auto), else
// the -plan flag's default. The returned mode is one of off, auto,
// monolithic, ann.
func (s *server) planParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	if !r.URL.Query().Has("plan") {
		if s.planEnabled {
			return "auto", true
		}
		return "off", true
	}
	mode := r.URL.Query().Get("plan")
	switch mode {
	case "":
		return "auto", true
	case "auto", "off", "monolithic", "ann":
		return mode, true
	default:
		writeErr(w, http.StatusBadRequest, "bad_plan",
			fmt.Sprintf("plan mode %q is not supported; use auto, off, monolithic, or ann", mode))
		return "", false
	}
}

// compilePlan compiles q for the given mode. Plans are not cached: one
// is compiled only on a response-cache miss, and a plan cache keyed by
// the same code and epoch vector could hit only where the response was
// truncated or evicted while its plan survived.
func (s *server) compilePlan(idx *gindex.Sharded, q *graph.Graph, mode string) *plan.Plan {
	cfg := plan.Config{ANN: s.annEnabled, MaxResults: s.maxResults}
	switch mode {
	case "monolithic":
		cfg.Force = plan.StrategyMonolithic
	case "ann":
		cfg.Force = plan.StrategyANN
	}
	return idx.CompilePlan(q, cfg)
}

// attachPlanTrace adds the plan summary and this request's stage timings
// to an (uncached copy of the) response — only for explicit ?plan=
// requests, and always after the response cache, so cached entries stay
// free of per-request data.
func (s *server) attachPlanTrace(resp *queryResponse, r *http.Request, mode string, pl *plan.Plan) {
	info := &planInfo{Mode: mode}
	if pl != nil {
		info.Strategy = string(pl.Strategy)
		info.Summary = pl.String()
	} else {
		info.Summary = "planner off"
	}
	resp.Plan = info
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		for _, sp := range tr.Spans() {
			resp.Stages = append(resp.Stages, stageEntry{Name: sp.Name, Ms: sp.Dur.Seconds() * 1000})
		}
	}
}

// execQuery answers a decoded query graph against one (corpus, index)
// snapshot: network-mode embedding count, sharded filter-verify (under
// pl, when the planner is on), or the pre-index fallback scan. Returns
// the response and the HTTP status to serve it with. Taking the snapshot
// as parameters (rather than reading s.corpus/s.index) keeps one request
// on one corpus version even if an admin update lands mid-query.
func (s *server) execQuery(ctx context.Context, q *graph.Graph, corpus *graph.Corpus, idx *gindex.Sharded, pl *plan.Plan) (queryResponse, int) {
	var resp queryResponse
	status := http.StatusOK
	if s.network {
		res := isomorph.Count(q, corpus.Graph(0), isomorph.Options{
			MaxEmbeddings: 1000, MaxSteps: 2_000_000, Ctx: ctx})
		resp.Embeddings = res.Embeddings
		resp.Truncated = res.Truncated
		if res.Reason == isomorph.StopCanceled {
			status = http.StatusGatewayTimeout
		}
	} else if idx != nil {
		sctx, span := obs.StartSpan(ctx, "gindex.search")
		res := s.searchSharded(sctx, idx, q, pl)
		span.End()
		resp.Matched = res.Matches
		resp.Truncated = res.Truncated
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		} else {
			// Facets may cost extra matching; skip them once the budget is
			// gone.
			_, span := obs.StartSpan(ctx, "results.facets")
			resp.Facets = s.facets(resp.Matched, idx)
			span.End()
		}
	} else {
		// Fallback without an index (e.g. before the background build
		// finishes): verify every graph, fanning the independent VF2
		// checks over the worker pool and collecting matches in corpus
		// order. Cancellation stops dispatch; completed slots are kept.
		opts := pattern.MatchOptions()
		opts.Ctx = ctx
		matched, err := par.MapCtx(ctx, corpus.Len(), s.workers, func(i int) bool {
			return isomorph.Exists(q, corpus.Graph(i), opts)
		})
		for i, hit := range matched {
			if hit {
				resp.Matched = append(resp.Matched, corpus.Graph(i).Name())
			}
		}
		if err != nil {
			resp.Truncated = true
			status = http.StatusGatewayTimeout
		}
	}
	return resp, status
}

// searchSharded runs the query over the sharded index through the one
// budgeted fan-out: an ANN plan verifies each shard's most
// embedding-similar candidates first; otherwise the compiled matching
// order (when the planner is on) is applied to SearchCtx. The order
// changes Steps, never the match set, so order-agnostic cache keys stay
// sound.
func (s *server) searchSharded(ctx context.Context, idx *gindex.Sharded, q *graph.Graph, pl *plan.Plan) gindex.Result {
	opts := pattern.MatchOptions()
	opts.MaxResults = s.maxResults
	if pl != nil {
		if pl.Strategy == plan.StrategyANN {
			return idx.SearchPlan(ctx, q, opts, pl, gindex.PlanOptions{})
		}
		opts.Order = pl.Order
	}
	return idx.SearchCtx(ctx, q, opts)
}

// facets groups matched graphs by the spec's canned patterns. Which
// patterns a graph contains is read from the index's memoized panel masks
// (gindex.Sharded.PanelMasks), so only a graph faceted for the first time
// pays VF2 checks; the grouping is results.Facets' own.
func (s *server) facets(matched []string, idx *gindex.Sharded) []facetEntry {
	if len(matched) == 0 || s.panel == nil {
		return nil
	}
	masks := idx.PanelMasks(matched, s.panel)
	fs, _ := results.Group(matched, s.panel.Len(), func(pi, mi int) bool { return masks[mi].Get(pi) })
	var out []facetEntry
	for _, f := range fs {
		out = append(out, facetEntry{
			Pattern: s.spec.Patterns.Canned[f.PatternIndex].Name,
			Graphs:  f.Graphs,
		})
	}
	return out
}

type suggestResponse struct {
	Suggestions []suggestEntry `json:"suggestions"`
}

type suggestEntry struct {
	PatternIndex int    `json:"pattern_index"`
	Name         string `json:"name"`
	NewEdges     int    `json:"new_edges"`
}

// handleSuggest proposes panel patterns that continue the posted partial
// query (VIIQ-style auto-suggestion).
func (s *server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if err := s.inject.Fire("suggest"); err != nil {
		writeErr(w, http.StatusInternalServerError, "injected", err.Error())
		return
	}
	q, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	sugs, err := vqi.SuggestForSpec(s.spec, q, 8)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	resp := suggestResponse{Suggestions: []suggestEntry{}}
	for _, sg := range sugs {
		resp.Suggestions = append(resp.Suggestions, suggestEntry{
			PatternIndex: sg.PatternIndex,
			Name:         sg.Pattern.Name,
			NewEdges:     sg.NewEdges,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
