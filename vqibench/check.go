package main

// Answer checking. Every load answer is compared, after the timed phase,
// with an in-process oracle on the same corpus state:
//
//   - /api/query: monolithic K=1 gindex.Build plus results.Facets under
//     pattern.MatchOptions(), cut to the corpus-order prefix under
//     -max-results. Under churn a read that overlapped update batches may
//     match any state acknowledged within its window.
//   - /api/suggest: vqi.SuggestForSpec.
//   - /api/similar: every score equals the exact cosine of the two
//     embeddings, scores descend, and the result has k entries.
//   - /admin/update: acknowledged with the expected counts.
//
// A transport error, a non-2xx status or a truncated answer also fails.

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"

	"repro/internal/ann"
	"repro/internal/canon"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/results"
	"repro/internal/vqi"
)

// Wire shapes of vqiserve's answers.
type facetEntry struct {
	Pattern string   `json:"pattern"`
	Graphs  []string `json:"graphs"`
}

type queryResp struct {
	Matched    []string     `json:"matched"`
	Facets     []facetEntry `json:"facets,omitempty"`
	Embeddings int          `json:"embeddings"`
	Truncated  bool         `json:"truncated"`
}

type suggestEntry struct {
	PatternIndex int    `json:"pattern_index"`
	Name         string `json:"name"`
	NewEdges     int    `json:"new_edges"`
}

type suggestResp struct {
	Suggestions []suggestEntry `json:"suggestions"`
}

type similarMatch struct {
	Name     string  `json:"name"`
	Score    float64 `json:"score"`
	Contains bool    `json:"contains,omitempty"`
}

type similarResp struct {
	Matches   []similarMatch `json:"matches"`
	Mode      string         `json:"mode"`
	Probed    int            `json:"probed"`
	Shortlist int            `json:"shortlist"`
	Scanned   int            `json:"scanned"`
	Verified  int            `json:"verified"`
	Truncated bool           `json:"truncated"`
}

type updateResp struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Graphs  int    `json:"graphs"`
	Shards  int    `json:"shards"`
	Rebuilt []int  `json:"rebuilt"`
	Millis  int64  `json:"millis"`
	Seq     uint64 `json:"seq,omitempty"`
}

// universe is every graph any state of a run can hold, in the order a
// corpus lists them: the serving corpus, then each batch's additions.
// Graph names are never reused, so a state is a live subset of it, and
// that subset in universe order is exactly the state's corpus order.
type universe struct {
	corpus *graph.Corpus
	// addedAt/removedAt bound the states a graph is live in: state k
	// (after k applied batches) holds position p iff addedAt[p] <= k <
	// removedAt[p].
	addedAt, removedAt []int
	updates            []updateBatch // by ordinal
	sizes              []int         // corpus size per state
}

type updateBatch struct {
	added   []*graph.Graph
	removed []string
}

const never = math.MaxInt

// newUniverse covers the serving corpus and the stream's first
// `batches` update batches.
func newUniverse(serving *graph.Corpus, s *stream, batches int) (*universe, error) {
	u := &universe{corpus: graph.NewCorpus()}
	for i := 0; i < serving.Len(); i++ {
		u.corpus.MustAdopt(serving, i)
		u.addedAt = append(u.addedAt, 0)
		u.removedAt = append(u.removedAt, never)
	}
	for _, o := range s.ops {
		if o.update < 0 {
			continue
		}
		if o.update >= batches {
			break
		}
		added, removed, err := decodeUpdate(o.body)
		if err != nil {
			return nil, err
		}
		u.updates = append(u.updates, updateBatch{added: added, removed: removed})
		for _, g := range added {
			if err := u.corpus.Add(g); err != nil {
				return nil, err
			}
			u.addedAt = append(u.addedAt, o.update+1)
			u.removedAt = append(u.removedAt, never)
		}
		for _, n := range removed {
			p, ok := u.corpus.IndexOf(n)
			if !ok {
				return nil, fmt.Errorf("batch %d removes unknown graph %s", o.update, n)
			}
			u.removedAt[p] = o.update + 1
		}
	}
	u.sizes = []int{serving.Len()}
	for _, b := range u.updates {
		u.sizes = append(u.sizes, u.sizes[len(u.sizes)-1]+len(b.added)-len(b.removed))
	}
	return u, nil
}

func (u *universe) live(p, state int) bool { return u.addedAt[p] <= state && state < u.removedAt[p] }

// size is the corpus size in a state.
func (u *universe) size(state int) int { return u.sizes[state] }

// oracle answers requests the way a correct vqiserve must.
type oracle struct {
	u          *universe
	idx        *gindex.Index
	spec       *vqi.Spec
	canned     []*pattern.Pattern
	maxResults int
	emb        *ann.Embedder

	mu      sync.Mutex
	matches map[string]matchSet // canonical query code -> all matches
	facets  map[string][]facetEntry
	vecs    map[string][]float32
}

type matchSet struct {
	pos       []int
	truncated bool
}

func newOracle(u *universe, spec *vqi.Spec, maxResults int) (*oracle, error) {
	panel, err := spec.AllPatterns()
	if err != nil {
		return nil, err
	}
	return &oracle{
		u:          u,
		idx:        gindex.Build(u.corpus),
		spec:       spec,
		canned:     panel[len(spec.Patterns.Basic):],
		maxResults: maxResults,
		emb:        ann.NewEmbedder(),
		matches:    map[string]matchSet{},
		facets:     map[string][]facetEntry{},
		vecs:       map[string][]float32{},
	}, nil
}

// allMatches runs the monolithic index over the whole universe.
func (o *oracle) allMatches(q *graph.Graph) matchSet {
	key := canon.String(q)
	o.mu.Lock()
	ms, ok := o.matches[key]
	o.mu.Unlock()
	if ok {
		return ms
	}
	res := o.idx.Search(q, pattern.MatchOptions())
	ms.truncated = res.Truncated
	for _, n := range res.Matches {
		p, _ := o.u.corpus.IndexOf(n)
		ms.pos = append(ms.pos, p)
	}
	o.mu.Lock()
	o.matches[key] = ms
	o.mu.Unlock()
	return ms
}

// query is the expected /api/query answer in a state.
func (o *oracle) query(q *graph.Graph, state int) queryResp {
	ms := o.allMatches(q)
	resp := queryResp{Truncated: ms.truncated}
	for _, p := range ms.pos {
		if !o.u.live(p, state) {
			continue
		}
		resp.Matched = append(resp.Matched, o.u.corpus.Name(p))
		if o.maxResults > 0 && len(resp.Matched) == o.maxResults {
			break
		}
	}
	resp.Facets = o.facetsOf(resp.Matched)
	return resp
}

func (o *oracle) facetsOf(matched []string) []facetEntry {
	if len(matched) == 0 {
		return nil
	}
	key := strings.Join(matched, "\x00")
	o.mu.Lock()
	fe, ok := o.facets[key]
	o.mu.Unlock()
	if ok {
		return fe
	}
	fs, _ := results.Facets(matched, o.u.corpus, o.canned, pattern.MatchOptions())
	for _, f := range fs {
		fe = append(fe, facetEntry{Pattern: o.spec.Patterns.Canned[f.PatternIndex].Name, Graphs: f.Graphs})
	}
	o.mu.Lock()
	o.facets[key] = fe
	o.mu.Unlock()
	return fe
}

func (o *oracle) suggest(q *graph.Graph) (suggestResp, error) {
	sugs, err := vqi.SuggestForSpec(o.spec, q, 8)
	resp := suggestResp{Suggestions: []suggestEntry{}}
	for _, sg := range sugs {
		resp.Suggestions = append(resp.Suggestions, suggestEntry{PatternIndex: sg.PatternIndex, Name: sg.Pattern.Name, NewEdges: sg.NewEdges})
	}
	return resp, err
}

func (o *oracle) vec(name string) ([]float32, bool) {
	o.mu.Lock()
	v, ok := o.vecs[name]
	o.mu.Unlock()
	if ok {
		return v, true
	}
	g, ok := o.u.corpus.ByName(name)
	if !ok {
		return nil, false
	}
	v = o.emb.Embed(g)
	o.mu.Lock()
	o.vecs[name] = v
	o.mu.Unlock()
	return v, true
}

// similarOK checks a similarity answer: k entries (or the corpus size),
// live graphs, descending scores, each the exact cosine.
func (o *oracle) similarOK(qname string, k int, resp similarResp, lo, hi int) error {
	qv, ok := o.vec(qname)
	if !ok {
		return fmt.Errorf("unknown query graph %s", qname)
	}
	if resp.Truncated {
		return fmt.Errorf("truncated")
	}
	if len(resp.Matches) != k {
		return fmt.Errorf("%d matches, want %d", len(resp.Matches), k)
	}
	for i, m := range resp.Matches {
		p, ok := o.u.corpus.IndexOf(m.Name)
		if !ok {
			return fmt.Errorf("match %s is not a corpus graph", m.Name)
		}
		alive := false
		for st := lo; st <= hi; st++ {
			alive = alive || o.u.live(p, st)
		}
		if !alive {
			return fmt.Errorf("match %s is not live in states %d..%d", m.Name, lo, hi)
		}
		gv, _ := o.vec(m.Name)
		if want := ann.Cosine(qv, gv); math.Abs(want-m.Score) > 1e-9 {
			return fmt.Errorf("match %s score %v, exact cosine %v", m.Name, m.Score, want)
		}
		if i > 0 && m.Score > resp.Matches[i-1].Score {
			return fmt.Errorf("scores not descending at %d", i)
		}
	}
	return nil
}

// window is the range of corpus states a read may have observed: lo
// batches were acknowledged before it was sent, hi had been sent before
// its answer arrived.
type window struct{ lo, hi int }

// windows computes each record's state window from the update records.
func windows(s *stream, recs []record) []window {
	type upd struct{ sent, acked int64 }
	var ups []upd
	for _, r := range recs {
		if s.ops[r.idx].update >= 0 {
			ups = append(ups, upd{int64(r.start), int64(r.end)})
		}
	}
	out := make([]window, len(recs))
	for i, r := range recs {
		w := window{}
		for _, u := range ups {
			if u.acked <= int64(r.start) {
				w.lo++
			}
			if u.sent < int64(r.end) {
				w.hi++
			}
		}
		if o := s.ops[r.idx]; o.update >= 0 {
			w = window{o.update, o.update}
		}
		out[i] = w
	}
	return out
}

// checkResult is the outcome of checking a load.
type checkResult struct {
	failed   int
	failures []string // the first few, for the log
	// failedAt marks failed operations: stream positions, and negative
	// numbers for requests made after the timed phase.
	failedAt map[int]bool
}

func (c *checkResult) fail(idx int, format string, args ...any) {
	if c.failedAt[idx] {
		return
	}
	c.failedAt[idx] = true
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf("op %d: ", idx)+fmt.Sprintf(format, args...))
	}
}

// checkLoad checks every record of a load against the oracle.
func checkLoad(o *oracle, s *stream, lr *loadResult) *checkResult {
	cr := &checkResult{failedAt: map[int]bool{}}
	wins := windows(s, lr.recs)
	errs := make([]string, len(lr.recs))
	par.ForEachN(len(lr.recs), 0, func(i int) {
		errs[i] = checkOne(o, s, lr, lr.recs[i], wins[i])
	})
	for i, e := range errs {
		if e != "" {
			cr.fail(lr.recs[i].idx, "%s", e)
		}
	}
	return cr
}

func checkOne(o *oracle, s *stream, lr *loadResult, r record, w window) string {
	op := s.ops[r.idx]
	if r.err != "" {
		return "transport: " + r.err
	}
	body := lr.bodies[r.hash]
	if r.status < 200 || r.status > 299 {
		return fmt.Sprintf("%s status %d: %.200s", op.kind, r.status, body)
	}
	if err := checkAnswer(o, op, body, w); err != nil {
		return fmt.Sprintf("%s: %v", op.kind, err)
	}
	return ""
}

// checkAnswer checks one 2xx answer body for op against states w.lo..w.hi.
func checkAnswer(o *oracle, op op, body []byte, w window) error {
	switch op.kind {
	case opQuery:
		var got queryResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Truncated {
			return fmt.Errorf("truncated answer")
		}
		q, err := decodeGraph(op.body)
		if err != nil {
			return err
		}
		for st := w.lo; st <= w.hi; st++ {
			if sameQuery(got, o.query(q, st)) {
				return nil
			}
		}
		want := o.query(q, w.hi)
		return fmt.Errorf("answer %d matches %d facets, oracle %d matches %d facets (states %d..%d)",
			len(got.Matched), len(got.Facets), len(want.Matched), len(want.Facets), w.lo, w.hi)
	case opSuggest:
		var got suggestResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		q, err := decodeGraph(op.body)
		if err != nil {
			return err
		}
		want, err := o.suggest(q)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("suggestions %v, oracle %v", got.Suggestions, want.Suggestions)
		}
	case opSimilar:
		var got similarResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		var req similarReq
		if err := json.Unmarshal(op.body, &req); err != nil {
			return err
		}
		k := req.K
		if n := o.u.size(w.lo); n < k {
			k = n
		}
		return o.similarOK(req.Graph, k, got, w.lo, w.hi)
	case opUpdate:
		var got updateResp
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		b := o.u.updates[op.update]
		want := o.u.size(op.update + 1)
		if got.Added != len(b.added) || got.Removed != len(b.removed) || got.Graphs != want {
			return fmt.Errorf("ack +%d -%d =%d, want +%d -%d =%d", got.Added, got.Removed, got.Graphs,
				len(b.added), len(b.removed), want)
		}
	}
	return nil
}

func decodeGraph(body []byte) (*graph.Graph, error) {
	var w wireGraph
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	return fromWire(w)
}

func sameQuery(a, b queryResp) bool {
	return a.Truncated == b.Truncated && a.Embeddings == b.Embeddings &&
		equalStrings(a.Matched, b.Matched) && reflect.DeepEqual(nilIfEmpty(a.Facets), nilIfEmpty(b.Facets))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func nilIfEmpty(f []facetEntry) []facetEntry {
	if len(f) == 0 {
		return nil
	}
	return f
}
