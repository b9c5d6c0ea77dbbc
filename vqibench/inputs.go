package main

// Seeded inputs: the serving corpus, the canned-pattern spec vqiserve
// loads, and each workload's request stream. Everything here is a pure
// function of the seed, so the same seed yields a byte-identical stream.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/vqi"
	"repro/internal/workload"
)

// Serving-corpus shape: chemical compounds of 14-30 atoms.
const (
	corpusGraphs = 2000
	specSample   = 150 // graphs CATAPULT selects the served canned patterns from
)

var corpusOpts = datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30}

type opKind int

const (
	opQuery opKind = iota
	opSuggest
	opSimilar
	opUpdate
	numOpKinds
)

var opNames = [numOpKinds]string{"query", "suggest", "similar", "update"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) path() string {
	switch k {
	case opQuery:
		return "/api/query"
	case opSuggest:
		return "/api/suggest"
	case opSimilar:
		return "/api/similar"
	default:
		return "/admin/update"
	}
}

// op is one request of a stream.
type op struct {
	kind opKind
	body []byte
	// update is the ordinal of an update batch within the stream (0, 1,
	// ...), or -1 for reads. Batches must apply in ordinal order.
	update int
}

// stream is a workload's pre-generated request sequence.
type stream struct {
	ops []op
}

// Bytes is the stream's wire form, for the determinism test.
func (s *stream) Bytes() []byte {
	var out []byte
	for _, o := range s.ops {
		out = append(out, o.kind.path()...)
		out = append(out, ' ')
		out = append(out, o.body...)
		out = append(out, '\n')
	}
	return out
}

type wireEdge struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label"`
}

type wireGraph struct {
	Name  string     `json:"name,omitempty"`
	Nodes []string   `json:"nodes"`
	Edges []wireEdge `json:"edges"`
}

// toWire renders g with its node ids relabelled by perm (nil = identity):
// node i of g becomes node perm[i] of the request.
func toWire(g *graph.Graph, perm []int) wireGraph {
	w := wireGraph{Nodes: make([]string, g.NumNodes()), Edges: make([]wireEdge, 0, g.NumEdges())}
	at := func(i int) int {
		if perm == nil {
			return i
		}
		return perm[i]
	}
	for i := 0; i < g.NumNodes(); i++ {
		w.Nodes[at(i)] = g.NodeLabel(i)
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, wireEdge{U: at(e.U), V: at(e.V), Label: e.Label})
	}
	return w
}

// fromWire builds the graph a request describes, as vqiserve's decoder does.
func fromWire(w wireGraph) (*graph.Graph, error) {
	name := w.Name
	if name == "" {
		name = "query"
	}
	g := graph.New(name)
	for _, l := range w.Nodes {
		g.AddNode(l)
	}
	for _, e := range w.Edges {
		if _, err := g.AddEdge(e.U, e.V, e.Label); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// redraw is an isomorphic redrawing of g: node order permuted, edges
// listed in a shuffled order.
func redraw(rng *rand.Rand, g *graph.Graph) []byte {
	w := toWire(g, rng.Perm(g.NumNodes()))
	rng.Shuffle(len(w.Edges), func(i, j int) { w.Edges[i], w.Edges[j] = w.Edges[j], w.Edges[i] })
	return mustJSON(w)
}

// servingCorpus is the corpus vqiserve serves for a seed.
func servingCorpus(seed int64) *graph.Corpus {
	return datagen.ChemicalCorpus(seed, corpusGraphs, corpusOpts)
}

// servingSpec is the VQI spec vqiserve loads: CATAPULT's canned patterns
// selected from a sample of the serving corpus.
func servingSpec(seed int64, c *graph.Corpus) (*vqi.Spec, error) {
	sample := graph.NewCorpus()
	for i := 0; i < specSample && i < c.Len(); i++ {
		sample.MustAdopt(c, i)
	}
	spec, _, err := core.BuildCorpusVQICtx(context.Background(), sample, core.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	// The attribute panel describes the whole served corpus.
	st := c.Stats()
	spec.Attribute = vqi.AttributePanel{NodeLabels: st.SortedNodeLabels(), EdgeLabels: st.SortedEdgeLabels()}
	return spec, nil
}

// mixQueries draws n workload.Generate DefaultMix queries over c's labels.
func mixQueries(c *graph.Corpus, n int, seed int64) []*graph.Graph {
	qs, err := workload.Generate(n, workload.FromCorpus(c), workload.Options{}, seed)
	if err != nil {
		panic(err)
	}
	out := make([]*graph.Graph, len(qs))
	for i, q := range qs {
		out[i] = q.G
	}
	return out
}

// distinctByCanon drops graphs whose canonical code was seen before.
func distinctByCanon(gs []*graph.Graph, seen map[string]bool) []*graph.Graph {
	var out []*graph.Graph
	for _, g := range gs {
		k := canon.String(g)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, g)
	}
	return out
}

// --- browse -----------------------------------------------------------

const (
	browsePool = 300    // distinct queries; well under vqiserve's -cache-size 512
	browseOps  = 120000 // enough for the longest run at cached speed
)

// browseStream draws /api/query requests Zipf from a pool of DefaultMix
// queries, each sent as a fresh isomorphic redrawing.
func browseStream(seed int64, c *graph.Corpus) *stream {
	pool := distinctByCanon(mixQueries(c, 2*browsePool, seed+11), map[string]bool{})
	if len(pool) > browsePool {
		pool = pool[:browsePool]
	}
	rng := rand.New(rand.NewSource(seed + 12))
	// Rank order is shuffled so the hot queries are not the generator's
	// first (chain-heavy) draws. The offset v=20 spreads the hot set over
	// dozens of queries: with v=1 the top few carried a third of the
	// traffic, and their answer sizes set the pace, which varied by seed.
	rank := rng.Perm(len(pool))
	zipf := rand.NewZipf(rng, 1.1, 20, uint64(len(pool)-1))
	s := &stream{ops: make([]op, 0, browseOps)}
	for i := 0; i < browseOps; i++ {
		g := pool[rank[zipf.Uint64()]]
		s.ops = append(s.ops, op{kind: opQuery, body: redraw(rng, g), update: -1})
	}
	return s
}

// --- compose ----------------------------------------------------------

const composeSessions = 6000

// composeMixSchedule is the DefaultMix topology proportions (55/25/10/5/
// 3/2) as a fixed 20-slot cycle, so every prefix of the stream holds each
// shape in proportion; only the queries within a shape vary by seed.
var composeMixSchedule = []workload.Topology{
	workload.Chain, workload.Star, workload.Chain, workload.Tree, workload.Chain,
	workload.Star, workload.Chain, workload.Cycle, workload.Chain, workload.Star,
	workload.Chain, workload.Petal, workload.Chain, workload.Star, workload.Chain,
	workload.Tree, workload.Chain, workload.Star, workload.Chain, workload.Flower,
}

// composeStream is cold formulation sessions: /api/suggest on a partial
// query, then /api/query on the finished one. Every finished query is new
// at the canonical-code level. Every third session draws a DefaultMix
// shape; the others are connected corpus subgraphs of 4-16 edges whose
// node count cycles through 5-12.
func composeStream(seed int64, c *graph.Corpus) *stream {
	rng := rand.New(rand.NewSource(seed + 21))
	seen := map[string]bool{}
	ls := workload.FromCorpus(c)
	pools := map[workload.Topology][]*graph.Graph{}
	nextMix := func(t workload.Topology) *graph.Graph {
		for len(pools[t]) == 0 {
			qs, err := workload.Generate(64, ls, workload.Options{Mix: map[workload.Topology]float64{t: 1}}, rng.Int63())
			if err != nil {
				panic(err)
			}
			for _, q := range qs {
				pools[t] = append(pools[t], q.G)
			}
			pools[t] = distinctByCanon(pools[t], seen)
		}
		q := pools[t][0]
		pools[t] = pools[t][1:]
		return q
	}
	var queries []*graph.Graph
	for i := 0; len(queries) < composeSessions; i++ {
		if i%3 == 0 {
			queries = append(queries, nextMix(composeMixSchedule[(i/3)%len(composeMixSchedule)]))
			continue
		}
		size := 5 + (i/3*2+i%3-1)%8
		for tries := 1; ; tries++ {
			if tries%500 == 0 {
				size++ // this size has run out of new shapes
			}
			q := datagen.RandomConnectedSubgraph(rng, c.Graph(rng.Intn(c.Len())), size)
			if q == nil || q.NumEdges() < 4 || q.NumEdges() > 16 {
				continue
			}
			if k := canon.String(q); !seen[k] {
				seen[k] = true
				queries = append(queries, q)
				break
			}
		}
	}
	s := &stream{ops: make([]op, 0, 2*len(queries))}
	for _, q := range queries {
		s.ops = append(s.ops,
			op{kind: opSuggest, body: redraw(rng, partial(q)), update: -1},
			op{kind: opQuery, body: redraw(rng, q), update: -1})
	}
	return s
}

// partial is the query a user has on screen halfway through drawing q:
// the first half of q's edges in breadth-first discovery order, which is
// connected by construction.
func partial(q *graph.Graph) *graph.Graph {
	want := (q.NumEdges() + 1) / 2
	ids := map[int]int{0: 0}
	p := graph.New("partial")
	p.AddNode(q.NodeLabel(0))
	used := map[int]bool{}
	queue := []int{0}
	for len(queue) > 0 && p.NumEdges() < want {
		u := queue[0]
		queue = queue[1:]
		q.VisitNeighbors(u, func(v int, e int) bool {
			if used[e] || p.NumEdges() >= want {
				return true
			}
			used[e] = true
			if _, ok := ids[v]; !ok {
				ids[v] = p.AddNode(q.NodeLabel(v))
				queue = append(queue, v)
			}
			p.MustAddEdge(ids[u], ids[v], q.EdgeLabel(e))
			return true
		})
	}
	return p
}

// --- churn ------------------------------------------------------------

const (
	churnPool         = 512 // ~ -cache-size
	churnOps          = 40000
	churnBatchAdds    = 4
	churnBlock        = 50
	churnBlockQueries = 35
	churnBlockSimilar = 11
	churnBlockUpdates = churnBlock - churnBlockQueries - churnBlockSimilar
	churnSimilarK     = 10
)

// similarReq asks for the graphs most similar to a named corpus graph.
type similarReq struct {
	Graph string `json:"graph"`
	K     int    `json:"k,omitempty"`
	Mode  string `json:"mode,omitempty"`
}

type updateReq struct {
	Add    []wireGraph `json:"add"`
	Remove []string    `json:"remove"`
}

// churnStream mixes reads from a cache-sized query pool and approximate
// similarity lookups with update batches, in blocks of churnBlock ops
// holding a fixed count of each kind in seeded order. Batch j adds
// churnBatchAdds new compounds and removes the ones batch j-2 added, so
// the corpus size stays level; similarity probes name original corpus
// graphs, which no batch removes.
func churnStream(seed int64, c *graph.Corpus) *stream {
	rng := rand.New(rand.NewSource(seed + 31))
	pool := distinctByCanon(mixQueries(c, 2*churnPool, seed+32), map[string]bool{})
	for len(pool) < churnPool {
		g := c.Graph(rng.Intn(c.Len()))
		if q := datagen.RandomConnectedSubgraph(rng, g, 4+rng.Intn(5)); q != nil {
			pool = append(pool, q)
		}
	}
	pool = pool[:churnPool]
	block := make([]opKind, 0, churnBlock)
	for k, n := range map[opKind]int{opQuery: churnBlockQueries, opSimilar: churnBlockSimilar, opUpdate: churnBlockUpdates} {
		for i := 0; i < n; i++ {
			block = append(block, k)
		}
	}
	sort.Slice(block, func(i, j int) bool { return block[i] < block[j] })
	s := &stream{ops: make([]op, 0, churnOps)}
	var batches [][]string
	for len(s.ops) < churnOps {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			switch kind {
			case opQuery:
				s.ops = append(s.ops, op{kind: opQuery, body: redraw(rng, pool[rng.Intn(len(pool))]), update: -1})
			case opSimilar:
				req := similarReq{Graph: c.Name(rng.Intn(c.Len())), K: churnSimilarK, Mode: "approx"}
				s.ops = append(s.ops, op{kind: opSimilar, body: mustJSON(req), update: -1})
			default:
				j := len(batches)
				req := updateReq{Remove: []string{}}
				var names []string
				for a := 0; a < churnBatchAdds; a++ {
					g := datagen.Chemical(rng, fmt.Sprintf("upd%d_%d", j, a), corpusOpts)
					w := toWire(g, nil)
					w.Name = g.Name()
					req.Add = append(req.Add, w)
					names = append(names, g.Name())
				}
				if j >= 2 {
					req.Remove = batches[j-2]
				}
				batches = append(batches, names)
				s.ops = append(s.ops, op{kind: opUpdate, body: mustJSON(req), update: j})
			}
		}
	}
	return s
}

// decodeUpdate parses an update body back into graphs and removals.
func decodeUpdate(body []byte) ([]*graph.Graph, []string, error) {
	var req updateReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, err
	}
	var added []*graph.Graph
	for _, w := range req.Add {
		g, err := fromWire(w)
		if err != nil {
			return nil, nil, err
		}
		added = append(added, g)
	}
	return added, req.Remove, nil
}
