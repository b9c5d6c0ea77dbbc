// Package catapult implements the CATAPULT framework: data-driven selection
// of canned patterns from a large collection of small- or medium-sized data
// graphs (SIGMOD 2019, as reviewed in the tutorial's Section 2.3).
//
// The pipeline has three steps:
//
//  1. Cluster the corpus: each data graph is embedded as a frequent-tree
//     feature vector (package fct) and the corpus is partitioned with
//     k-medoids (package cluster).
//  2. Summarize each cluster into a cluster summary graph by iterated
//     graph closure (package closure); shared motifs accumulate weight.
//  3. Generate candidate patterns by weighted random walks over the CSGs
//     (transition probability proportional to edge weight, so walks follow
//     substructures common across the cluster), then greedily select the
//     canned pattern set: each step picks the candidate maximizing a
//     pattern score combining marginal coverage gain, marginal structural
//     diversity, and (negatively) cognitive load, until the user budget is
//     met or candidates are exhausted.
package catapult

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/closure"
	"repro/internal/cluster"
	"repro/internal/fct"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pattern"
)

// Config parameterizes a CATAPULT run.
type Config struct {
	// Budget is the user-specified pattern budget (count and size range).
	Budget pattern.Budget
	// Weights balance coverage, diversity and cognitive load in the greedy
	// pattern score.
	Weights pattern.Weights
	// Clusters is the number of corpus clusters: 0 = the ~√N heuristic
	// (capped at 16); -1 = silhouette-based selection (cluster.SelectK,
	// slower but data-driven); otherwise the explicit count.
	Clusters int
	// WalksPerCSG is the number of candidate-generating random walks per
	// cluster summary graph (0 = 120).
	WalksPerCSG int
	// MinSupportFrac is the frequent-tree support threshold as a fraction
	// of the corpus size (0 = 0.1).
	MinSupportFrac float64
	// FeatureMaxEdges bounds the mined feature trees (0 = 2).
	FeatureMaxEdges int
	// Seed drives all randomized stages; runs are deterministic per seed.
	Seed int64
	// Match bounds embedding searches during scoring (zero value =
	// pattern.MatchOptions()).
	Match isomorph.Options
	// Workers bounds the worker pool used by the parallel stages (feature
	// vectors, clustering, CSG construction, candidate walks, coverage
	// sweeps). <= 0 means GOMAXPROCS. Results are identical at any value:
	// every stage writes slot-indexed output and candidate walks draw from
	// per-cluster RNGs seeded by par.ChildSeed(Seed, cluster).
	Workers int
}

func (c *Config) defaults(corpusLen int) {
	if c.Clusters == 0 {
		c.Clusters = 1
		for c.Clusters*c.Clusters < corpusLen && c.Clusters < 16 {
			c.Clusters++
		}
	}
	if c.WalksPerCSG == 0 {
		c.WalksPerCSG = 120
	}
	if c.MinSupportFrac == 0 {
		c.MinSupportFrac = 0.1
	}
	if c.FeatureMaxEdges == 0 {
		c.FeatureMaxEdges = 2
	}
	if c.Weights == (pattern.Weights{}) {
		c.Weights = pattern.DefaultWeights()
	}
	if c.Match.IsZero() {
		c.Match = pattern.MatchOptions()
	}
}

// Result carries the selected patterns and every intermediate artifact
// (MIDAS maintains these rather than recomputing them).
type Result struct {
	Patterns   []*pattern.Pattern
	FCT        *fct.Set
	Vectors    [][]float64 // feature vector per corpus position
	Clustering *cluster.Clustering
	CSGs       []*closure.CSG // one per cluster
	Candidates int            // distinct candidates generated
	Coverage   float64        // corpus edge coverage of the selected set
	// Truncated reports that the run's context was canceled mid-pipeline:
	// the result holds the best pattern set reachable within the budget
	// (possibly empty) rather than the full selection.
	Truncated bool
}

// Select runs the full CATAPULT pipeline over the corpus.
func Select(c *graph.Corpus, cfg Config) (*Result, error) {
	return SelectCtx(context.Background(), c, cfg)
}

// SelectCtx is Select under a context: the pipeline checks ctx between
// stages (and inside the parallel/VF2-heavy ones) and degrades gracefully —
// when the context dies, the stages completed so far are returned with
// Result.Truncated set instead of an error, so an interactive caller gets
// the best-so-far pattern set. Validation errors are still errors.
func SelectCtx(ctx context.Context, c *graph.Corpus, cfg Config) (*Result, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("catapult: empty corpus")
	}
	if err := cfg.Budget.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults(c.Len())
	if cfg.Match.Ctx == nil {
		// Thread the run context into every embedding search so even a
		// single pathological VF2 sweep respects the deadline.
		cfg.Match.Ctx = ctx
	}

	res := &Result{}
	// Each pipeline stage runs under an obs span: the stage's wall time
	// lands in the global stage_seconds histogram, and when the context
	// carries a trace (vqibuild -metrics) the per-run stage table gets a
	// row. The deferred closer ends whichever stage an early (truncated or
	// failed) return leaves open.
	var stage *obs.Span
	endStage := func() {
		if stage != nil {
			stage.End()
			stage = nil
		}
	}
	defer endStage()

	// Step 1: features and clustering.
	_, stage = obs.StartSpan(ctx, "catapult.cluster")
	minSup := int(cfg.MinSupportFrac * float64(c.Len()))
	if minSup < 1 {
		minSup = 1
	}
	set, err := fct.Miner{MinSupport: minSup, MaxEdges: cfg.FeatureMaxEdges}.Mine(c)
	if err != nil {
		return nil, err
	}
	res.FCT = set
	res.Vectors = make([][]float64, c.Len())
	// Per-graph feature vectors are cheap (a handful of VF2 probes), so
	// fan out only when each worker gets a meaningful batch — small
	// corpora run inline (the 0.96× Select regression in
	// BENCH_parallel.json was goroutine overhead on exactly this stage).
	if err := par.ForEachNCtx(ctx, c.Len(), par.Grain(cfg.Workers, c.Len(), 8), func(i int) {
		res.Vectors[i] = set.FeatureVector(c.Graph(i))
	}); err != nil {
		res.Truncated = true
		return res, nil
	}
	var cl *cluster.Clustering
	if cfg.Clusters == -1 {
		maxK := 2
		for maxK*maxK < c.Len() && maxK < 16 {
			maxK++
		}
		_, selected, err := cluster.SelectKN(res.Vectors, maxK, cluster.Jaccard, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		cl = selected
	} else {
		var err error
		cl, err = cluster.KMedoidsN(res.Vectors, cfg.Clusters, cluster.Jaccard, cfg.Seed, 0, cfg.Workers)
		if err != nil {
			return nil, err
		}
	}
	res.Clustering = cl
	endStage()
	if ctx.Err() != nil {
		res.Truncated = true
		return res, nil
	}

	// Step 2: one CSG per cluster.
	_, stage = obs.StartSpan(ctx, "catapult.csg")
	csgs := make([]*closure.CSG, cl.K)
	if err := par.ForEachNCtx(ctx, cl.K, cfg.Workers, func(ci int) {
		var members []*graph.Graph
		for _, idx := range cl.Members(ci) {
			members = append(members, c.Graph(idx))
		}
		csgs[ci] = closure.Merge(members)
	}); err != nil {
		res.Truncated = true
		return res, nil
	}
	res.CSGs = csgs
	endStage()

	// Step 3: candidates and greedy selection. Each cluster's walks use a
	// private RNG seeded from (Seed, cluster index), so the candidate stream
	// per cluster is a pure function of the seed — independent of how the
	// clusters are scheduled across workers.
	_, stage = obs.StartSpan(ctx, "catapult.walk")
	perCSG, err := par.MapCtx(ctx, len(res.CSGs), cfg.Workers, func(ci int) []*pattern.Pattern {
		rng := rand.New(rand.NewSource(par.ChildSeed(cfg.Seed, ci)))
		return SampleCandidates(res.CSGs[ci], cfg.Budget, cfg.WalksPerCSG, rng)
	})
	if err != nil {
		res.Truncated = true
		return res, nil
	}
	var candidates []*pattern.Pattern
	for _, part := range perCSG {
		candidates = append(candidates, part...)
	}
	candidates = pattern.Dedup(candidates)
	res.Candidates = len(candidates)
	endStage()

	_, stage = obs.StartSpan(ctx, "catapult.select")
	var truncated bool
	res.Patterns, res.Coverage, truncated = greedySelectCtx(ctx, candidates, c, cfg.Budget, cfg.Weights, cfg.Match, cfg.Workers)
	res.Truncated = res.Truncated || truncated
	return res, nil
}

// BuildCSGs merges each cluster's member graphs into a cluster summary
// graph, in cluster order. Equivalent to BuildCSGsN with
// workers = GOMAXPROCS.
func BuildCSGs(c *graph.Corpus, cl *cluster.Clustering) []*closure.CSG {
	return BuildCSGsN(c, cl, 0)
}

// BuildCSGsN is BuildCSGs with an explicit worker count: clusters are
// disjoint and closure.Merge only reads the member graphs, so each summary
// is built independently into its slot.
func BuildCSGsN(c *graph.Corpus, cl *cluster.Clustering, workers int) []*closure.CSG {
	csgs := make([]*closure.CSG, cl.K)
	par.ForEachN(cl.K, workers, func(ci int) {
		var members []*graph.Graph
		for _, idx := range cl.Members(ci) {
			members = append(members, c.Graph(idx))
		}
		csgs[ci] = closure.Merge(members)
	})
	return csgs
}

// SampleCandidates generates candidate patterns from a CSG by weighted
// random walks: a walk starts at an edge drawn proportionally to its
// weight, repeatedly extends across frontier edges (again weight-
// proportional) until a target size drawn from the budget's range, and
// emits the walked subgraph as a candidate. Only candidates within the
// budget's size range survive.
func SampleCandidates(csg *closure.CSG, b pattern.Budget, walks int, rng *rand.Rand) []*pattern.Pattern {
	g := csg.G
	if g.NumEdges() == 0 {
		return nil
	}
	// Cumulative weights for start-edge sampling.
	cum := make([]int, g.NumEdges())
	total := 0
	for e := 0; e < g.NumEdges(); e++ {
		total += csg.EdgeWeight[e]
		cum[e] = total
	}
	pickStart := func() graph.EdgeID {
		x := rng.Intn(total)
		lo := sort.SearchInts(cum, x+1)
		return graph.EdgeID(lo)
	}
	// Stamped marks, allocated once per call and reused by every walk:
	// edge e is in walk w iff walkMark[e] == w+1, node v iff
	// nodeMark[v] == w+1, and edge e is in the current step's frontier iff
	// frontMark[e] == step.
	walkMark := make([]uint32, g.NumEdges())
	frontMark := make([]uint32, g.NumEdges())
	nodeMark := make([]uint32, g.NumNodes())
	var step uint32
	var nodeList []graph.NodeID // insertion-ordered for determinism
	var walkEdges, frontier []graph.EdgeID
	var out []*pattern.Pattern
	for w := 0; w < walks; w++ {
		mark := uint32(w + 1)
		target := b.MinSize + rng.Intn(b.MaxSize-b.MinSize+1)
		nodeList = nodeList[:0]
		addNode := func(v graph.NodeID) {
			if nodeMark[v] != mark {
				nodeMark[v] = mark
				nodeList = append(nodeList, v)
			}
		}
		start := pickStart()
		walkEdges = append(walkEdges[:0], start)
		walkMark[start] = mark
		se := g.Edge(start)
		addNode(se.U)
		addNode(se.V)
		for len(walkEdges) < target {
			// Frontier: edges incident to walked nodes, not yet in walk.
			step++
			frontier = frontier[:0]
			fTotal := 0
			for _, v := range nodeList {
				g.VisitNeighbors(v, func(_ graph.NodeID, e graph.EdgeID) bool {
					if walkMark[e] != mark && frontMark[e] != step {
						frontMark[e] = step
						frontier = append(frontier, e)
						fTotal += csg.EdgeWeight[e]
					}
					return true
				})
			}
			if len(frontier) == 0 || fTotal == 0 {
				break
			}
			x := rng.Intn(fTotal)
			var next graph.EdgeID
			for _, e := range frontier {
				x -= csg.EdgeWeight[e]
				if x < 0 {
					next = e
					break
				}
			}
			walkMark[next] = mark
			walkEdges = append(walkEdges, next)
			ne := g.Edge(next)
			addNode(ne.U)
			addNode(ne.V)
		}
		if len(walkEdges) < b.MinSize {
			continue
		}
		sub, _ := g.SubgraphFromEdges(walkEdges)
		sub.SetName(fmt.Sprintf("catapult-w%d", w))
		p := pattern.New(sub, "catapult")
		p.Support = csg.Members
		if b.Admits(p) && sub.IsConnected() {
			out = append(out, p)
		}
	}
	return out
}

// GreedySelect repeatedly picks the candidate with the highest pattern
// score — weighted normalized marginal coverage gain plus marginal
// diversity minus normalized cognitive load — until the budget count is
// reached or candidates run out. It returns the selection and its corpus
// edge coverage. Each candidate's covered-edge bitset is computed exactly
// once (one bounded VF2 sweep over the corpus); the greedy rounds are then
// pure bitset arithmetic, which is what keeps selection time linear-ish in
// corpus size. The same loop serves CATAPULT, the modular extractor, and
// (via swapping) MIDAS.
func GreedySelect(candidates []*pattern.Pattern, c *graph.Corpus, b pattern.Budget, w pattern.Weights, opts isomorph.Options) ([]*pattern.Pattern, float64) {
	return GreedySelectN(candidates, c, b, w, opts, 0)
}

// GreedySelectN is GreedySelect with an explicit worker count for the
// coverage sweep.
func GreedySelectN(candidates []*pattern.Pattern, c *graph.Corpus, b pattern.Budget, w pattern.Weights, opts isomorph.Options, workers int) ([]*pattern.Pattern, float64) {
	cc := pattern.NewCoverCache(c, pattern.NewUniverse(c), opts)
	return GreedySelectCached(candidates, cc, b, w, workers)
}

// greedySelectCtx is the context-aware selection used by SelectCtx: the
// coverage sweep inherits any Ctx inside opts (sweeps self-truncate on
// deadline) and the greedy rounds stop early on cancellation, returning
// the patterns picked so far with truncated = true.
func greedySelectCtx(ctx context.Context, candidates []*pattern.Pattern, c *graph.Corpus, b pattern.Budget, w pattern.Weights, opts isomorph.Options, workers int) ([]*pattern.Pattern, float64, bool) {
	cc := pattern.NewCoverCache(c, pattern.NewUniverse(c), opts)
	return GreedySelectCachedCtx(ctx, candidates, cc, b, w, workers)
}

// GreedySelectCached is the greedy loop against a shared coverage cache:
// candidates whose canonical form was already evaluated (in this call or a
// previous one against the same cache) reuse the memoized bitset instead of
// re-running the VF2 sweep. MIDAS holds one cache across swap scans for
// exactly this reason.
func GreedySelectCached(candidates []*pattern.Pattern, cc *pattern.CoverCache, b pattern.Budget, w pattern.Weights, workers int) ([]*pattern.Pattern, float64) {
	sel, cov, _ := GreedySelectCachedCtx(context.Background(), candidates, cc, b, w, workers)
	return sel, cov
}

// GreedySelectCachedCtx is GreedySelectCached under a context: each greedy
// round starts only while ctx is live, so a deadline yields the best
// partial selection instead of blocking. The boolean reports truncation.
func GreedySelectCachedCtx(ctx context.Context, candidates []*pattern.Pattern, cc *pattern.CoverCache, b pattern.Budget, w pattern.Weights, workers int) ([]*pattern.Pattern, float64, bool) {
	pool := make([]*pattern.Pattern, 0, len(candidates))
	for _, p := range candidates {
		if b.Admits(p) {
			pool = append(pool, p)
		}
	}
	u := cc.Universe()
	covers := cc.Bitsets(pool, workers)
	covered := pattern.NewBitset(u.Total())
	total := float64(u.Total())
	truncated := false
	var selected []*pattern.Pattern
	alive := make([]bool, len(pool))
	for i := range alive {
		alive[i] = true
	}
	for len(selected) < b.Count {
		if ctx.Err() != nil {
			truncated = true
			break
		}
		bestI := -1
		bestScore := 0.0
		for i, p := range pool {
			if !alive[i] {
				continue
			}
			covGain := 0.0
			if total > 0 {
				covGain = float64(covers[i].AndNotCount(covered)) / total
			}
			score := w.Coverage*covGain +
				w.Diversity*pattern.MarginalDiversity(selected, p) -
				w.CogLoad*pattern.NormalizedCognitiveLoad(p, b)
			if bestI == -1 || score > bestScore {
				bestI, bestScore = i, score
			}
		}
		if bestI == -1 {
			break
		}
		alive[bestI] = false
		covered.Or(covers[bestI])
		selected = append(selected, pool[bestI])
	}
	coverage := 0.0
	if u.Total() > 0 {
		coverage = float64(covered.Popcount()) / total
	}
	return selected, coverage, truncated
}
