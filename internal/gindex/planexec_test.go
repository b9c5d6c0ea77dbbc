package gindex

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// planQueries draws connected subgraph queries (node sizes chosen so edge
// counts land in the 4..16 range).
func planQueries(rng *rand.Rand, c *graph.Corpus, n, minNodes, maxNodes int) []*graph.Graph {
	var out []*graph.Graph
	for len(out) < n {
		src := c.Graph(rng.Intn(c.Len()))
		size := minNodes + rng.Intn(maxNodes-minNodes+1)
		if q := datagen.RandomConnectedSubgraph(rng, src, size); q != nil && q.NumEdges() >= 2 {
			out = append(out, q)
		}
	}
	return out
}

// planConfigs returns one compile config per strategy: the cost model's
// choice, forced monolithic and forced ANN-first.
func planConfigs() []plan.Config {
	return []plan.Config{{}, {Force: plan.StrategyMonolithic}, {Force: plan.StrategyANN}}
}

// planOptionVariants returns the isomorph.Options variations the plan
// matrix runs every query under: default monomorphism, induced semantics,
// and each with a step budget tight enough that some checks truncate.
func planOptionVariants() []isomorph.Options {
	base := pattern.MatchOptions()
	induced := base
	induced.Induced = true
	tight := base
	tight.MaxSteps = planTightSteps
	tightInduced := induced
	tightInduced.MaxSteps = planTightSteps
	return []isomorph.Options{base, induced, tight, tightInduced}
}

// planTightSteps is a per-graph VF2 step budget small enough to truncate
// some containment checks on the plan-test corpora.
const planTightSteps = 12

// isSubsequence reports whether sub appears in full in the same order.
func isSubsequence(sub, full []string) bool {
	j := 0
	for _, x := range sub {
		for j < len(full) && full[j] != x {
			j++
		}
		if j == len(full) {
			return false
		}
		j++
	}
	return true
}

// TestSearchPlanMatchesOracle is the plan equivalence property: at every
// strategy (cost-chosen and forced), shard count, worker count,
// MaxResults budget, induced or plain semantics, and step budget,
// SearchPlan honours the Truncated contract against the monolithic K=1
// Index oracle: its matches are always an ordered subset of the complete
// answer, and a non-truncated answer is exactly the complete answer's
// MaxResults prefix.
func TestSearchPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	truncated, complete := 0, 0
	strategies := map[plan.Strategy]int{}
	for _, corpusN := range []int{3, 60} {
		c := datagen.ChemicalCorpus(int64(corpusN), corpusN, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24})
		mono := Build(c)
		queries := planQueries(rng, c, 10, 5, 14)
		for _, k := range []int{1, 3, 5} {
			for _, workers := range []int{1, 4} {
				sh := BuildShardedANN(c, k, workers, ann.NewConfig())
				for oi, opts := range planOptionVariants() {
					full := opts
					full.MaxSteps = 0
					for qi, q := range queries {
						want := mono.Search(q, full)
						for ci, cfg := range planConfigs() {
							for _, max := range []int{0, 1, 5} {
								bopts := opts
								bopts.MaxResults = max
								ccfg := cfg
								ccfg.MaxResults = max
								ccfg.ANN = true
								pl := sh.CompilePlan(q, ccfg)
								strategies[pl.Strategy]++
								got := sh.SearchPlan(context.Background(), q, bopts, pl, PlanOptions{})
								wantM := want.Matches
								if max > 0 && len(wantM) > max {
									wantM = wantM[:max]
								}
								where := func() string {
									return fmt.Sprintf("n=%d k=%d w=%d opts%d q%d cfg%d (%s) max=%d",
										corpusN, k, workers, oi, qi, ci, pl.Strategy, max)
								}
								// Verify-once: no strategy verifies a candidate twice
								// (the ANN first pass's outcomes are reused by the sweep).
								if got.Verified > got.Candidates {
									t.Fatalf("%s: verified %d > %d candidates", where(), got.Verified, got.Candidates)
								}
								if !isSubsequence(got.Matches, want.Matches) {
									t.Fatalf("%s: %v is not an ordered subset of %v", where(), got.Matches, want.Matches)
								}
								if got.Truncated {
									if opts.MaxSteps != planTightSteps {
										t.Fatalf("%s: unexpected Truncated", where())
									}
									truncated++
									continue
								}
								complete++
								if !reflect.DeepEqual(got.Matches, wantM) {
									t.Fatalf("%s:\n got %v\nwant %v", where(), got.Matches, wantM)
								}
							}
						}
					}
				}
			}
		}
	}
	// Guard against a step budget that never (or always) binds: the
	// matrix must exercise both sides of the Truncated contract.
	if truncated == 0 || complete == 0 {
		t.Fatalf("step budget exercised %d truncated and %d complete answers; want both > 0", truncated, complete)
	}
	// Both strategies must actually run.
	if strategies[plan.StrategyMonolithic] == 0 || strategies[plan.StrategyANN] == 0 {
		t.Fatalf("strategies compiled: %v; want monolithic and ann", strategies)
	}
}

// TestPlanStatsCounts: PlanStats aggregates must equal brute-force
// document frequencies, at any shard count, and match the monolithic
// Index's stats.
func TestPlanStatsCounts(t *testing.T) {
	c := datagen.ChemicalCorpus(13, 40, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 20})
	wantNode := map[string]int{}
	wantEdge := map[string]int{}
	wantTrip := map[[3]string]int{}
	c.Each(func(gi int, g *graph.Graph) {
		seenN, seenE, seenT := map[string]bool{}, map[string]bool{}, map[[3]string]bool{}
		for v := 0; v < g.NumNodes(); v++ {
			seenN[g.NodeLabel(v)] = true
		}
		for _, e := range g.Edges() {
			seenE[e.Label] = true
			a, b := g.NodeLabel(e.U), g.NodeLabel(e.V)
			if a > b {
				a, b = b, a
			}
			seenT[[3]string{a, e.Label, b}] = true
		}
		for l := range seenN {
			wantNode[l]++
		}
		for l := range seenE {
			wantEdge[l]++
		}
		for tr := range seenT {
			wantTrip[tr]++
		}
	})
	for _, k := range []int{1, 4, 7} {
		st := BuildSharded(c, k, 2).PlanStats()
		if st.Graphs() != c.Len() {
			t.Fatalf("k=%d: Graphs=%d want %d", k, st.Graphs(), c.Len())
		}
		for l, n := range wantNode {
			if got := st.NodeLabelGraphs(l); got != n {
				t.Fatalf("k=%d: NodeLabelGraphs(%q)=%d want %d", k, l, got, n)
			}
		}
		for l, n := range wantEdge {
			if got := st.EdgeLabelGraphs(l); got != n {
				t.Fatalf("k=%d: EdgeLabelGraphs(%q)=%d want %d", k, l, got, n)
			}
		}
		for tr, n := range wantTrip {
			if got := st.TripleGraphs(tr[0], tr[1], tr[2]); got != n {
				t.Fatalf("k=%d: TripleGraphs(%v)=%d want %d", k, tr, got, n)
			}
		}
		if st.NodeLabelGraphs("no-such-label") != 0 {
			t.Fatalf("k=%d: absent label should count 0", k)
		}
	}
	mst := Build(c).PlanStats()
	if mst.Graphs() != c.Len() || mst.NodeLabelGraphs("C") != wantNode["C"] {
		t.Fatal("Index.PlanStats disagrees with brute force")
	}
}

// TestSearchPlanConcurrentCtx hammers the ANN-first path (shared result
// budget, shortlist, first-pass outcomes) from many goroutines under
// -race, with some contexts canceled mid-flight. Complete runs must all
// agree with the oracle.
func TestSearchPlanConcurrentCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	c := datagen.ChemicalCorpus(29, 40, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 24})
	sh := BuildShardedANN(c, 4, 4, ann.NewConfig())
	opts := pattern.MatchOptions()
	opts.MaxResults = 3
	for _, q := range planQueries(rng, c, 4, 3, 8) {
		pl := sh.CompilePlan(q, plan.Config{Force: plan.StrategyANN, ANN: true, MaxResults: opts.MaxResults})
		if pl.Strategy != plan.StrategyANN {
			t.Fatalf("forced ANN compiled to %s", pl.Strategy)
		}
		want := sh.SearchCtx(context.Background(), q, opts)

		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx := context.Background()
				if i%4 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*100*time.Microsecond)
					defer cancel()
				}
				got := sh.SearchPlan(ctx, q, opts, pl, PlanOptions{})
				if got.Truncated {
					return // canceled mid-flight: sound subset by contract
				}
				if !reflect.DeepEqual(got.Matches, want.Matches) {
					errs <- "concurrent SearchPlan diverged from oracle"
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestSearchPlanNilAndMonolithic: a nil plan falls back to SearchCtx; a
// monolithic plan applies the compiled order without changing answers.
func TestSearchPlanNilAndMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	c := datagen.ChemicalCorpus(31, 30, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 18})
	sh := BuildSharded(c, 3, 2)
	opts := pattern.MatchOptions()
	for _, q := range planQueries(rng, c, 6, 4, 10) {
		want := sh.SearchCtx(context.Background(), q, opts)
		if got := sh.SearchPlan(context.Background(), q, opts, nil, PlanOptions{}); !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("nil plan diverged: %v vs %v", got.Matches, want.Matches)
		}
		pl := sh.CompilePlan(q, plan.Config{Force: plan.StrategyMonolithic})
		if got := sh.SearchPlan(context.Background(), q, opts, pl, PlanOptions{}); !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("monolithic plan diverged: %v vs %v", got.Matches, want.Matches)
		}
	}
}
