package gindex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
)

// planQueries draws connected subgraph queries large enough to decompose
// (node sizes chosen so edge counts land in the 4..16 range).
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

// planConfigs returns one compile config per strategy worth testing.
func planConfigs(hasViews bool) []plan.Config {
	base := plan.Config{HasViewCache: hasViews}
	return []plan.Config{
		base, // cost model decides
		{Force: plan.StrategyMonolithic, HasViewCache: hasViews},
		{Force: plan.StrategyDecomposed, HasViewCache: hasViews},
		{Force: plan.StrategyANN, HasViewCache: hasViews},
	}
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

// TestSearchPlanMatchesOracle is the tentpole equivalence property: at
// every strategy (cost-chosen and forced), shard count, worker count,
// MaxResults budget, induced or plain semantics, and step budget, with and
// without a view cache, SearchPlan honours the Truncated contract against
// the monolithic K=1 Index oracle: its matches are always an ordered
// subset of the complete answer, and a non-truncated answer is exactly
// the complete answer's MaxResults prefix.
func TestSearchPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	truncated, complete := 0, 0
	for _, corpusN := range []int{3, 60} {
		c := datagen.ChemicalCorpus(int64(corpusN), corpusN, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24})
		mono := Build(c)
		queries := planQueries(rng, c, 10, 5, 14)
		for _, k := range []int{1, 3, 5} {
			for _, workers := range []int{1, 4} {
				sh := BuildShardedANN(c, k, workers, ann.NewConfig())
				for _, useViews := range []bool{false, true} {
					var views *qcache.Cache[ShardResult]
					if useViews {
						views = qcache.New[ShardResult](1024)
					}
					for oi, opts := range planOptionVariants() {
						full := opts
						full.MaxSteps = 0
						for qi, q := range queries {
							want := mono.Search(q, full)
							for ci, cfg := range planConfigs(useViews) {
								for _, max := range []int{0, 1, 5} {
									bopts := opts
									bopts.MaxResults = max
									ccfg := cfg
									ccfg.MaxResults = max
									ccfg.ANN = true
									pl := sh.CompilePlan(q, ccfg)
									got := sh.SearchPlan(context.Background(), q, bopts, pl, PlanOptions{Views: views})
									wantM := want.Matches
									if max > 0 && len(wantM) > max {
										wantM = wantM[:max]
									}
									where := func() string {
										return fmt.Sprintf("n=%d k=%d w=%d opts%d q%d cfg%d (%s) max=%d views=%v",
											corpusN, k, workers, oi, qi, ci, pl.Strategy, max, useViews)
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
						// Warm pass: repeat with a hot view cache, must not change answers.
						if useViews {
							for qi, q := range queries {
								want := mono.Search(q, opts)
								cfg := plan.Config{Force: plan.StrategyDecomposed, HasViewCache: true}
								pl := sh.CompilePlan(q, cfg)
								got := sh.SearchPlan(context.Background(), q, opts, pl, PlanOptions{Views: views})
								if !got.Truncated && !want.Truncated && !reflect.DeepEqual(got.Matches, want.Matches) {
									t.Fatalf("warm views opts%d q%d: %v vs %v", oi, qi, got.Matches, want.Matches)
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
}

// TestSearchPlanDecomposedExercised guards the test above against
// silently testing only monolithic plans: across the query pool, forced
// decomposition must actually run with >= 2 fragments at least once.
func TestSearchPlanDecomposedExercised(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	c := datagen.ChemicalCorpus(7, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	sh := BuildSharded(c, 3, 2)
	decomposed := 0
	for _, q := range planQueries(rng, c, 20, 9, 15) {
		pl := sh.CompilePlan(q, plan.Config{Force: plan.StrategyDecomposed})
		if pl.Strategy == plan.StrategyDecomposed && len(pl.Fragments) >= 2 {
			decomposed++
		}
	}
	if decomposed == 0 {
		t.Fatal("no query decomposed; the equivalence property is not exercising the join path")
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

// decomposablePlan finds a (query, plan) pair that truly decomposes, for
// the fault tests.
func decomposablePlan(t *testing.T, rng *rand.Rand, c *graph.Corpus, sh *Sharded) (*graph.Graph, *plan.Plan) {
	t.Helper()
	for _, q := range planQueries(rng, c, 40, 9, 16) {
		pl := sh.CompilePlan(q, plan.Config{Force: plan.StrategyDecomposed})
		if pl.Strategy == plan.StrategyDecomposed && len(pl.Fragments) >= 2 {
			return q, pl
		}
	}
	t.Fatal("no decomposable query found")
	return nil, nil
}

// TestPlanJoinFaultInjectionError: an error injected at the plan.join
// site degrades the affected shards to the monolithic path — the answer
// stays byte-identical and is not marked Truncated (the fallback ran to
// completion).
func TestPlanJoinFaultInjectionError(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	c := datagen.ChemicalCorpus(17, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	sh := BuildSharded(c, 4, 2)
	q, pl := decomposablePlan(t, rng, c, sh)
	opts := pattern.MatchOptions()
	want := sh.SearchCtx(context.Background(), q, opts)

	inj := faultinject.New(1, faultinject.Fault{
		Site: "plan.join",
		Err:  errors.New("injected join failure"),
	})
	got := sh.SearchPlan(context.Background(), q, opts, pl, PlanOptions{Inject: inj})
	if inj.Fired("plan.join") == 0 {
		t.Fatal("fault never fired; test is vacuous")
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("join error changed the answer: %v vs %v", got.Matches, want.Matches)
	}
	if got.Truncated {
		t.Fatal("completed monolithic fallback must not be Truncated")
	}
}

// TestPlanJoinFaultInjectionPanic: a panic at plan.join is recovered and
// degrades like an error — same answer, no crash.
func TestPlanJoinFaultInjectionPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	c := datagen.ChemicalCorpus(19, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	sh := BuildSharded(c, 3, 2)
	q, pl := decomposablePlan(t, rng, c, sh)
	opts := pattern.MatchOptions()
	want := sh.SearchCtx(context.Background(), q, opts)

	inj := faultinject.New(2, faultinject.Fault{
		Site:     "plan.join",
		PanicMsg: "injected join panic",
	})
	got := sh.SearchPlan(context.Background(), q, opts, pl, PlanOptions{Inject: inj})
	if inj.Fired("plan.join") == 0 {
		t.Fatal("fault never fired; test is vacuous")
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("join panic changed the answer: %v vs %v", got.Matches, want.Matches)
	}
	if got.Truncated {
		t.Fatal("recovered fallback must not be Truncated")
	}
}

// TestPlanJoinFaultInjectionDelay: a delay at plan.join under an already-
// tight deadline surfaces Truncated with a sound subset — never a wrong
// or fabricated match.
func TestPlanJoinFaultInjectionDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	c := datagen.ChemicalCorpus(23, 50, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 28})
	sh := BuildSharded(c, 3, 1)
	q, pl := decomposablePlan(t, rng, c, sh)
	opts := pattern.MatchOptions()
	want := sh.SearchCtx(context.Background(), q, opts)
	wantSet := map[string]bool{}
	for _, m := range want.Matches {
		wantSet[m] = true
	}

	inj := faultinject.New(3, faultinject.Fault{
		Site:  "plan.join",
		Delay: 50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	got := sh.SearchPlan(ctx, q, opts, pl, PlanOptions{Inject: inj})
	if !got.Truncated {
		t.Fatal("deadline blown inside the join must surface Truncated")
	}
	for _, m := range got.Matches {
		if !wantSet[m] {
			t.Fatalf("truncated result fabricated match %q", m)
		}
	}
}

// TestSearchPlanConcurrentCtx hammers the decomposed path (shared view
// cache, join buffers, result budgets) from many goroutines under -race,
// with some contexts canceled mid-flight. Complete runs must all agree
// with the oracle.
func TestSearchPlanConcurrentCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	c := datagen.ChemicalCorpus(29, 40, datagen.ChemicalOptions{MinNodes: 12, MaxNodes: 24})
	sh := BuildSharded(c, 4, 4)
	q, pl := decomposablePlan(t, rng, c, sh)
	opts := pattern.MatchOptions()
	want := sh.SearchCtx(context.Background(), q, opts)
	views := qcache.New[ShardResult](256)

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
			got := sh.SearchPlan(ctx, q, opts, pl, PlanOptions{Views: views})
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
