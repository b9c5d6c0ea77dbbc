package main

// Experiment P2: the query-plan compiler suite. Measures what compiling a
// visual query into a physical plan buys over the plain budgeted fan-out:
// the rarest-edge-first VF2 matching order (monolithic plan) against the
// matcher's per-target heuristic order, and the ANN-first plan against
// the ordered monolithic plan under a serving-style MaxResults budget.
// Queries are bucketed by edge count (the 4–16 range a visual interface
// realistically produces); each bucket reports p50/p99 per arm, and every
// planned answer is checked against the monolithic oracle (the complete
// answer, or its budget prefix) — "contract_violations" in
// BENCH_plan.json must be 0. The suite gates on correctness only; the
// latencies are reported, not asserted.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func init() {
	register("P2", "query plan compiler: rarest-edge ordering and ANN-first verification vs unordered VF2 (emits BENCH_plan.json)", runP2)
}

// planBudget is the MaxResults budget of the ANN arms — a result page.
const planBudget = 5

type planBucketReport struct {
	EdgesMin int `json:"edges_min"`
	EdgesMax int `json:"edges_max"`
	Queries  int `json:"queries"`

	// StrategyCounts is what the planner picks per query for a serving
	// deployment with ANN state and a planBudget result budget.
	StrategyCounts map[string]int `json:"strategy_counts"`

	// Unbudgeted: unordered VF2 fan-out vs the rarest-edge-first
	// monolithic plan. SpeedupOrderedP50 is mono_p50 / ordered_p50.
	MonoP50           float64 `json:"mono_p50_secs"`
	MonoP99           float64 `json:"mono_p99_secs"`
	OrderedP50        float64 `json:"ordered_p50_secs"`
	OrderedP99        float64 `json:"ordered_p99_secs"`
	SpeedupOrderedP50 float64 `json:"speedup_ordered_p50"`

	// Under the planBudget budget: the ordered monolithic plan vs the
	// ANN-first plan.
	BudgetOrderedP50 float64 `json:"budget_ordered_p50_secs"`
	BudgetOrderedP99 float64 `json:"budget_ordered_p99_secs"`
	BudgetANNP50     float64 `json:"budget_ann_p50_secs"`
	BudgetANNP99     float64 `json:"budget_ann_p99_secs"`
}

type planBenchReport struct {
	Full   bool  `json:"full"`
	Seed   int64 `json:"seed"`
	Corpus int   `json:"corpus_graphs"`
	Shards int   `json:"shards"`
	Budget int   `json:"budget"`

	// ContractViolations counts planned answers that differed from the
	// monolithic oracle. Must be zero; the suite is a correctness gate as
	// much as a benchmark.
	ContractViolations int `json:"contract_violations"`

	Buckets []planBucketReport `json:"buckets"`
}

// planBucket delimits one query-size class.
type planBucket struct{ lo, hi int }

func runP2(cfg runConfig, w *tabwriter.Writer) {
	corpusN, perBucket, reps := 400, 8, 10
	if cfg.full {
		corpusN, perBucket, reps = 1200, 12, 15
	}
	const k = 4
	report := planBenchReport{Full: cfg.full, Seed: cfg.seed, Corpus: corpusN, Shards: k, Budget: planBudget}

	// Ring-heavy compounds share aromatic motifs, so even large query
	// patterns stay label-common and the containment filter leaves real
	// verification work — the regime a planner exists for.
	corpus := datagen.ChemicalCorpus(cfg.seed, corpusN, datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30, RingBias: 0.85})
	sh := gindex.BuildShardedANN(corpus, k, 0, ann.NewConfig())
	rng := rand.New(rand.NewSource(cfg.seed + 7))

	opts := pattern.MatchOptions() // unbudgeted: full answers, exact equivalence
	bopts := opts
	bopts.MaxResults = planBudget
	ctx := context.Background()

	// Queries: connected subgraphs of corpus graphs (so they match at least
	// once), bucketed by the edge count they actually came out with.
	// Queries whose label-filter candidate set is trivial are excluded:
	// when the filter already answers the query, both arms measure fixed
	// overhead and no plan (or planner bug) could show up either way.
	const minCandidates = 8
	buckets := []planBucket{{4, 6}, {7, 9}, {10, 12}, {13, 16}}
	pools := make([][]*graph.Graph, len(buckets))
	for tries := 0; tries < 40000; tries++ {
		full := true
		for bi := range buckets {
			if len(pools[bi]) < perBucket {
				full = false
			}
		}
		if full {
			break
		}
		g := corpus.Graph(rng.Intn(corpus.Len()))
		q := datagen.RandomConnectedSubgraph(rng, g, 5+rng.Intn(9))
		if q == nil {
			continue
		}
		for bi, b := range buckets {
			if m := q.NumEdges(); m >= b.lo && m <= b.hi && len(pools[bi]) < perBucket {
				if sh.SearchCtx(ctx, q, opts).Candidates < minCandidates {
					break
				}
				pools[bi] = append(pools[bi], q)
			}
		}
	}
	autoCfg := plan.Config{ANN: true, MaxResults: planBudget}
	orderedCfg := plan.Config{Force: plan.StrategyMonolithic}
	annCfg := plan.Config{Force: plan.StrategyANN, ANN: true, MaxResults: planBudget}

	timeIt := func(f func()) float64 {
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}
	// One latency per (query, arm): the median across reps. Medians filter
	// scheduler/GC outliers that would otherwise own every tail percentile
	// at these microsecond scales; the bucket percentiles then rank
	// queries, so p99 is the cost of the hardest query, not the unluckiest
	// sample.
	med := func(lat []float64) float64 {
		sort.Float64s(lat)
		return percentile(lat, 0.50)
	}
	pcts := func(lat []float64) (p50, p99 float64) {
		sort.Float64s(lat)
		return percentile(lat, 0.50), percentile(lat, 0.99)
	}
	// arm times reps runs of search (after a GC, so one arm's allocation
	// debt is not billed to the next) and counts every answer that is not
	// want as a contract violation.
	arm := func(want []string, search func() gindex.Result) float64 {
		var lat []float64
		runtime.GC()
		for r := 0; r < reps; r++ {
			var got gindex.Result
			lat = append(lat, timeIt(func() { got = search() }))
			if !reflect.DeepEqual(got.Matches, want) {
				report.ContractViolations++
			}
		}
		return med(lat)
	}

	for bi, b := range buckets {
		pool := pools[bi]
		br := planBucketReport{EdgesMin: b.lo, EdgesMax: b.hi, Queries: len(pool),
			StrategyCounts: map[string]int{}}
		if len(pool) == 0 {
			report.Buckets = append(report.Buckets, br)
			continue
		}
		var mono, ordered, budOrdered, budANN []float64
		for _, q := range pool {
			br.StrategyCounts[string(sh.CompilePlan(q, autoCfg).Strategy)]++
			orderedPl := sh.CompilePlan(q, orderedCfg)
			annPl := sh.CompilePlan(q, annCfg)
			oracle := sh.SearchCtx(ctx, q, opts).Matches
			prefix := oracle
			if len(prefix) > planBudget {
				prefix = prefix[:planBudget]
			}
			mono = append(mono, arm(oracle, func() gindex.Result { return sh.SearchCtx(ctx, q, opts) }))
			ordered = append(ordered, arm(oracle, func() gindex.Result {
				return sh.SearchPlan(ctx, q, opts, orderedPl, gindex.PlanOptions{})
			}))
			budOrdered = append(budOrdered, arm(prefix, func() gindex.Result {
				return sh.SearchPlan(ctx, q, bopts, orderedPl, gindex.PlanOptions{})
			}))
			budANN = append(budANN, arm(prefix, func() gindex.Result {
				return sh.SearchPlan(ctx, q, bopts, annPl, gindex.PlanOptions{})
			}))
		}
		br.MonoP50, br.MonoP99 = pcts(mono)
		br.OrderedP50, br.OrderedP99 = pcts(ordered)
		br.BudgetOrderedP50, br.BudgetOrderedP99 = pcts(budOrdered)
		br.BudgetANNP50, br.BudgetANNP99 = pcts(budANN)
		if br.OrderedP50 > 0 {
			br.SpeedupOrderedP50 = br.MonoP50 / br.OrderedP50
		}
		report.Buckets = append(report.Buckets, br)
		fmt.Fprintf(w, "%d-%d edges (%d queries)\tunordered p50/p99 %.5f/%.5fs\tordered %.5f/%.5fs (%.2fx p50)\tbudget %d: ordered %.5f/%.5fs\tann %.5f/%.5fs\n",
			b.lo, b.hi, len(pool), br.MonoP50, br.MonoP99, br.OrderedP50, br.OrderedP99, br.SpeedupOrderedP50,
			planBudget, br.BudgetOrderedP50, br.BudgetOrderedP99, br.BudgetANNP50, br.BudgetANNP99)
	}
	fmt.Fprintf(w, "contract violations\t%d (must be 0)\n", report.ContractViolations)

	payload, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		if err := os.WriteFile("BENCH_plan.json", payload, 0o644); err != nil {
			fmt.Fprintf(w, "write BENCH_plan.json: %v\n", err)
		} else {
			fmt.Fprintln(w, "wrote BENCH_plan.json")
		}
	}
}
