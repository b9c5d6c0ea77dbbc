package main

// Experiment P2: the query-plan compiler suite. Measures what compiling a
// visual query into a physical plan buys over the monolithic budgeted
// fan-out: rarest-edge-first VF2 ordering, and — on large patterns —
// decomposition into sub-pattern fragments whose containment views are
// cached and joined, with exact VF2 verification of the joint survivors.
// Queries are bucketed by edge count (the 4–16 range a visual interface
// realistically produces); each bucket reports monolithic vs planned
// (cold- and warm-view) p50/p99, and every planned answer is checked for
// set-equality against the monolithic oracle — "contract_violations" in
// BENCH_plan.json must be 0. The headline number is the warm decomposed
// p99 speedup on the >=10-edge buckets (target >=2x).

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

	"repro/internal/datagen"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
)

func init() {
	register("P2", "query plan compiler: rarest-edge ordering + cached-view decomposition vs monolithic VF2 (emits BENCH_plan.json)", runP2)
}

type planBucketReport struct {
	EdgesMin int `json:"edges_min"`
	EdgesMax int `json:"edges_max"`
	Queries  int `json:"queries"`

	// StrategyCounts is what the cost model picked per query (auto mode).
	StrategyCounts map[string]int `json:"strategy_counts"`

	MonoP50     float64 `json:"mono_p50_secs"`
	MonoP99     float64 `json:"mono_p99_secs"`
	PlanColdP50 float64 `json:"plan_cold_p50_secs"`
	PlanColdP99 float64 `json:"plan_cold_p99_secs"`
	PlanWarmP50 float64 `json:"plan_warm_p50_secs"`
	PlanWarmP99 float64 `json:"plan_warm_p99_secs"`

	// SpeedupWarmP99 is mono_p99 / plan_warm_p99 (>1 means the plan wins).
	SpeedupWarmP99 float64 `json:"speedup_warm_p99"`
}

type planBenchReport struct {
	Full   bool  `json:"full"`
	Seed   int64 `json:"seed"`
	Corpus int   `json:"corpus_graphs"`
	Shards int   `json:"shards"`

	// ContractViolations counts planned answers that differed from the
	// monolithic oracle. Must be zero; the suite is a correctness gate as
	// much as a benchmark.
	ContractViolations int `json:"contract_violations"`

	Buckets []planBucketReport `json:"buckets"`

	// HeadlineSpeedupP99 is the smallest warm-view p99 speedup across the
	// >=10-edge buckets — the acceptance number (target >=2).
	HeadlineSpeedupP99 float64 `json:"headline_speedup_p99"`
}

// planBucket delimits one query-size class.
type planBucket struct{ lo, hi int }

func runP2(cfg runConfig, w *tabwriter.Writer) {
	corpusN, perBucket, coldReps, warmReps := 400, 8, 2, 10
	if cfg.full {
		corpusN, perBucket, coldReps, warmReps = 1200, 12, 3, 15
	}
	const k = 4
	report := planBenchReport{Full: cfg.full, Seed: cfg.seed, Corpus: corpusN, Shards: k}

	// Ring-heavy compounds share aromatic motifs, so even large query
	// patterns stay label-common and the containment filter leaves real
	// verification work — the regime a planner exists for.
	corpus := datagen.ChemicalCorpus(cfg.seed, corpusN, datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30, RingBias: 0.85})
	sh := gindex.BuildSharded(corpus, k, 0)
	rng := rand.New(rand.NewSource(cfg.seed + 7))

	opts := pattern.MatchOptions() // unbudgeted: full answers, exact equivalence
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
	autoCfg := pattern.PlanConfig()
	autoCfg.HasViewCache = true
	forcedCfg := autoCfg
	forcedCfg.Force = plan.StrategyDecomposed

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

	report.HeadlineSpeedupP99 = -1
	for bi, b := range buckets {
		pool := pools[bi]
		br := planBucketReport{EdgesMin: b.lo, EdgesMax: b.hi, Queries: len(pool),
			StrategyCounts: map[string]int{}}
		if len(pool) == 0 {
			report.Buckets = append(report.Buckets, br)
			continue
		}
		// The planned arm forces decomposition on the big buckets (the
		// feature under test); smaller patterns run whatever the cost model
		// picks, which is what serving would do.
		armCfg := autoCfg
		if b.lo >= 10 {
			armCfg = forcedCfg
		}
		var monoLat, coldLat, warmLat []float64
		for _, q := range pool {
			pl := sh.CompilePlan(q, autoCfg)
			br.StrategyCounts[string(pl.Strategy)]++
			armPl := sh.CompilePlan(q, armCfg)

			// Arms run as separate loops with a GC between them so one arm's
			// allocation debt is not billed to the next, and mono gets the
			// same rep count as warm (medians compare like for like).
			var oracle, planned gindex.Result
			var qMono, qCold, qWarm []float64
			runtime.GC()
			for r := 0; r < warmReps; r++ {
				qMono = append(qMono, timeIt(func() { oracle = sh.SearchCtx(ctx, q, opts) }))
			}
			for r := 0; r < coldReps; r++ {
				// Cold: a fresh view cache per rep — every fragment view is
				// computed on this query's dime.
				views := qcache.New[gindex.ShardResult](256)
				qCold = append(qCold, timeIt(func() {
					planned = sh.SearchPlan(ctx, q, opts, armPl, gindex.PlanOptions{Views: views})
				}))
				if !reflect.DeepEqual(planned.Matches, oracle.Matches) {
					report.ContractViolations++
				}
			}
			// Warm: one shared cache, pre-populated by a throwaway run.
			views := qcache.New[gindex.ShardResult](1024)
			sh.SearchPlan(ctx, q, opts, armPl, gindex.PlanOptions{Views: views})
			runtime.GC()
			for r := 0; r < warmReps; r++ {
				qWarm = append(qWarm, timeIt(func() {
					planned = sh.SearchPlan(ctx, q, opts, armPl, gindex.PlanOptions{Views: views})
				}))
				if !reflect.DeepEqual(planned.Matches, oracle.Matches) {
					report.ContractViolations++
				}
			}
			monoLat = append(monoLat, med(qMono))
			coldLat = append(coldLat, med(qCold))
			warmLat = append(warmLat, med(qWarm))
		}
		br.MonoP50, br.MonoP99 = pcts(monoLat)
		br.PlanColdP50, br.PlanColdP99 = pcts(coldLat)
		br.PlanWarmP50, br.PlanWarmP99 = pcts(warmLat)
		if br.PlanWarmP99 > 0 {
			br.SpeedupWarmP99 = br.MonoP99 / br.PlanWarmP99
		}
		if b.lo >= 10 && (report.HeadlineSpeedupP99 < 0 || br.SpeedupWarmP99 < report.HeadlineSpeedupP99) {
			report.HeadlineSpeedupP99 = br.SpeedupWarmP99
		}
		report.Buckets = append(report.Buckets, br)
		fmt.Fprintf(w, "%d-%d edges (%d queries)\tmono p50/p99 %.5f/%.5fs\tplan cold %.5f/%.5fs\twarm %.5f/%.5fs\twarm p99 speedup %.1fx\n",
			b.lo, b.hi, len(pool), br.MonoP50, br.MonoP99,
			br.PlanColdP50, br.PlanColdP99, br.PlanWarmP50, br.PlanWarmP99, br.SpeedupWarmP99)
	}
	fmt.Fprintf(w, "contract violations\t%d (must be 0)\n", report.ContractViolations)
	fmt.Fprintf(w, "headline >=10-edge warm p99 speedup\t%.1fx (target >=2x)\n", report.HeadlineSpeedupP99)

	payload, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		if err := os.WriteFile("BENCH_plan.json", payload, 0o644); err != nil {
			fmt.Fprintf(w, "write BENCH_plan.json: %v\n", err)
		} else {
			fmt.Fprintln(w, "wrote BENCH_plan.json")
		}
	}
}
