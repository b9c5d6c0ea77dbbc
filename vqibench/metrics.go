package main

// Metric definitions. BENCHMARK.json lists the same names and units; a
// test keeps the two in step.

type metricDef struct{ name, unit string }

// endToEnd is what every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what every workload reports with -trace 1; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"vqiserve.http_us", "us"},
	{"vqiserve.non2xx", "count"},
	{"vqiserve.query_p50_ms", "ms"},
	{"vqiserve.query_p99_ms", "ms"},
	{"vqiserve.suggest_p50_ms", "ms"},
	{"vqiserve.suggest_p99_ms", "ms"},
	{"vqiserve.similar_p50_ms", "ms"},
	{"vqiserve.similar_p99_ms", "ms"},
	{"vqiserve.update_p50_ms", "ms"},
	{"vqiserve.update_p90_ms", "ms"},
	{"canon.calls_per_query", "count"},
	{"canon.self_us", "us"},
	{"qcache.response.hit_ratio", "ratio"},
	{"qcache.shard.hit_ratio", "ratio"},
	{"qcache.plan.hit_ratio", "ratio"},
	{"qcache.view.hit_ratio", "ratio"},
	{"qcache.similar.hit_ratio", "ratio"},
	{"qcache.evictions_per_op", "count"},
	{"qcache.dedups", "count"},
	{"qcache.self_us", "us"},
	{"plan.compile_us", "us"},
	{"plan.decomposed_frac", "ratio"},
	{"plan.ann_frac", "ratio"},
	{"plan.fragment_probe_ms", "ms"},
	{"plan.join_ms", "ms"},
	{"plan.verify_ms", "ms"},
	{"plan.stitch_success_ratio", "ratio"},
	{"gindex.search_ms", "ms"},
	{"gindex.candidates_per_search", "count"},
	{"gindex.filter_precision", "ratio"},
	{"gindex.budget_stops", "count"},
	{"gindex.apply_batch_ms", "ms"},
	{"gindex.shards_rebuilt_per_update", "count"},
	{"gindex.build_ms", "ms"},
	{"gindex.restore_ms", "ms"},
	{"isomorph.search.searches_per_query", "count"},
	{"isomorph.search.steps_per_query", "count"},
	{"isomorph.facets.searches_per_query", "count"},
	{"isomorph.facets.steps_per_query", "count"},
	{"isomorph.truncated", "count"},
	{"results.facets_ms", "ms"},
	{"results.facet_checks_per_query", "count"},
	{"vqi.suggest_us", "us"},
	{"vqi.pattern_score", "score"},
	{"ann.embed_us", "us"},
	{"ann.shortlist_us", "us"},
	{"ann.shortlist_size", "count"},
	{"ann.probed", "count"},
	{"ann.rebuilds_per_update", "count"},
	{"ann.recall_at_10", "ratio"},
	{"store.append_ms", "ms"},
	{"store.fsyncs_per_update", "count"},
	{"store.wal_bytes_per_user_byte", "ratio"},
	{"store.open_ms", "ms"},
	{"catapult.total_s", "s"},
	{"catapult.cluster_ms", "ms"},
	{"catapult.csg_ms", "ms"},
	{"catapult.walk_ms", "ms"},
	{"catapult.select_ms", "ms"},
	{"tattoo.total_s", "s"},
	{"tattoo.truss_ms", "ms"},
	{"tattoo.sample_ms", "ms"},
	{"tattoo.greedy_ms", "ms"},
	{"midas.total_s", "s"},
	{"midas.assign_ms", "ms"},
	{"midas.gfd_ms", "ms"},
	{"midas.fct_ms", "ms"},
	{"midas.csg_ms", "ms"},
	{"midas.swap_ms", "ms"},
	{"self.vqiserve_us", "us"},
	{"self.canon_us", "us"},
	{"self.qcache_us", "us"},
	{"self.plan_us", "us"},
	{"self.gindex_us", "us"},
	{"self.results_us", "us"},
	{"self.vqi_us", "us"},
	{"self.ann_us", "us"},
	{"self.isomorph_us", "us"},
	{"self.store_us", "us"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.replayed_ops", "count"},
	{"trace.mismatches", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill renders vals over defs; names without a value read 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
