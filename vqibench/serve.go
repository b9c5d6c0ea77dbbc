package main

// The three serving workloads: boot the real vqiserve, drive its stream,
// check every answer, and (traced runs) break the time down by layer.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vqi"
)

// serveRun is everything one serving run measured.
type serveRun struct {
	boots     []time.Duration
	lr        *loadResult
	rss       float64
	cr        *checkResult
	extraOps  int // post-load requests (recall, durability) that were checked
	recall    float64
	reboot    time.Duration
	delta     metricDelta
	userBytes float64 // update body bytes sent
	layers    map[string]float64
}

type serveConfig struct {
	name     string
	bin, dir string
	seed     int64
	measure  time.Duration
	trace    bool
}

const (
	warmup = 1500 * time.Millisecond
	// serveBoots is how many times the server is booted; setup_s is the
	// median boot and the last boot serves the load.
	serveBoots = 7
	// replayBudget bounds the traced replay's wall time; the untraced
	// replay sends the same prefix of the stream.
	replayBudget = 3 * time.Second
)

func runServe(cfg serveConfig) (*serveRun, error) {
	logf("generating %s inputs for seed %d", cfg.name, cfg.seed)
	corpus := servingCorpus(cfg.seed)
	spec, err := servingSpec(cfg.seed, corpus)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(cfg.dir, "spec.json")
	raw, err := spec.Encode()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		return nil, err
	}
	var s *stream
	args := []string{"-spec", specPath, "-shards", fmt.Sprint(serveShards), "-cache-size", fmt.Sprint(serveCacheSize)}
	maxResults := 0
	prep := filepath.Join(cfg.dir, "prepared")
	switch cfg.name {
	case "browse", "compose":
		lg := filepath.Join(cfg.dir, "corpus.lg")
		if err := gio.SaveCorpus(lg, corpus); err != nil {
			return nil, err
		}
		args = append(args, "-data", lg)
		if cfg.name == "browse" {
			s = browseStream(cfg.seed, corpus)
		} else {
			s = composeStream(cfg.seed, corpus)
		}
	case "churn":
		if err := prepareDataDir(prep, corpus); err != nil {
			return nil, err
		}
		args = append(args, "-mmap", "-wal-sync", "always", "-ann", "-max-results", fmt.Sprint(churnMaxResults))
		maxResults = churnMaxResults
		s = churnStream(cfg.seed, corpus)
	}

	run := &serveRun{}
	var srv *serverProc
	bootArgs := func(i int) ([]string, error) {
		if cfg.name != "churn" {
			return args, nil
		}
		dd := filepath.Join(cfg.dir, fmt.Sprintf("data%d", i))
		if err := copyDir(prep, dd); err != nil {
			return nil, err
		}
		return append([]string{"-data-dir", dd}, args...), nil
	}
	var liveArgs []string
	for i := 0; i < serveBoots; i++ {
		a, err := bootArgs(i)
		if err != nil {
			return nil, err
		}
		p, err := startServer(cfg.bin, filepath.Join(cfg.dir, fmt.Sprintf("vqiserve%d.log", i)), a)
		if err != nil {
			return nil, err
		}
		run.boots = append(run.boots, p.ready)
		if i < serveBoots-1 {
			if err := p.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv, liveArgs = p, a
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	if cfg.trace {
		if run.delta.before, err = srv.metrics(); err != nil {
			return nil, err
		}
	}
	// One closed-loop VQI user per CPU.
	conns := runtime.NumCPU()
	logf("load: %d connections, %v warm-up, %v measured", conns, warmup, cfg.measure)
	run.lr = runLoad(srv.base, s, conns, warmup, cfg.measure)
	if run.lr.exhausted {
		logf("warning: the %s stream ran out before the clock", cfg.name)
	}
	if cfg.trace {
		if run.delta.after, err = srv.metrics(); err != nil {
			return nil, err
		}
	}
	run.rss = srv.peakRSSMB()

	batches := 0
	for _, r := range run.lr.recs {
		if o := s.ops[r.idx]; o.update >= 0 {
			batches++
			run.userBytes += float64(len(o.body))
		}
	}
	u, err := newUniverse(corpus, s, batches)
	if err != nil {
		return nil, err
	}
	o, err := newOracle(u, spec, maxResults)
	if err != nil {
		return nil, err
	}

	var post []postCheck
	if cfg.name == "churn" {
		post, run.recall, err = recallCheck(srv.base, o, cfg.seed, batches)
		if err != nil {
			return nil, err
		}
		// Crash: every acknowledged batch must survive a SIGKILL.
		srv.kill()
		srv = nil
		p, err := startServer(cfg.bin, filepath.Join(cfg.dir, "vqiserve-reboot.log"), liveArgs)
		if err != nil {
			return nil, err
		}
		srv, run.reboot = p, p.ready
		post = append(post, durabilityCheck(srv.base, u, batches)...)
	}
	if err := srv.stop(); err != nil {
		logf("warning: %v", err)
	}
	srv = nil

	logf("checking %d answers", len(run.lr.recs))
	run.cr = checkLoad(o, s, run.lr)
	for i, pc := range post {
		if pc.err != "" {
			run.cr.fail(-1-i, "%s", pc.err)
		}
	}
	run.extraOps = len(post)

	if cfg.trace {
		run.layers, err = traceLayers(cfg, run, s, spec, corpus, o, prep)
		if err != nil {
			return nil, err
		}
	}
	return run, nil
}

// prepareDataDir writes the durable deployment's starting point: a
// compacted snapshot of corpus with persisted index sections. Compaction
// only writes a snapshot past the seed's sequence number, so the seed
// holds all but the last graph and one logged batch appends it, which
// leaves the corpus order unchanged.
func prepareDataDir(dir string, corpus *graph.Corpus) error {
	cfg := serveANN()
	seed := graph.NewCorpus()
	for i := 0; i < corpus.Len()-1; i++ {
		seed.MustAdopt(corpus, i)
	}
	di, _, err := core.OpenDurableIndex(context.Background(), dir, seed,
		core.DurableIndexOptions{Shards: serveShards, ANN: &cfg, Store: store.Options{Sync: store.SyncAlways}})
	if err != nil {
		return err
	}
	if _, _, err := di.ApplyBatch([]*graph.Graph{corpus.Graph(corpus.Len() - 1)}, nil); err != nil {
		di.Close()
		return err
	}
	if _, err := di.Compact(); err != nil {
		di.Close()
		return err
	}
	return di.Close()
}

// copyDir copies the regular files of src (not the lock) into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "LOCK" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// postCheck is one checked request made after the timed phase.
type postCheck struct{ err string }

const recallProbes = 40

// recallCheck compares approximate with exact /api/similar on the
// quiesced final corpus. Both answers' scores must be exact cosines.
func recallCheck(base string, o *oracle, seed int64, state int) ([]postCheck, float64, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed + 51))
	var out []postCheck
	hits, total := 0, 0
	for i := 0; i < recallProbes; i++ {
		name := o.u.corpus.Name(rng.Intn(corpusGraphs))
		var answers [2]similarResp
		ok := true
		for m, mode := range []string{"exact", "approx"} {
			body := mustJSON(similarReq{Graph: name, K: churnSimilarK, Mode: mode})
			status, resp, err := post(client, base+"/api/similar", body)
			pc := postCheck{}
			switch {
			case err != nil:
				pc.err = "recall: " + err.Error()
			case status != http.StatusOK:
				pc.err = fmt.Sprintf("recall: %s status %d", mode, status)
			default:
				if err := json.Unmarshal(resp, &answers[m]); err != nil {
					pc.err = "recall: " + err.Error()
				} else if err := o.similarOK(name, min(churnSimilarK, o.u.size(state)), answers[m], state, state); err != nil {
					pc.err = fmt.Sprintf("recall %s: %v", mode, err)
				}
			}
			ok = ok && pc.err == ""
			out = append(out, pc)
		}
		if !ok {
			continue
		}
		exact := map[string]bool{}
		for _, m := range answers[0].Matches {
			exact[m.Name] = true
		}
		for _, m := range answers[1].Matches {
			if exact[m.Name] {
				hits++
			}
		}
		total += len(answers[0].Matches)
	}
	return out, ratio(float64(hits), float64(total)), nil
}

// durabilityCheck asks the rebooted server for every graph the
// acknowledged batches touched: each must be present exactly when the
// final state holds it.
func durabilityCheck(base string, u *universe, state int) []postCheck {
	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	var out []postCheck
	for p := corpusGraphs; p < u.corpus.Len(); p++ {
		name := u.corpus.Name(p)
		status, _, err := post(client, base+"/api/similar", mustJSON(similarReq{Graph: name, K: 1}))
		pc := postCheck{}
		want := http.StatusNotFound
		if u.live(p, state) {
			want = http.StatusOK
		}
		if err != nil {
			pc.err = "durability: " + err.Error()
		} else if status != want {
			pc.err = fmt.Sprintf("durability: %s answered %d after the reboot, want %d", name, status, want)
		}
		out = append(out, pc)
	}
	return out
}

// --- traced run -------------------------------------------------------

// traceLayers replays the load's stream in process, untraced then traced,
// checks the replay's answers against the server's, and derives the
// per-layer metrics from the trace and the server's counter deltas.
func traceLayers(cfg serveConfig, run *serveRun, s *stream, spec *vqi.Spec, corpus *graph.Corpus, o *oracle, prep string) (map[string]float64, error) {
	boot := func(tag string) (*replica, []obs.SpanRecord, error) {
		ctx, tr := obs.StartTrace(context.Background(), "boot")
		var r *replica
		var err error
		if cfg.name == "churn" {
			dd := filepath.Join(cfg.dir, "replay-"+tag)
			if err := copyDir(prep, dd); err != nil {
				return nil, nil, err
			}
			r, err = bootDurableReplica(ctx, spec, dd)
		} else {
			r, err = bootReplica(ctx, spec, corpus)
		}
		return r, tr.Spans(), err
	}

	// The traced replay takes the stream prefix that fits its budget; the
	// untraced replay then sends the same prefix.
	rt, bootSpans, err := boot("traced")
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(run.lr.recs))
	for i, r := range run.lr.recs {
		idxs[i] = r.idx
	}
	traced, err := replay(rt, s, idxs, true, replayBudget)
	if rt.st != nil {
		rt.st.Close()
	}
	if err != nil {
		return nil, err
	}
	idxs = idxs[:len(traced)]
	ru, _, err := boot("untraced")
	if err != nil {
		return nil, err
	}
	untraced, err := replay(ru, s, idxs, false, 0)
	if ru.st != nil {
		ru.st.Close()
	}
	if err != nil {
		return nil, err
	}

	L := map[string]float64{}
	st := aggregate(traced)
	c := rt.counts
	nq := float64(c.queries)

	// Replay integrity: the two replays agree, and their answers equal the
	// server's for the same stream. Under churn a read the server answered
	// while batches were in flight is checked against the oracle in the
	// replay's state instead.
	wins := windows(s, run.lr.recs)
	mismatches := 0
	state := 0
	var httpUs []float64
	for i, oi := range idxs {
		rec, w := run.lr.recs[i], wins[i]
		op := s.ops[oi]
		same := sameAnswer(op.kind, traced[i].body, untraced[i].body)
		if w.lo == state && w.hi == state {
			same = same && rec.ok() && sameAnswer(op.kind, traced[i].body, run.lr.bodies[rec.hash])
		} else {
			same = same && checkAnswer(o, op, traced[i].body, window{state, state}) == nil
		}
		if !same {
			mismatches++
			run.cr.fail(oi, "traced replay answer differs from the server's")
		}
		if op.update >= 0 {
			state++
		}
		httpUs = append(httpUs, us(rec.latency()-untraced[i].wall))
	}
	L["trace.mismatches"] = float64(mismatches)
	L["trace.replayed_ops"] = float64(len(idxs))
	L["trace.coverage"] = ratio(float64(st.covered), float64(st.wall))
	warnCoverage(L["trace.coverage"])
	var wallU time.Duration
	for _, u := range untraced {
		wallU += u.wall
	}
	L["trace.overhead_pct"] = 100 * (float64(st.wall) - float64(wallU)) / float64(wallU)
	for layer, d := range st.layer {
		L["self."+layer+"_us"] = us(d) / float64(len(idxs))
	}
	L["vqiserve.http_us"] = median(httpUs)

	perCall := func(name string) float64 { return ratio(float64(st.total[name]), float64(st.count[name])) }
	L["canon.calls_per_query"] = ratio(float64(st.count["canon.String"]), nq)
	L["canon.self_us"] = perCall("canon.String") / 1e3
	L["qcache.self_us"] = ratio(us(st.self["qcache.Do"]), float64(len(idxs)))
	L["plan.compile_us"] = perCall("plan.CompilePlan") / 1e3
	L["plan.decomposed_frac"] = ratio(float64(c.plans[1]), nq)
	L["plan.ann_frac"] = ratio(float64(c.plans[2]), nq)
	L["plan.fragment_probe_ms"] = ratio(ms(st.total["plan.fragment-probe"]), nq)
	L["plan.join_ms"] = ratio(ms(st.total["plan.join"]), nq)
	L["plan.verify_ms"] = ratio(ms(st.total["plan.verify"]), nq)
	L["gindex.search_ms"] = ratio(ms(st.total["gindex.SearchShardCtx"]+st.total["gindex.SearchPlan"]), nq)
	L["gindex.apply_batch_ms"] = perCall("gindex.ApplyBatch") / 1e6
	L["isomorph.search.searches_per_query"] = ratio(float64(c.searchIso.searches), nq)
	L["isomorph.search.steps_per_query"] = ratio(float64(c.searchIso.steps), nq)
	L["isomorph.facets.searches_per_query"] = ratio(float64(c.facetIso.searches), nq)
	L["isomorph.facets.steps_per_query"] = ratio(float64(c.facetIso.steps), nq)
	L["results.facets_ms"] = ratio(ms(st.total["results.Facets"]), nq)
	L["results.facet_checks_per_query"] = ratio(float64(c.facetChecks), nq)
	L["vqi.suggest_us"] = perCall("vqi.SuggestForSpec") / 1e3
	L["ann.embed_us"] = perCall("similar_embed") / 1e3
	L["ann.shortlist_us"] = perCall("similar_shortlist") / 1e3
	L["store.append_ms"] = perCall("store.Append") / 1e6
	for _, sp := range bootSpans {
		if sp.Name == "store.Open" {
			L["store.open_ms"] = ms(sp.Dur)
		}
	}
	// The similar cache is not exported on /metrics; the replica's is.
	L["qcache.similar.hit_ratio"] = ru.simQC.Metrics().HitRatio

	// Server counters over the timed load.
	d := run.delta
	L["qcache.response.hit_ratio"] = d.cacheHitRatio("cache")
	L["qcache.shard.hit_ratio"] = d.cacheHitRatio("shardcache")
	L["qcache.plan.hit_ratio"] = d.cacheHitRatio("plancache")
	L["qcache.view.hit_ratio"] = d.cacheHitRatio("viewcache")
	var evictions, dedups float64
	for _, p := range []string{"cache", "shardcache", "plancache", "viewcache"} {
		evictions += d.counter("vqiserve_" + p + "_evictions")
		dedups += d.counter("vqiserve_" + p + "_dedups")
	}
	L["qcache.evictions_per_op"] = ratio(evictions, float64(len(run.lr.recs)))
	L["qcache.dedups"] = dedups
	stitched := d.counter("gindex_plan_stitched_verifies_total")
	L["plan.stitch_success_ratio"] = ratio(stitched, stitched+d.counter("gindex_plan_graph_fallbacks_total"))
	cands := d.counter("gindex_filter_candidates_total")
	L["gindex.candidates_per_search"] = ratio(cands, d.counter("gindex_searches_total"))
	L["gindex.filter_precision"] = ratio(d.counter("gindex_matches_total"), cands)
	L["gindex.budget_stops"] = d.counter("gindex_budget_stops_total")
	batches := d.counter("gindex_batch_updates_total")
	L["gindex.shards_rebuilt_per_update"] = ratio(d.counter("gindex_shard_rebuilds_total"), batches)
	L["ann.rebuilds_per_update"] = ratio(d.counter("gindex_ann_shard_rebuilds_total"), batches)
	_, buildSum := histValue(d.before, "gindex_shard_build_seconds")
	L["gindex.build_ms"] = buildSum * 1e3
	_, restoreSum := histValue(d.before, "gindex_section_restore_seconds")
	L["gindex.restore_ms"] = restoreSum * 1e3
	L["isomorph.truncated"] = d.family("isomorph_truncated_total")
	n, sum := d.hist("gindex_similar_shortlist")
	L["ann.shortlist_size"] = ratio(sum, n)
	n, sum = d.hist("gindex_similar_probes")
	L["ann.probed"] = ratio(sum, n)
	L["store.fsyncs_per_update"] = ratio(d.counter("store_wal_fsyncs_total"), d.counter("store_wal_appends_total"))
	L["store.wal_bytes_per_user_byte"] = ratio(d.counter("store_wal_append_bytes_total"), run.userBytes)
	return L, nil
}

// sameAnswer compares two answer bodies by content, ignoring the update
// acknowledgement's wall-clock field.
func sameAnswer(kind opKind, a, b []byte) bool {
	decode := func(body []byte) (any, error) {
		switch kind {
		case opQuery:
			var v queryResp
			err := json.Unmarshal(body, &v)
			v.Facets = nilIfEmpty(v.Facets)
			return v, err
		case opSuggest:
			var v suggestResp
			return v, json.Unmarshal(body, &v)
		case opSimilar:
			var v similarResp
			return v, json.Unmarshal(body, &v)
		default:
			var v updateResp
			err := json.Unmarshal(body, &v)
			v.Millis = 0
			return v, err
		}
	}
	va, ea := decode(a)
	vb, eb := decode(b)
	return ea == nil && eb == nil && reflect.DeepEqual(va, vb)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vqibench: "+format+"\n", args...)
}
