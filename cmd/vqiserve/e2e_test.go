package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catapult"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/vqi"
)

// End-to-end harness: the full serving stack — real TCP listener,
// background index build, readiness gate, both cache layers, metrics
// middleware — exercised over actual HTTP, with every behavioral claim
// cross-checked against the /metrics endpoint. The point is that the
// observability layer reports what the server actually did: request
// counts equal requests issued, cache hit ratios move exactly when
// repeats hit, and a batch update's rebuilt-shard count shows up both in
// the admin counters and in the shard-cache miss delta of the next query.

// e2eHarness is one booted server plus the client-side bookkeeping the
// assertions need.
type e2eHarness struct {
	t    *testing.T
	s    *server
	base string // http://127.0.0.1:port
}

// startE2E builds a corpus-mode server with k shards and boots it through
// the production serve path (real listener, background index build). The
// harness is torn down — context canceled, drain awaited — in t.Cleanup.
func startE2E(t *testing.T, k, cacheSize int) *e2eHarness {
	t.Helper()
	corpus := datagen.ChemicalCorpus(2, 24, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{shards: k, cacheSize: cacheSize})
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.serve(ctx, "127.0.0.1:0", 2*time.Second, started) }()
	var addr net.Addr
	select {
	case addr = <-started:
	case err := <-done:
		t.Fatalf("serve died before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never started listening")
	}
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve returned %v", err)
		}
	})
	h := &e2eHarness{t: t, s: s, base: "http://" + addr.String()}
	h.awaitReady()
	return h
}

func (h *e2eHarness) awaitReady() {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, _, _ := h.get("/readyz")
		if st == http.StatusOK {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.t.Fatal("server never became ready")
}

func (h *e2eHarness) get(path string) (int, []byte, http.Header) {
	h.t.Helper()
	resp, err := http.Get(h.base + path)
	if err != nil {
		h.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

func (h *e2eHarness) post(path, body string) (int, []byte) {
	h.t.Helper()
	resp, err := http.Post(h.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		h.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// scrape fetches /metrics and decodes the merged snapshot.
func (h *e2eHarness) scrape() obs.Snapshot {
	h.t.Helper()
	st, body, _ := h.get("/metrics")
	if st != http.StatusOK {
		h.t.Fatalf("/metrics status = %d (body %s)", st, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		h.t.Fatalf("/metrics not a snapshot: %v (body %s)", err, body)
	}
	return snap
}

func counterOf(t *testing.T, snap obs.Snapshot, name string, labels ...string) int64 {
	t.Helper()
	c, ok := snap.Find(name, labels...)
	if !ok {
		t.Fatalf("counter %s%v missing from scrape", name, labels)
	}
	return c.Value
}

func gaugeOf(t *testing.T, snap obs.Snapshot, name string, labels ...string) float64 {
	t.Helper()
	g, ok := snap.FindGauge(name, labels...)
	if !ok {
		t.Fatalf("gauge %s%v missing from scrape", name, labels)
	}
	return g.Value
}

// TestE2EServingMetrics drives build → query → repeat-query →
// /admin/update → query through the full stack and checks that every
// metrics delta matches the traffic it observed first-hand.
func TestE2EServingMetrics(t *testing.T) {
	const k = 4
	h := startE2E(t, k, 64)

	// Metric families exist (at zero) before any query traffic.
	base := h.scrape()
	if got := counterOf(t, base, "vqiserve_requests_total", "route", "/api/query"); got != 0 {
		t.Fatalf("pre-traffic query count = %d, want 0", got)
	}

	// Two identical queries: the first computes (one search per shard, one
	// response-cache miss), the second is a whole-response cache hit and
	// searches nothing.
	for i := 0; i < 2; i++ {
		st, body := h.post("/api/query", ccQuery)
		if st != http.StatusOK {
			t.Fatalf("query %d status = %d (body %s)", i, st, body)
		}
	}
	snap := h.scrape()
	if got := counterOf(t, snap, "vqiserve_requests_total", "route", "/api/query"); got != 2 {
		t.Fatalf("query requests = %d, want 2", got)
	}
	if got := counterOf(t, snap, "vqiserve_responses_total", "route", "/api/query", "class", "2xx"); got != 2 {
		t.Fatalf("query 2xx = %d, want 2", got)
	}
	hist, ok := snap.FindHistogram("vqiserve_request_seconds", "route", "/api/query")
	if !ok {
		t.Fatal("query latency histogram missing")
	}
	if hist.Count != 2 || hist.Sum <= 0 {
		t.Fatalf("latency histogram count=%d sum=%v, want count 2 and positive sum", hist.Count, hist.Sum)
	}
	if hist.P50 <= 0 || hist.P95 < hist.P50 || hist.P99 < hist.P95 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", hist.P50, hist.P95, hist.P99)
	}
	if hits := gaugeOf(t, snap, "vqiserve_cache_hits"); hits != 1 {
		t.Fatalf("response-cache hits = %v, want 1 (second identical query)", hits)
	}
	if ratio := gaugeOf(t, snap, "vqiserve_cache_hit_ratio"); ratio != 0.5 {
		t.Fatalf("response-cache hit ratio = %v, want 0.5 (1 hit / 2 lookups)", ratio)
	}
	searches := func(snap obs.Snapshot) int64 {
		return counterOf(t, snap, "gindex_searches_total") - counterOf(t, base, "gindex_searches_total")
	}
	if got := searches(snap); got != k {
		t.Fatalf("shard searches = %d, want %d (one per shard, once)", got, k)
	}

	// A batch update rebuilds only the shards owning touched graphs; the
	// admin counters must agree with the response's rebuilt list.
	add := `{"add":[{"name":"e2e-added","nodes":["C","C","O"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}]}`
	st, body := h.post("/admin/update", add)
	if st != http.StatusOK {
		t.Fatalf("update status = %d (body %s)", st, body)
	}
	var rep updateResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rebuilt) != 1 {
		t.Fatalf("one added graph must rebuild one shard, got %v", rep.Rebuilt)
	}
	snap = h.scrape()
	if got := counterOf(t, snap, "vqiserve_admin_updates_total"); got != 1 {
		t.Fatalf("admin updates = %d, want 1", got)
	}
	if got := counterOf(t, snap, "vqiserve_admin_shards_rebuilt_total"); got != int64(len(rep.Rebuilt)) {
		t.Fatalf("shards rebuilt counter = %d, want %d", got, len(rep.Rebuilt))
	}
	if got := counterOf(t, snap, "vqiserve_admin_graphs_added_total"); got != 1 {
		t.Fatalf("graphs added counter = %d, want 1", got)
	}

	// The same query again: the response cache misses once because the
	// epoch vector changed, so the query fans out across every shard
	// again. And the answer itself must include the graph the update
	// added.
	st, body = h.post("/api/query", ccQuery)
	if st != http.StatusOK {
		t.Fatalf("post-update query status = %d (body %s)", st, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range qr.Matched {
		found = found || name == "e2e-added"
	}
	if !found {
		t.Fatalf("post-update query missed the added graph: %v", qr.Matched)
	}
	snap = h.scrape()
	if got := searches(snap); got != 2*k {
		t.Fatalf("shard searches = %d, want %d (a second full fan-out)", got, 2*k)
	}
	if misses := gaugeOf(t, snap, "vqiserve_cache_misses"); misses != 2 {
		t.Fatalf("response-cache misses = %v, want 2 (initial + post-update epoch change)", misses)
	}

	// Library-side metrics (obs.Default) ride along in the same scrape.
	if _, ok := snap.Find("gindex_searches_total"); !ok {
		t.Fatal("library metric gindex_searches_total missing from merged scrape")
	}
}

// TestE2ETraceAndFormats checks the per-request trace header, the
// Prometheus exposition format, and the /debug/vars flat map.
func TestE2ETraceAndFormats(t *testing.T) {
	h := startE2E(t, 2, 16)

	st, _, hdr := h.get("/healthz")
	if st != http.StatusOK {
		t.Fatalf("healthz = %d", st)
	}
	if hdr.Get("X-Trace-ID") == "" {
		t.Fatal("response missing X-Trace-ID")
	}

	st, body, hdr := h.get("/metrics?format=prometheus")
	if st != http.StatusOK {
		t.Fatalf("prometheus scrape = %d", st)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE vqiserve_requests_total counter",
		"# TYPE vqiserve_request_seconds histogram",
		`vqiserve_request_seconds_bucket{route="/healthz",le="+Inf"}`,
		"# TYPE vqiserve_inflight_requests gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	st, body, _ = h.get("/debug/vars")
	if st != http.StatusOK {
		t.Fatalf("/debug/vars = %d", st)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars[`vqiserve_requests_total{route="/healthz"}`]; !ok {
		t.Fatalf("/debug/vars missing healthz request counter; keys: %v", varsKeys(vars))
	}

	// pprof stays off unless opted in.
	st, _, _ = h.get("/debug/pprof/")
	if st != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof = %d, want 404", st)
	}
}

func varsKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// TestPprofOptIn mounts the profile endpoints only when configured.
func TestPprofOptIn(t *testing.T) {
	s := adminServer(t, 2, 0)
	s.pprofEnabled = true
	hdl := s.routes()
	rec := httptest.NewRecorder()
	hdl.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index incomplete")
	}
	rec = httptest.NewRecorder()
	hdl.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/symbol", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/symbol = %d", rec.Code)
	}
}
