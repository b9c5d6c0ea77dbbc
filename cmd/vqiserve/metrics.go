package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/qcache"
)

// HTTP-layer observability. Every route is wrapped by withMetrics, which
// maintains, in the server's private registry (s.obs, isolated from the
// process-wide obs.Default so tests see exact counts):
//
//	vqiserve_requests_total{route}          requests started
//	vqiserve_responses_total{route,class}   responses by status class (2xx/4xx/5xx)
//	vqiserve_request_seconds{route}         latency histogram (p50/p95/p99 in snapshots)
//	vqiserve_inflight_requests              gauge of requests currently executing
//
// Each request also gets its own obs trace (ID echoed in X-Trace-ID), so
// stage spans recorded by the pipeline packages under this request's
// context attach to it.
//
// GET /metrics serves the merged snapshot of s.obs and obs.Default (the
// library-side registry: gindex_*, isomorph_*, stage_seconds) as JSON, or
// in the Prometheus text format with ?format=prometheus. GET /debug/vars
// serves the same data as one flat expvar-style map. Cache traffic is
// exported at scrape time from the response cache's qcache counters as
// vqiserve_cache_* gauges, including the hit ratio.

// statusWriter captures the first status code a handler writes. An
// implicit 200 (body bytes before any WriteHeader) is recorded too; a
// handler that panics before writing anything leaves status 0, which the
// middleware accounts as the 500 that withRecover will send.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// withMetrics wraps one route with request accounting and a per-request
// trace. Metric handles are resolved once at wrap time (routes() runs
// once), so the per-request cost is a few atomic operations — and the
// families exist, at zero, from the moment the server is routable, which
// is what lets a scrape-before-traffic health check see them.
func (s *server) withMetrics(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.obs.Counter("vqiserve_requests_total", "route", route)
	secs := s.obs.Histogram("vqiserve_request_seconds", "route", route)
	inflight := s.obs.Gauge("vqiserve_inflight_requests")
	classes := map[int]*obs.Counter{
		2: s.obs.Counter("vqiserve_responses_total", "route", route, "class", "2xx"),
		4: s.obs.Counter("vqiserve_responses_total", "route", route, "class", "4xx"),
		5: s.obs.Counter("vqiserve_responses_total", "route", route, "class", "5xx"),
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		ctx, tr := obs.StartTrace(r.Context(), route)
		sw.Header().Set("X-Trace-ID", tr.ID)
		// The deferred accounting runs even when the handler panics (the
		// panic keeps unwinding to withRecover, which sends the 500 this
		// records), so histogram count always equals requests served.
		defer func() {
			inflight.Add(-1)
			secs.Observe(time.Since(start).Seconds())
			st := sw.status
			if st == 0 {
				st = http.StatusInternalServerError
			}
			cl, ok := classes[st/100]
			if !ok {
				cl = s.obs.Counter("vqiserve_responses_total",
					"route", route, "class", strconv.Itoa(st/100)+"xx")
			}
			cl.Inc()
		}()
		h(sw, r.WithContext(ctx))
	}
}

// refreshCacheMetrics mirrors the qcache traffic counters into gauges so
// scrapes see them without the caches having to push on every operation.
func (s *server) refreshCacheMetrics() {
	if s.qc != nil {
		s.exportCache("vqiserve_cache", s.qc.Metrics())
	}
}

func (s *server) exportCache(prefix string, m qcache.Metrics) {
	s.obs.Gauge(prefix + "_hits").Set(float64(m.Hits))
	s.obs.Gauge(prefix + "_misses").Set(float64(m.Misses))
	s.obs.Gauge(prefix + "_dedups").Set(float64(m.Dedups))
	s.obs.Gauge(prefix + "_evictions").Set(float64(m.Evictions))
	s.obs.Gauge(prefix + "_resets").Set(float64(m.Resets))
	s.obs.Gauge(prefix + "_entries").Set(float64(m.Len))
	// qcache.Metrics guards the zero-lookup 0/0 case itself, but a gauge
	// feeding JSON must never carry NaN/Inf regardless of the producer —
	// encoding/json refuses them, which would take down the whole /metrics
	// response. Belt and suspenders at the export boundary.
	ratio := m.HitRatio
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		ratio = 0
	}
	s.obs.Gauge(prefix + "_hit_ratio").Set(ratio)
}

// handleMetrics serves the merged metric state: JSON by default
// (application/json), Prometheus text exposition with ?format=prometheus
// (text/plain; version=0.0.4). Unknown format values are a 400, not a
// silent fallback — a scraper asking for a format it won't get should
// find out at configuration time.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "prometheus":
	default:
		writeErr(w, http.StatusBadRequest, "bad_format",
			fmt.Sprintf("format %q is not supported; use \"json\" or \"prometheus\"", format))
		return
	}
	s.refreshCacheMetrics()
	if format == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.obs.WritePrometheus(w)
		obs.Default.WritePrometheus(w)
		return
	}
	snap := s.obs.Snapshot()
	lib := obs.Default.Snapshot()
	snap.Counters = append(snap.Counters, lib.Counters...)
	snap.Gauges = append(snap.Gauges, lib.Gauges...)
	snap.Histograms = append(snap.Histograms, lib.Histograms...)
	writeJSON(w, http.StatusOK, snap)
}

// handleVars serves an expvar-style flat map of every metric — the same
// data as /metrics, keyed name{label="value"} for quick eyeballing.
func (s *server) handleVars(w http.ResponseWriter, _ *http.Request) {
	s.refreshCacheMetrics()
	vars := make(map[string]any)
	for _, snap := range []obs.Snapshot{s.obs.Snapshot(), obs.Default.Snapshot()} {
		for _, c := range snap.Counters {
			vars[varKey(c.Name, c.Labels)] = c.Value
		}
		for _, g := range snap.Gauges {
			vars[varKey(g.Name, g.Labels)] = g.Value
		}
		for _, h := range snap.Histograms {
			vars[varKey(h.Name, h.Labels)] = h
		}
	}
	writeJSON(w, http.StatusOK, vars)
}

// varKey renders name{k="v",...} with label keys sorted, matching the
// Prometheus sample identity.
func varKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// registerPprof mounts the standard pprof handlers. Opt-in via -pprof:
// profiles expose call stacks and timings, which an operator wants and an
// open endpoint shouldn't serve by default.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
