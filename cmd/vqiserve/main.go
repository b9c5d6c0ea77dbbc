// Command vqiserve serves a built VQI spec over HTTP with a minimal
// data-driven front end: every panel (attributes, patterns, query,
// results) is rendered from the spec JSON at runtime — nothing about the
// data source is hard-coded in the page, which is the whole point of the
// data-driven paradigm.
//
// Endpoints:
//
//	GET  /            the interface
//	GET  /healthz     liveness (200 as soon as the process serves)
//	GET  /readyz      readiness (200 only after the corpus index is built)
//	GET  /api/spec    the VQI spec JSON
//	POST /api/query   {"nodes":["C",...],"edges":[{"u":0,"v":1,"label":"s"}]}
//	                  → {"matched":[...names...],"embeddings":N,"truncated":false}
//	                  ?plan= selects the query planner per request: auto
//	                  (cost model, the default with -plan), off, or a forced
//	                  strategy (monolithic, ann); when the
//	                  parameter is present the response carries the compiled
//	                  plan summary and the request's stage timings
//	POST /api/suggest partial query → suggested pattern completions
//	POST /api/similar {"graph":"mol7","k":10,"mode":"approx","verify":true}
//	                  (or an inline nodes/edges pattern) → top-k most
//	                  similar corpus graphs by embedding cosine, via the
//	                  per-shard LSH index (-ann required); mode=exact runs
//	                  the full-scan oracle, verify re-ranks by exact VF2
//	                  containment
//	POST /admin/update {"add":[{"name":"g9","nodes":[...],"edges":[...]}],"remove":["g3"]}
//	                  batch corpus update; rebuilds only the index shards
//	                  owning touched graphs; cached answers and plans
//	                  retire by epoch key
//	GET  /metrics     counters, gauges and latency histograms (JSON;
//	                  ?format=prometheus for the text exposition format)
//	GET  /debug/vars  the same metrics as one flat expvar-style map
//	GET  /debug/pprof/ net/http/pprof profiles, only with -pprof
//
// The server is hardened for interactive use: every query runs under a
// per-request deadline (-query-timeout) threaded into the matcher, request
// bodies are capped (-max-body-bytes), handler panics become 500s without
// killing the process, errors use a consistent JSON envelope
// {"error":{"code","message"}} with real status codes (400 malformed, 413
// oversized body, 422 oversized query, 504 budget exhausted — with the
// partial results found so far marked "truncated"), and SIGINT/SIGTERM
// drain in-flight requests for up to -shutdown-grace before exiting 0.
//
// Example:
//
//	vqiserve -spec vqi.json -data corpus.lg -addr :8080 -query-timeout 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ann"
	"repro/internal/faultinject"
	"repro/internal/gindex"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/store"
	"repro/internal/vqi"
)

// Boot phases, reported by /readyz: the server accepts traffic only once
// the index is built (building) and every durable WAL record has been
// re-applied on top of it (replaying).
const (
	phaseBuilding int32 = iota
	phaseReplaying
	phaseReady
)

type server struct {
	spec *vqi.Spec
	// canned is the spec's canned panel decoded once at startup (the spec
	// never changes while serving); facets match against it. Nil when the
	// spec does not decode, which disables facets.
	canned  []*pattern.Pattern
	network bool
	workers int // worker pool size for per-graph query verification

	shards     int // filter-verify index shard count (0 = GOMAXPROCS)
	maxResults int // per-query cap on matching graphs (0 = unlimited)

	// annEnabled builds per-shard embedding vectors + LSH tables alongside
	// the filter-verify index and serves POST /api/similar; annCfg carries
	// the -ann-tables/-ann-bits/-ann-probes knobs.
	annEnabled bool
	annCfg     ann.Config

	queryTimeout time.Duration // per-request budget for /api/query and /api/suggest
	maxBodyBytes int64         // request body cap
	maxQuerySize int           // node+edge cap on posted query graphs

	inject *faultinject.Injector // nil in production; armed by fault-injection tests

	// obs is the server's private metrics registry: per-route request
	// counters, status classes, latency histograms, cache gauges. Kept
	// separate from obs.Default (the library-side registry) so tests
	// assert exact counts without cross-test pollution; /metrics serves
	// both merged.
	obs *obs.Registry

	// pprofEnabled mounts net/http/pprof under /debug/pprof/ (-pprof).
	pprofEnabled bool

	// qc caches whole query responses under an epoch-scoped key
	// (qcache.EpochKey over the canonical query code and every shard's
	// epoch), with single-flight de-duplication of concurrent identical
	// queries. nil when caching is disabled. Invalidation is by key: a
	// batch update bumps the rebuilt shards' epochs, so post-update
	// lookups use fresh keys and stale entries age out of the LRU. The
	// from-scratch build path (buildIndex) still Resets explicitly, since
	// a rebuilt index restarts its epochs.
	qc *qcache.Cache[cachedResponse]

	// simQC caches /api/similar responses, keyed by (request shape, full
	// shard-epoch vector) — similarity answers can depend on every shard,
	// so any rebuilt shard retires the entry. nil when caching is disabled.
	simQC *qcache.Cache[cachedSimilar]

	// planEnabled routes queries through the plan compiler by default
	// (-plan); ?plan= overrides per request either way.
	planEnabled bool

	// planQC caches compiled plans under qcache.PlanKey (canonical query
	// code + compile mode, scoped to the full epoch vector — plans bake in
	// corpus-wide label statistics, so any shard rebuild invalidates them).
	// nil when caching is disabled.
	planQC *qcache.Cache[*plan.Plan]

	// phase is the boot state machine (building → replaying → ready).
	// Query-shaped endpoints and /readyz gate on it; /healthz does not.
	phase atomic.Int32

	// st is the durable store (-data-dir); nil runs fully in-memory. When
	// set, /admin/update appends each batch to the WAL — and waits for it
	// to be durable under the configured fsync policy — before applying or
	// acknowledging it.
	st *store.Store
	// bootMeta/replay carry the recovered snapshot metadata and WAL suffix
	// from store.Open into buildIndex, which replays the suffix through
	// the normal apply path before declaring the server ready.
	bootMeta store.SnapshotMeta
	replay   []store.Batch
	// bootSections are the persisted per-shard index sections surfaced by
	// an -mmap recovery; buildIndex restores matching shards from them
	// instead of rebuilding from graphs.
	bootSections []store.IndexSection

	// updateMu serializes admin batch updates (read-copy-update writers);
	// queries never take it.
	updateMu sync.Mutex

	// mu guards the (corpus, index) snapshot pair. Both values are
	// immutable once installed — readers snapshot the pointers and then
	// work lock-free; admin updates install fresh pairs.
	mu     sync.RWMutex
	corpus *graph.Corpus
	index  *gindex.Sharded // sharded filter-verify index; set once buildIndex completes
}

// snapshot returns the current corpus/index pair. The returned values are
// immutable; a concurrent admin update installs new ones rather than
// mutating these.
func (s *server) snapshot() (*graph.Corpus, *gindex.Sharded) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.corpus, s.index
}

// cachedResponse is a completed query outcome: the response body plus the
// HTTP status it was served with.
type cachedResponse struct {
	resp   queryResponse
	status int
}

// serverConfig carries the serving knobs from flags (and tests).
type serverConfig struct {
	workers      int
	shards       int // index shard count (0 = GOMAXPROCS)
	maxResults   int // per-query match cap (0 = unlimited)
	queryTimeout time.Duration
	maxBodyBytes int64
	maxQuerySize int
	cacheSize    int  // query-cache capacity; 0 disables caching
	pprofEnabled bool // serve /debug/pprof/ (opt-in)
	planEnabled  bool // compile query plans by default (-plan)

	annEnabled bool       // build similarity state; serve /api/similar
	annCfg     ann.Config // LSH shape (zero fields = ann defaults)
}

func newServer(spec *vqi.Spec, corpus *graph.Corpus, cfg serverConfig) *server {
	if cfg.maxBodyBytes <= 0 {
		cfg.maxBodyBytes = 1 << 20
	}
	if cfg.maxQuerySize <= 0 {
		cfg.maxQuerySize = 256
	}
	s := &server{
		spec:         spec,
		corpus:       corpus,
		network:      corpus.Len() == 1,
		workers:      cfg.workers,
		shards:       cfg.shards,
		maxResults:   cfg.maxResults,
		queryTimeout: cfg.queryTimeout,
		maxBodyBytes: cfg.maxBodyBytes,
		maxQuerySize: cfg.maxQuerySize,
		obs:          obs.NewRegistry(),
		pprofEnabled: cfg.pprofEnabled,
		annEnabled:   cfg.annEnabled,
		annCfg:       cfg.annCfg,
		planEnabled:  cfg.planEnabled,
	}
	if panel, err := spec.AllPatterns(); err == nil {
		// Only canned patterns facet usefully; basics match almost everything.
		s.canned = panel[len(spec.Patterns.Basic):]
	}
	if cfg.cacheSize > 0 {
		s.qc = qcache.New[cachedResponse](cfg.cacheSize)
		s.simQC = qcache.New[cachedSimilar](cfg.cacheSize)
		s.planQC = qcache.New[*plan.Plan](cfg.cacheSize)
	}
	return s
}

// attachStore binds the durable store and recovery state. Called before
// serve/buildIndex; the recovered WAL suffix is replayed by buildIndex.
func (s *server) attachStore(st *store.Store, rec *store.Recovery) {
	s.st = st
	if rec != nil {
		s.bootMeta = rec.Meta
		s.replay = rec.Batches
		s.bootSections = rec.Sections
	}
}

// buildIndex builds the sharded filter-verify index (corpus mode),
// replays any recovered WAL suffix through the normal batch-apply path,
// and flips the readiness gate. It runs in the background so the listener
// is up — and /healthz green — while a large corpus indexes; /readyz
// reports "replaying" during the WAL phase. Installing a from-scratch
// index resets every cache: its epochs restart at zero (or at the
// snapshot's restored values), so key-based invalidation cannot
// distinguish it from the previous build.
func (s *server) buildIndex() {
	corpus, _ := s.snapshot()
	if !s.network {
		var idx *gindex.Sharded
		k := s.shards
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
		var annCfg *ann.Config
		if s.annEnabled {
			cfg := s.annCfg
			annCfg = &cfg
		}
		if len(s.bootSections) > 0 && s.bootMeta.Shards == k {
			// Persisted sections from an -mmap recovery: shards whose section
			// epoch matches the snapshot restore without decoding graphs.
			secs := make(map[int][]byte, len(s.bootSections))
			for _, sec := range s.bootSections {
				if sec.Shard < len(s.bootMeta.Epochs) && sec.Epoch == s.bootMeta.Epochs[sec.Shard] {
					secs[sec.Shard] = sec.Data
				}
			}
			var rr *gindex.RestoreReport
			idx, rr = gindex.RestoreSharded(corpus, k, s.workers, annCfg, secs)
			log.Printf("vqiserve: restored %d/%d shards from persisted index sections (%d rebuilt)",
				rr.Restored, idx.NumShards(), rr.Rebuilt)
		} else if s.annEnabled {
			idx = gindex.BuildShardedANN(corpus, s.shards, s.workers, s.annCfg)
		} else {
			idx = gindex.BuildSharded(corpus, s.shards, s.workers)
		}
		s.bootSections = nil
		if s.bootMeta.Shards == idx.NumShards() {
			// Same shard count as the snapshotted instance: carry its epochs
			// so this boot's epoch-keyed cache entries line up with where the
			// pre-crash instance left off.
			idx.RestoreEpochs(s.bootMeta.Epochs)
		}
		s.mu.Lock()
		s.index = idx
		s.mu.Unlock()
	}
	if len(s.replay) > 0 {
		s.phase.Store(phaseReplaying)
		log.Printf("vqiserve: replaying %d WAL batches (seq %d..%d)",
			len(s.replay), s.replay[0].Seq, s.replay[len(s.replay)-1].Seq)
		s.updateMu.Lock()
		for _, b := range s.replay {
			// Replayed records were validated and durably logged before the
			// crash, so they must apply cleanly; a failure here means the
			// directory does not match the serving configuration, and limping
			// on would serve a corpus that silently diverged from the log.
			if _, err := s.applyValidatedLocked(b.Added, b.Removed); err != nil {
				s.updateMu.Unlock()
				log.Fatalf("vqiserve: WAL replay seq %d: %v", b.Seq, err)
			}
		}
		s.updateMu.Unlock()
		s.replay = nil
	}
	if s.qc != nil {
		s.qc.Reset()
	}
	if s.simQC != nil {
		s.simQC.Reset()
	}
	if s.planQC != nil {
		s.planQC.Reset()
	}
	s.phase.Store(phaseReady)
	corpus, _ = s.snapshot()
	log.Printf("vqiserve: ready (%d data graphs)", corpus.Len())
}

// serve binds addr, starts the hardened http.Server, and blocks until the
// context is canceled (graceful drain, returns nil) or the server fails.
// Binding happens eagerly so an occupied address fails fast with a clear
// error instead of dying inside ListenAndServe; the resolved address
// (useful with ":0") is logged and sent to started if non-nil.
func (s *server) serve(ctx context.Context, addr string, grace time.Duration, started chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cannot listen on %s: %w", addr, err)
	}
	corpus, _ := s.snapshot()
	log.Printf("vqiserve: %d data graphs, %d canned patterns, listening on %s",
		corpus.Len(), len(s.spec.Patterns.Canned), ln.Addr())
	if started != nil {
		started <- ln.Addr()
	}
	srv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go s.buildIndex()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("vqiserve: shutdown requested; draining in-flight requests for up to %v", grace)
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
			return fmt.Errorf("drain deadline exceeded: %w", err)
		}
		log.Printf("vqiserve: drained cleanly")
		return nil
	}
}

func main() {
	var (
		specPath = flag.String("spec", "vqi.json", "VQI spec JSON file")
		dataPath = flag.String("data", "", "data source .lg file (required)")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size for query verification (0 = all CPUs)")
		shards   = flag.Int("shards", 0, "filter-verify index shard count (0 = all CPUs); batch updates posted to /admin/update rebuild only the touched shards")
		maxRes   = flag.Int("max-results", 0, "cap on matching graphs returned per query; the sharded search stops verifying once the cap is provably reached (0 = unlimited)")
		qTimeout = flag.Duration("query-timeout", 10*time.Second, "per-request budget for query/suggest; exhausted budgets return 504 with partial results (0 = unlimited)")
		grace    = flag.Duration("shutdown-grace", 5*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
		maxBody  = flag.Int64("max-body-bytes", 1<<20, "request body size cap (413 beyond it)")
		maxQuery = flag.Int("max-query-size", 256, "posted query node+edge cap (422 beyond it)")
		useCache = flag.Bool("cache", true, "cache query results by canonical query code (repeated and concurrent identical queries hit memory)")
		planOn   = flag.Bool("plan", true, "compile each query into a physical plan (rarest-edge-first matching order; with -ann and -max-results, broad queries verify their most embedding-similar candidates first); ?plan= overrides per request")
		cacheSz  = flag.Int("cache-size", 512, "maximum cached query results (LRU eviction)")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default; profiles expose internals)")
		dataDir  = flag.String("data-dir", "", "durable data directory (snapshots + write-ahead log); empty disables persistence. On a non-empty directory the corpus is recovered from it and -data is ignored; on an empty one -data seeds the initial snapshot")
		mmapBoot = flag.Bool("mmap", false, "boot by mapping the snapshot read-only instead of decoding it: cold start validates only the header + frame index + persisted index sections, graphs hydrate lazily on first touch, and shards whose section epoch matches skip their rebuild (requires -data-dir; both boot paths read snapshot format v2 only)")
		walSync  = flag.String("wal-sync", "always", "WAL fsync policy: always (fsync before acknowledging each /admin/update), none, or a duration like 100ms (background interval sync)")
		annOn    = flag.Bool("ann", false, "build per-shard LSH similarity tables and serve POST /api/similar (sub-linear approximate top-k with exact re-ranking)")
		annTabs  = flag.Int("ann-tables", 0, "LSH hash tables per shard (0 = default 12); more tables raise recall at linear memory cost")
		annBits  = flag.Int("ann-bits", 0, "LSH signature bits per table (0 = default 10); more bits shrink buckets, trading recall for shortlist size")
		annProbe = flag.Int("ann-probes", 0, "buckets probed per table per lookup (0 = default 2x bits); more probes raise recall at linear lookup cost")
	)
	flag.Parse()
	if *dataPath == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "vqiserve: -data is required (or -data-dir with recovered state)")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatalf("vqiserve: %v", err)
	}
	spec, err := vqi.Decode(raw)
	if err != nil {
		log.Fatalf("vqiserve: %v", err)
	}
	if err := spec.Validate(); err != nil {
		log.Fatalf("vqiserve: invalid spec: %v", err)
	}

	// Durable boot: mount the data directory first. A recovered corpus wins
	// over -data (the directory is the source of truth once it exists); an
	// empty directory is seeded from the -data .lg file.
	var (
		st     *store.Store
		rec    *store.Recovery
		corpus *graph.Corpus
	)
	if *dataDir != "" {
		policy, every, err := store.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("vqiserve: %v", err)
		}
		st, rec, err = store.Open(context.Background(), *dataDir, store.Options{Sync: policy, SyncEvery: every, Mmap: *mmapBoot})
		if err != nil {
			log.Fatalf("vqiserve: %v", err)
		}
		if rec.TailTruncated {
			log.Printf("vqiserve: truncated a torn WAL tail in %s", *dataDir)
		}
		if rec.SnapshotsSkipped > 0 {
			log.Printf("vqiserve: skipped %d corrupt snapshot(s) in %s", rec.SnapshotsSkipped, *dataDir)
		}
		corpus = rec.Corpus
		if corpus != nil {
			how := "decoded"
			if *mmapBoot {
				how = "read-backed lazy"
				if rec.Mapped {
					how = "mapped lazy"
				}
			}
			log.Printf("vqiserve: recovered %d graphs at seq %d (+%d WAL batches, %d index sections, %s) from %s",
				corpus.Len(), rec.Meta.Seq, len(rec.Batches), len(rec.Sections), how, *dataDir)
		}
	} else if *mmapBoot {
		log.Fatalf("vqiserve: -mmap requires -data-dir")
	}
	if corpus == nil {
		if *dataPath == "" {
			log.Fatalf("vqiserve: data directory %s is empty and no -data seed was given", *dataDir)
		}
		corpus, err = gio.LoadCorpus(*dataPath)
		if err != nil {
			log.Fatalf("vqiserve: %v", err)
		}
		if st != nil {
			// Seed the directory so the next boot recovers without the .lg.
			// Seed refuses a directory holding WAL records but no snapshot —
			// booting a fresh seed over orphaned records would silently
			// diverge across restarts.
			if err := st.Seed(corpus); err != nil {
				log.Fatalf("vqiserve: writing seed snapshot: %v", err)
			}
			log.Printf("vqiserve: seeded %s with %d graphs", *dataDir, corpus.Len())
		}
	}
	size := *cacheSz
	if !*useCache {
		size = 0
	}
	// Zero flag values resolve to the tuned ann defaults (unset -ann-probes
	// derives from the chosen -ann-bits); centering is always on — the
	// clustered embeddings need it.
	annCfg := ann.Config{Tables: *annTabs, Bits: *annBits, Probes: *annProbe, Center: true}
	s := newServer(spec, corpus, serverConfig{
		workers:      *workers,
		shards:       *shards,
		maxResults:   *maxRes,
		queryTimeout: *qTimeout,
		maxBodyBytes: *maxBody,
		maxQuerySize: *maxQuery,
		cacheSize:    size,
		pprofEnabled: *pprofOn,
		planEnabled:  *planOn,
		annEnabled:   *annOn,
		annCfg:       annCfg,
	})
	if st != nil {
		if s.network {
			log.Fatalf("vqiserve: -data-dir requires corpus mode; this data source is a single network")
		}
		s.attachStore(st, rec)
	}
	// SIGINT and SIGTERM drain identically. AfterFunc unregisters the
	// handler the moment the first signal lands, restoring the default
	// disposition — a second signal during the drain kills the process
	// instead of being swallowed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	err = s.serve(ctx, *addr, *grace, nil)
	if st != nil {
		// Flush and release the WAL after the drain so in-flight admin
		// updates finish their durable appends first.
		if cerr := st.Close(); cerr != nil {
			log.Printf("vqiserve: closing store: %v", cerr)
		}
	}
	if err != nil {
		log.Fatalf("vqiserve: %v", err)
	}
}
