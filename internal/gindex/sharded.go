package gindex

// Sharded partitions the filter-verify index across K shards so that
// (a) a corpus change touches only the shards that hold changed graphs,
// and each touched shard is derived from its previous state rather than
// rebuilt: survivors' index bits, embeddings and LSH projections carry
// over and only the batch's graphs are read (batch-update cost scales
// with the batch and the touched shards' index words, not with the
// graphs they hold — the MIDAS maintenance story applied to the query
// index), and (b) queries fan out across shards in parallel under a
// shared result budget, stopping shards early once the budget provably
// cannot admit anything they still hold.
//
// Contract:
//
//   - Partitioning is a deterministic hash of the graph name (ShardOf), so
//     the same corpus always shards the same way at a given K.
//   - Results are merged in global corpus order, and Search returns exactly
//     the same match set and order as the monolithic Index built over the
//     same corpus — including under an opts.MaxResults budget, where both
//     return the first MaxResults matches in corpus order. Index is the
//     K=1 oracle; the property tests assert the equivalence.
//   - ApplyBatch is copy-on-write: it returns a new Sharded sharing the
//     untouched shards' cores with the old one, derives new cores for the
//     touched shards, and bumps the epochs of the touched shards only. A
//     derived core is byte-identical (EncodeSections) to a from-scratch
//     build over the same sub-corpus. The old value stays fully usable,
//     which is what lets a serving layer swap indexes under concurrent
//     queries without locking readers.
//   - Epochs are the cache-invalidation currency: a serving layer keys
//     whole answers and plans by the full epoch vector (qcache.EpochKey,
//     qcache.PlanKey), so an update retires exactly the entries computed
//     before it, with no Reset.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ann"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Build/rebuild observability: per-shard build and derivation wall time
// feed histograms so batch-update latency is visible per shard, and the
// counters separate from-scratch builds from the shards ApplyBatch
// derives (the "rebuild" names predate derivation). The ann counters
// mirror the pair for the per-shard LSH tables — the touched-shards-only
// property is asserted against them.
var (
	obsShardBuilds      = obs.Default.Counter("gindex_shard_builds_total")
	obsShardRebuilds    = obs.Default.Counter("gindex_shard_rebuilds_total")
	obsBatchUpdates     = obs.Default.Counter("gindex_batch_updates_total")
	obsShardBuildSecs   = obs.Default.Histogram("gindex_shard_build_seconds")
	obsShardRebuildSec  = obs.Default.Histogram("gindex_shard_rebuild_seconds")
	obsANNShardBuilds   = obs.Default.Counter("gindex_ann_shard_builds_total")
	obsANNShardRebuilds = obs.Default.Counter("gindex_ann_shard_rebuilds_total")
)

// ShardOf returns the shard owning the graph with the given name, in
// [0, k). The FNV-1a hash is stable across processes, so a corpus shards
// identically wherever it is loaded.
func ShardOf(name string, k int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(k))
}

// shardCore is the immutable per-shard state: the shard's sub-corpus and
// the monolithic Index over it. ApplyBatch shares cores of untouched
// shards between generations and derives touched shards' cores from their
// previous ones; everything position-dependent (global positions, epochs)
// lives on Sharded itself because removals anywhere in the corpus
// renumber every shard's graphs.
type shardCore struct {
	sub *graph.Corpus
	idx *Index

	// Similarity state, present only on ANN-enabled indexes
	// (BuildShardedANN): the shard's embedding vectors by local position and
	// the LSH index over them. Derived together with idx, so a shared core
	// always has mutually consistent exact and approximate views.
	vecs [][]float32
	ann  *ann.Index
}

// Sharded is a K-way sharded filter-verify index over a corpus snapshot.
// It is immutable: Search never mutates it, and ApplyBatch returns a new
// value. Safe for unsynchronized concurrent reads.
type Sharded struct {
	k       int
	workers int
	shards  []*shardCore
	globals [][]int // shard -> local position -> global corpus position (ascending)
	epochs  []uint64
	order   []string       // graph names in global corpus order
	pos     map[string]int // name -> global position

	// Similarity configuration, nil/absent on plain BuildSharded indexes.
	// annCfg is shared (never mutated) across generations so derived shards
	// hash with the identical hyperplane family.
	annCfg *ann.Config
	emb    *ann.Embedder

	// stats caches this generation's aggregated corpus label statistics
	// (PlanStats). Lazily filled; never shared across generations because
	// ApplyBatch allocates a fresh Sharded.
	stats atomic.Pointer[planStats]
}

// emptyCore returns the state of an empty shard, which every from-scratch
// shard build derives from. Its LSH index holds the hyperplane family, so
// all cores derived from one empty core share the planes.
func (sh *Sharded) emptyCore() *shardCore {
	core := &shardCore{sub: graph.NewCorpus(), idx: new(Index)}
	if sh.annCfg != nil {
		cfg := *sh.annCfg
		cfg.Workers = 1 // every call site already fans out one core per worker
		core.ann = ann.New(sh.emb.Dim(), cfg)
	}
	return core
}

// deriveCore returns the state of a shard whose sub-corpus sub holds
// prev's graphs at local positions keep (ascending) followed by new
// graphs: the filter-verify index, plus — on ANN-enabled values — the
// embedding vectors and LSH table. Survivors' index bits, vectors and
// plane projections carry over; only the new graphs are hydrated and
// embedded. Runs single-threaded because every call site already fans out
// one core per worker.
func (sh *Sharded) deriveCore(prev *shardCore, sub *graph.Corpus, keep []int) *shardCore {
	core := &shardCore{sub: sub, idx: prev.idx.derive(sub, keep)}
	if sh.annCfg != nil {
		core.vecs = make([][]float32, sub.Len())
		for i, old := range keep {
			core.vecs[i] = prev.vecs[old]
		}
		for i := len(keep); i < sub.Len(); i++ {
			core.vecs[i] = sh.emb.Embed(sub.Graph(i))
		}
		core.ann = prev.ann.Derive(core.vecs, keep)
	}
	return core
}

// ANNEnabled reports whether this index carries per-shard embedding
// vectors and LSH tables (built by BuildShardedANN).
func (sh *Sharded) ANNEnabled() bool { return sh.annCfg != nil }

// ANNConfig returns the similarity configuration (defaults resolved), or
// the zero Config when ANN is disabled.
func (sh *Sharded) ANNConfig() ann.Config {
	if sh.annCfg == nil {
		return ann.Config{}
	}
	return *sh.annCfg
}

// BuildSharded partitions c into k shards by ShardOf and builds the
// per-shard indexes in parallel on a bounded pool (workers <= 0 =
// GOMAXPROCS). k <= 0 also defaults to GOMAXPROCS. The corpus graphs are
// held by reference; treat them as immutable afterwards.
func BuildSharded(c *graph.Corpus, k, workers int) *Sharded {
	return buildSharded(c, k, workers, nil)
}

// BuildShardedANN is BuildSharded plus per-shard similarity state: every
// shard also embeds its graphs (ann.Embedder) and builds an LSH index over
// the vectors with the given configuration. All shards share one
// hyperplane family (cfg.Seed), so a shard derived by ApplyBatch hashes
// exactly as it would in a from-scratch build.
func BuildShardedANN(c *graph.Corpus, k, workers int, cfg ann.Config) *Sharded {
	return buildSharded(c, k, workers, &cfg)
}

func buildSharded(c *graph.Corpus, k, workers int, annCfg *ann.Config) *Sharded {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	sh := &Sharded{
		k:       k,
		workers: workers,
		shards:  make([]*shardCore, k),
		globals: make([][]int, k),
		epochs:  make([]uint64, k),
		order:   make([]string, 0, c.Len()),
		pos:     make(map[string]int, c.Len()),
	}
	if annCfg != nil {
		cfg := annCfg.Resolved()
		cfg.Workers = 0 // per-core build parallelism is set at the build site
		sh.annCfg = &cfg
		sh.emb = ann.NewEmbedder()
	}
	subs := make([]*graph.Corpus, k)
	for s := range subs {
		subs[s] = graph.NewCorpus()
	}
	// Partitioning goes by name only (Adopt shares hydration state), so a
	// lazy mmap-backed corpus is not forced resident just to be sharded —
	// the eager decode cost is paid by Build below, or skipped entirely
	// when the caller restores shard indexes from persisted sections.
	c.EachName(func(gi int, name string) {
		s := ShardOf(name, k)
		subs[s].MustAdopt(c, gi)
		sh.globals[s] = append(sh.globals[s], gi)
		sh.pos[name] = gi
		sh.order = append(sh.order, name)
	})
	empty := sh.emptyCore()
	par.ForEachN(k, workers, func(s int) {
		t0 := time.Now()
		sh.shards[s] = sh.deriveCore(empty, subs[s], nil)
		if obs.On() {
			obsShardBuilds.Inc()
			obsShardBuildSecs.Observe(time.Since(t0).Seconds())
			if sh.annCfg != nil {
				obsANNShardBuilds.Inc()
			}
		}
	})
	return sh
}

// NumShards returns K.
func (sh *Sharded) NumShards() int { return sh.k }

// Len returns the number of indexed graphs.
func (sh *Sharded) Len() int { return len(sh.order) }

// Epoch returns shard s's epoch: it starts at 0 and is bumped every time
// an ApplyBatch batch touches the shard. Equal epochs at equal K mean the
// shard's contents are unchanged.
func (sh *Sharded) Epoch(s int) uint64 { return sh.epochs[s] }

// Epochs returns a copy of all per-shard epochs, indexed by shard.
func (sh *Sharded) Epochs() []uint64 {
	out := make([]uint64, len(sh.epochs))
	copy(out, sh.epochs)
	return out
}

// UpdateReport describes one incremental ApplyBatch.
type UpdateReport struct {
	Added, Removed int
	Shards         int   // K
	Rebuilt        []int // ids of the touched shards (epoch bumped, core derived), ascending
}

// ValidateBatch checks a batch against this index without applying it:
// every removed name must be indexed and appear once, every added graph
// must be non-nil, unique within the batch, and not already indexed
// (unless the same batch removes it first). Serving layers that log
// batches durably before applying them call this first — a batch that
// passes here is guaranteed to apply cleanly, so a logged record can
// always be replayed.
func (sh *Sharded) ValidateBatch(added []*graph.Graph, removedNames []string) error {
	_, _, err := sh.validateBatch(added, removedNames)
	return err
}

func (sh *Sharded) validateBatch(added []*graph.Graph, removedNames []string) (removedSet, addedSet map[string]bool, err error) {
	removedSet = make(map[string]bool, len(removedNames))
	for _, name := range removedNames {
		if _, ok := sh.pos[name]; !ok {
			return nil, nil, fmt.Errorf("gindex: ApplyBatch: removed graph %q not indexed", name)
		}
		if removedSet[name] {
			return nil, nil, fmt.Errorf("gindex: ApplyBatch: graph %q removed twice", name)
		}
		removedSet[name] = true
	}
	addedSet = make(map[string]bool, len(added))
	for _, g := range added {
		if g == nil {
			return nil, nil, fmt.Errorf("gindex: ApplyBatch: nil added graph")
		}
		name := g.Name()
		if _, exists := sh.pos[name]; exists && !removedSet[name] {
			return nil, nil, fmt.Errorf("gindex: ApplyBatch: added graph %q already indexed", name)
		}
		if addedSet[name] {
			return nil, nil, fmt.Errorf("gindex: ApplyBatch: graph %q added twice", name)
		}
		addedSet[name] = true
	}
	return removedSet, addedSet, nil
}

// RestoreEpochs overwrites the per-shard epochs with values recovered
// from a persisted snapshot, so that an index rebuilt from durable state
// reports the same epochs as the never-restarted instance whose state was
// snapshotted. len(epochs) must equal NumShards; extra or missing values
// are ignored rather than guessed at. Called once, right after a build,
// before the index is published.
func (sh *Sharded) RestoreEpochs(epochs []uint64) {
	if len(epochs) != sh.k {
		return
	}
	copy(sh.epochs, epochs)
}

// ApplyBatch applies a batch update — removals first, then additions, the
// MIDAS batch shape — and returns a new Sharded. Only the shards owning a
// removed or added graph change: each gets a core derived from its
// previous one (deriveCore), which drops the removed graphs' bits and
// reads only the added graphs, so survivors are never hydrated or
// re-embedded. Every other shard's core is shared with the receiver, and
// only touched shards' epochs are bumped. The receiver is left untouched
// and remains a valid index over the pre-batch corpus.
func (sh *Sharded) ApplyBatch(added []*graph.Graph, removedNames []string) (*Sharded, *UpdateReport, error) {
	removedSet, addedSet, err := sh.validateBatch(added, removedNames)
	if err != nil {
		return nil, nil, err
	}

	touched := make(map[int]bool)
	for name := range removedSet {
		touched[ShardOf(name, sh.k)] = true
	}
	for name := range addedSet {
		touched[ShardOf(name, sh.k)] = true
	}

	next := &Sharded{
		k:       sh.k,
		workers: sh.workers,
		shards:  make([]*shardCore, sh.k),
		globals: make([][]int, sh.k),
		epochs:  make([]uint64, sh.k),
		order:   make([]string, 0, len(sh.order)-len(removedSet)+len(added)),
		pos:     make(map[string]int, len(sh.order)-len(removedSet)+len(added)),
		annCfg:  sh.annCfg,
		emb:     sh.emb,
	}
	copy(next.epochs, sh.epochs)

	// New global order: corpus semantics — removals preserve relative
	// order, additions append in batch order.
	for _, name := range sh.order {
		if !removedSet[name] {
			next.order = append(next.order, name)
		}
	}
	for _, g := range added {
		next.order = append(next.order, g.Name())
	}
	for gi, name := range next.order {
		next.pos[name] = gi
		s := ShardOf(name, sh.k)
		next.globals[s] = append(next.globals[s], gi)
	}

	// Untouched shards share their core; touched shards get a new
	// sub-corpus (old members minus removals, plus this shard's additions
	// in batch order) and a core derived from the old one, in parallel.
	var rebuilt []int
	subs := make([]*graph.Corpus, sh.k)
	keeps := make([][]int, sh.k)
	for s := 0; s < sh.k; s++ {
		if !touched[s] {
			next.shards[s] = sh.shards[s]
			continue
		}
		rebuilt = append(rebuilt, s)
		next.epochs[s] = sh.epochs[s] + 1
		sub := graph.NewCorpus()
		from := sh.shards[s].sub
		from.EachName(func(i int, name string) {
			if !removedSet[name] {
				sub.MustAdopt(from, i)
				keeps[s] = append(keeps[s], i)
			}
		})
		subs[s] = sub
	}
	for _, g := range added {
		subs[ShardOf(g.Name(), sh.k)].MustAdd(g)
	}
	par.ForEachN(len(rebuilt), sh.workers, func(i int) {
		s := rebuilt[i]
		t0 := time.Now()
		next.shards[s] = next.deriveCore(sh.shards[s], subs[s], keeps[s])
		if obs.On() {
			obsShardRebuilds.Inc()
			obsShardRebuildSec.Observe(time.Since(t0).Seconds())
			if next.annCfg != nil {
				obsANNShardRebuilds.Inc()
			}
		}
	})
	if obs.On() {
		obsBatchUpdates.Inc()
	}

	rep := &UpdateReport{
		Added:   len(added),
		Removed: len(removedSet),
		Shards:  sh.k,
		Rebuilt: rebuilt,
	}
	return next, rep, nil
}

// ShardMatch is one matching graph from a shard-local search, carrying its
// global corpus position so partials from different shards merge into
// corpus order.
type ShardMatch struct {
	Pos  int
	Name string
}

// ShardResult is the outcome of filter-verify restricted to one shard. A
// complete (non-Truncated) ShardResult depends only on the shard's
// contents and the query.
type ShardResult struct {
	Shard      int
	Epoch      uint64
	Matches    []ShardMatch // ascending Pos
	Candidates int
	Scanned    int
	Verified   int
	Truncated  bool
}

// SearchShardCtx runs filter-then-verify for q against shard s only.
// Matches are capped at opts.MaxResults (a shard can contribute at most
// that many graphs to any budgeted global answer), so MergeShardResults
// over every shard's partial is exact.
func (sh *Sharded) SearchShardCtx(ctx context.Context, s int, q *graph.Graph, opts isomorph.Options) ShardResult {
	return sh.searchShard(ctx, s, q, opts, nil)
}

// searchShard is SearchShardCtx plus an optional cross-shard budget: it
// verifies every filter candidate of shard s.
func (sh *Sharded) searchShard(ctx context.Context, s int, q *graph.Graph, opts isomorph.Options, b *resultBudget) ShardResult {
	return sh.verifyShard(ctx, s, q, opts, sh.candidates(s, q), nil, b)
}

// candidates returns shard s's filter candidates for q: ascending local
// positions of the graphs whose index bits admit the pattern.
func (sh *Sharded) candidates(s int, q *graph.Graph) []int {
	core := sh.shards[s]
	if q.NumNodes() == 0 || core.sub.Len() == 0 {
		return nil
	}
	return core.idx.Candidates(q)
}

// verifyShard is the per-shard verify loop every search strategy runs; the
// strategies differ only in the candidates they hand it. cands (ascending
// local positions) are confirmed with VF2 under opts — including any
// compiled matching order — in ascending corpus order. When b is non-nil,
// confirmed matches are offered to the shared top-MaxResults heap, and the
// shard stops outright once its next candidate's global position exceeds
// the heap's bound: every later candidate in this shard has a larger
// position still, so none can enter the final answer.
//
// first, when non-empty, lists candidates (a subset of cands) to verify
// before the sweep, so a budget fills — and its bound starts pruning —
// early. The sweep reuses their outcomes, so no candidate is verified
// twice. A first-pass match the sweep does not reach (the budget bound is
// strict, so a match can make its own position non-viable) stays in the
// partial; the merge's sort-and-truncate discards it exactly as it would
// any match past the global prefix.
func (sh *Sharded) verifyShard(ctx context.Context, s int, q *graph.Graph, opts isomorph.Options, cands, first []int, b *resultBudget) ShardResult {
	core := sh.shards[s]
	res := ShardResult{Shard: s, Epoch: sh.epochs[s], Scanned: core.sub.Len(), Candidates: len(cands)}
	defer func() { recordSearch(res.Candidates, res.Verified, len(res.Matches), res.Truncated) }()
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	opts.MaxEmbeddings = 1
	// verify confirms local candidate li, recording a match; ok is false
	// when the graph cannot be read.
	verify := func(li int) (matched, ok bool) {
		g, err := core.sub.Hydrate(li)
		if err != nil {
			// Corrupt lazy frame: this graph is unknowable, not a non-match.
			res.Truncated = true
			return false, false
		}
		opts.TargetIndex = core.idx.targetIndexFor(li, g)
		r := isomorph.Count(q, g, opts)
		res.Verified++
		if r.Embeddings == 0 {
			if r.Truncated {
				res.Truncated = true
			}
			return false, true
		}
		gp := sh.globals[s][li]
		res.Matches = append(res.Matches, ShardMatch{Pos: gp, Name: g.Name()})
		if b != nil {
			b.admit(gp)
		}
		return true, true
	}

	done := make(map[int]bool, len(first)) // first-pass outcomes by local position
	for _, li := range first {
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		if b != nil && !b.viable(sh.globals[s][li]) {
			continue
		}
		if m, ok := verify(li); ok {
			done[li] = m
		}
	}
	swept := 0 // matches on the ascending sweep, for the MaxResults stop
	for _, li := range cands {
		if ctx.Err() != nil {
			res.Truncated = true
			break
		}
		if b != nil && !b.viable(sh.globals[s][li]) {
			// The shared cross-shard budget proves no later candidate in
			// this shard can enter the answer; count the early exit.
			if obs.On() {
				obsBudgetStops.Inc()
			}
			break
		}
		m, seen := done[li]
		if !seen {
			var ok bool
			if m, ok = verify(li); !ok {
				continue
			}
		}
		if m {
			swept++
			if opts.MaxResults > 0 && swept >= opts.MaxResults {
				break
			}
		}
	}
	if len(first) > 0 {
		sort.Slice(res.Matches, func(i, j int) bool { return res.Matches[i].Pos < res.Matches[j].Pos })
	}
	return res
}

// MergeShardResults merges per-shard partials into one Result in global
// corpus order, truncating to maxResults (0 = unlimited). The merge is
// deterministic: it depends only on the partials' contents, never on the
// order they were computed in.
func MergeShardResults(partials []ShardResult, maxResults int) Result {
	var res Result
	var all []ShardMatch
	for _, p := range partials {
		res.Candidates += p.Candidates
		res.Scanned += p.Scanned
		res.Verified += p.Verified
		if p.Truncated {
			res.Truncated = true
		}
		all = append(all, p.Matches...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Pos < all[j].Pos })
	if maxResults > 0 && len(all) > maxResults {
		all = all[:maxResults]
	}
	for _, m := range all {
		res.Matches = append(res.Matches, m.Name)
	}
	return res
}

// Search runs filter-then-verify for q across all shards.
func (sh *Sharded) Search(q *graph.Graph, opts isomorph.Options) Result {
	return sh.SearchCtx(context.Background(), q, opts)
}

// SearchCtx fans the query out across shards on a bounded pool. When
// opts.MaxResults is set, shards share one atomic result budget: as soon
// as MaxResults matches with positions below a shard's scan frontier are
// confirmed anywhere, that shard stops verifying. The merged answer is
// byte-identical to the monolithic Index's at any K, worker count, and
// scheduling — the budget only changes how much verification work is
// skipped, never which matches survive.
func (sh *Sharded) SearchCtx(ctx context.Context, q *graph.Graph, opts isomorph.Options) Result {
	return sh.fanOut(opts.MaxResults, func(s int, b *resultBudget) ShardResult {
		return sh.searchShard(ctx, s, q, opts, b)
	})
}

// fanOut runs shard for every shard on the bounded pool under one shared
// result budget (nil when maxResults is 0) and merges the partials in
// corpus order. Every query strategy (SearchCtx, the ANN-first plan) fans
// out through it.
func (sh *Sharded) fanOut(maxResults int, shard func(s int, b *resultBudget) ShardResult) Result {
	var b *resultBudget
	if maxResults > 0 {
		b = newResultBudget(maxResults)
	}
	partials := make([]ShardResult, sh.k)
	par.ForEachN(sh.k, sh.workers, func(s int) {
		partials[s] = shard(s, b)
	})
	return MergeShardResults(partials, maxResults)
}

// resultBudget is the shared cross-shard result budget: a max-heap of the
// `limit` smallest match positions confirmed so far, with the heap's
// maximum mirrored into an atomic so the per-candidate viability check is
// a single load. Skipping is sound by construction — a position is only
// declared non-viable when `limit` confirmed matches all precede it, and
// confirmed matches never leave the answer.
type resultBudget struct {
	limit int
	bound atomic.Int64 // heap max once full; MaxInt64 before that
	mu    sync.Mutex
	heap  []int // max-heap
}

func newResultBudget(limit int) *resultBudget {
	b := &resultBudget{limit: limit, heap: make([]int, 0, limit)}
	b.bound.Store(math.MaxInt64)
	return b
}

// viable reports whether a match at global position pos could still enter
// the final top-limit answer. Positions are unique across shards, so a
// strict comparison against the full heap's maximum is exact.
func (b *resultBudget) viable(pos int) bool {
	return int64(pos) < b.bound.Load()
}

// admit records a confirmed match position.
func (b *resultBudget) admit(pos int) {
	b.mu.Lock()
	if len(b.heap) < b.limit {
		b.heap = append(b.heap, pos)
		b.siftUp(len(b.heap) - 1)
		if len(b.heap) == b.limit {
			b.bound.Store(int64(b.heap[0]))
		}
	} else if pos < b.heap[0] {
		b.heap[0] = pos
		b.siftDown(0)
		b.bound.Store(int64(b.heap[0]))
	}
	b.mu.Unlock()
}

func (b *resultBudget) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.heap[p] >= b.heap[i] {
			return
		}
		b.heap[p], b.heap[i] = b.heap[i], b.heap[p]
		i = p
	}
}

func (b *resultBudget) siftDown(i int) {
	n := len(b.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && b.heap[l] > b.heap[big] {
			big = l
		}
		if r < n && b.heap[r] > b.heap[big] {
			big = r
		}
		if big == i {
			return
		}
		b.heap[i], b.heap[big] = b.heap[big], b.heap[i]
		i = big
	}
}
