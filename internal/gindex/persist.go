package gindex

// Per-shard index sections: the serialized form of one shard's filter
// index (label/triple inverted bitsets, count-feature levels, size
// arrays) plus its similarity vectors, persisted inside snapshot-format-v2
// files so a restart can restore shards instead of re-deriving them from
// every graph.
//
// What is and is not persisted follows from what is cheap to regenerate:
//
//   - Stored, because rebuilding them means touching every graph —
//     exactly the O(corpus) decode pass an mmap boot avoids: the inverted
//     presence bitsets, the size arrays, and the count features' exact
//     levels (features.go; section version 2 added them).
//   - Rebuilt from those arrays and bitsets without touching graphs: the
//     size-class suffix bitsets, in O(distinct sizes · corpus/64), and the
//     count features' suffix classes, in O(levels · corpus/64)
//     (Index.finishDerived).
//   - Per-graph VF2 label indexes are only needed for graphs that reach
//     verification; left empty and filled lazily (Index.targetIndexFor).
//   - Panel facet masks are only needed for graphs an answer matched;
//     left empty and filled lazily (Index.maskFor). They depend on the
//     serving panel, not on the corpus alone.
//   - ANN state persists the embedding vectors plus each item's per-table
//     LSH signatures: hyperplanes are a pure function of cfg.Seed so they
//     regenerate for free, and with signatures on hand the hash tables
//     refill by bucket insertion (ann.BuildFromSignatures) — the
//     n·Tables·Bits·dim hashing pass that would otherwise make restore
//     cost scale with corpus size is skipped entirely. The per-item plane
//     projections that ApplyBatch's derivation carries over are not
//     persisted either; the first batch touching a restored shard
//     computes them.
//
// A section is opaque bytes to the store layer, which frames and
// checksums it; decoding here still validates structure defensively
// (word counts, trailing bits, graph counts, key order) because a section
// that passed its CRC can still disagree with the corpus it is restored
// against — e.g. after a shard-count change. Any mismatch falls back to
// rebuilding that one shard from graphs; a section can cost time, never
// correctness. So does a section of another version: a version-1 section
// (no count levels) is rebuilt, not restored.

import (
	"encoding/binary"
	"fmt"
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
	"repro/internal/pattern"
)

var (
	obsSectionRestores   = obs.Default.Counter("gindex_section_restores_total")
	obsSectionRebuilds   = obs.Default.Counter("gindex_section_rebuilds_total")
	obsSectionRestoreSec = obs.Default.Histogram("gindex_section_restore_seconds")
)

// sectionVersion is the per-shard section format version. Bump on any
// layout change; RestoreSharded rebuilds shards whose version it does not
// understand. Version 2 added the count-feature levels.
const sectionVersion = 2

// maxSectionLabels caps decoded map sizes, bounding what a structurally
// valid but hostile length field can allocate.
const maxSectionLabels = 1 << 24

// senc is a tiny append-only encoder (the store codec's shape, local to
// this package so sections do not import persistence internals).
type senc struct{ b []byte }

func (e *senc) u8(v byte)    { e.b = append(e.b, v) }
func (e *senc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *senc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *senc) str(s string) {
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *senc) triple(t triple) {
	e.str(t.a)
	e.str(t.e)
	e.str(t.b)
}
func (e *senc) bitset(b pattern.Bitset) {
	for _, w := range b {
		e.u64(w)
	}
}

// sdec is the matching sticky-error decoder. Decoded strings are interned:
// a label recurs in many keys (label maps, triples, count levels), and
// each distinct one is copied out of the section once.
type sdec struct {
	b    []byte
	err  error
	strs map[string]string
}

func (d *sdec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("gindex: corrupt section: truncated %s", what)
	}
}

func (d *sdec) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *sdec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *sdec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *sdec) str() string {
	if d.err != nil {
		return ""
	}
	n, k := binary.Uvarint(d.b)
	if k <= 0 || uint64(len(d.b)-k) < n {
		d.fail("string")
		return ""
	}
	raw := d.b[k : k+int(n)]
	d.b = d.b[k+int(n):]
	if s, ok := d.strs[string(raw)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(raw)
	d.strs[s] = s
	return s
}

// bitset decodes exactly ceil(n/64) words and validates that no bit at
// position >= n is set — a trailing set bit means the section was encoded
// against a different corpus.
func (d *sdec) bitset(n int) pattern.Bitset {
	b := make(pattern.Bitset, (n+63)/64)
	if !d.bitsetInto(b, n) {
		return nil
	}
	return b
}

// bitsetInto is bitset decoding into b, which holds ceil(n/64) words.
func (d *sdec) bitsetInto(b pattern.Bitset, n int) bool {
	words := len(b)
	if d.err != nil || len(d.b) < 8*words {
		d.fail("bitset")
		return false
	}
	for i := range b {
		b[i] = binary.LittleEndian.Uint64(d.b[8*i:])
	}
	d.b = d.b[8*words:]
	if words > 0 {
		if tail := uint(n % 64); tail != 0 && b[words-1]>>tail != 0 {
			d.fail("bitset (bits set past graph count)")
			return false
		}
	}
	return true
}

func (d *sdec) triple() triple {
	return triple{a: d.str(), e: d.str(), b: d.str()}
}

func (d *sdec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("gindex: corrupt section: %d trailing bytes", len(d.b))
	}
	return nil
}

// writeLevels appends a count feature's exact levels in (key, value)
// order: a count, then per level its key, value and bitset.
func writeLevels[K comparable](e *senc, ci countIndex[K], less func(a, b K) bool, key func(*senc, K)) {
	lvs := sortedLevels(ci, less)
	e.u32(uint32(len(lvs)))
	for _, lv := range lvs {
		key(e, lv.key)
		e.u32(uint32(lv.n))
		e.bitset(ci.exact[lv])
	}
}

// readLevels decodes what writeLevels wrote into a count feature over n
// graphs, rejecting out-of-order or duplicate levels and values below 2
// (which a build never stores).
func readLevels[K comparable](d *sdec, n int, less func(a, b K) bool, key func(*sdec) K, what string) countIndex[K] {
	count := int(d.u32())
	words := (n + 63) / 64
	// Every level takes at least a key length byte, a u32 and its words,
	// which bounds what a hostile count can allocate.
	if d.err == nil && (count > maxSectionLabels || count > len(d.b)/(5+8*words)) {
		d.fail(what + " (count exceeds limit)")
		count = 0
	}
	ci := countIndex[K]{exact: make(map[level[K]]pattern.Bitset, count)}
	bits := carve(count, words)
	var prev level[K]
	for i := 0; i < count && d.err == nil; i++ {
		lv := level[K]{key: key(d)}
		lv.n = int(d.u32())
		if d.err != nil {
			break
		}
		if lv.n < 2 || (i > 0 && !levelLess(prev, lv, less)) {
			d.fail(what + " (levels out of order)")
			break
		}
		prev = lv
		if d.bitsetInto(bits[i], n) {
			ci.exact[lv] = bits[i]
		}
	}
	return ci
}

// encodeSection serializes one shard's restorable state.
func encodeSection(core *shardCore, annEnabled bool, dim int) []byte {
	idx := core.idx
	n := core.sub.Len()
	e := &senc{}
	e.u8(sectionVersion)
	e.u32(uint32(n))
	for _, v := range idx.numNodes {
		e.u32(uint32(v))
	}
	for _, v := range idx.numEdges {
		e.u32(uint32(v))
	}
	writeLabelMap := func(m map[string]pattern.Bitset) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.u32(uint32(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.bitset(m[k])
		}
	}
	writeLabelMap(idx.nodeLabel)
	writeLabelMap(idx.edgeLabel)
	trs := make([]triple, 0, len(idx.triples))
	for t := range idx.triples {
		trs = append(trs, t)
	}
	sort.Slice(trs, func(i, j int) bool { return tripleLess(trs[i], trs[j]) })
	e.u32(uint32(len(trs)))
	for _, t := range trs {
		e.triple(t)
		e.bitset(idx.triples[t])
	}
	writeLevels(e, idx.nodeCount, stringLess, (*senc).str)
	writeLevels(e, idx.tripleCount, tripleLess, (*senc).triple)
	writeLevels(e, idx.labelDegree, stringLess, (*senc).str)
	if annEnabled {
		e.u8(1)
		e.u32(uint32(dim))
		for _, vec := range core.vecs {
			for _, x := range vec {
				e.u32(math.Float32bits(x))
			}
		}
		sigs := core.ann.Signatures()
		e.u32(uint32(core.ann.Config().Tables))
		for _, row := range sigs {
			for _, s := range row {
				e.u64(s)
			}
		}
	} else {
		e.u8(0)
	}
	return e.b
}

// EncodeSections serializes every shard's restorable index state, indexed
// by shard id. Encoding touches only index structures — never graphs — so
// it is safe on a partially hydrated (mmap-backed) corpus. Pass the
// result to store.Store.Compact / WriteSnapshot to persist it.
func (sh *Sharded) EncodeSections() [][]byte {
	out := make([][]byte, sh.k)
	dim := 0
	if sh.annCfg != nil {
		dim = sh.emb.Dim()
	}
	for s, core := range sh.shards {
		out[s] = encodeSection(core, sh.annCfg != nil, dim)
	}
	return out
}

// decodeSection rebuilds one shard's core from its section. sub is the
// shard's (possibly lazy) sub-corpus; the section must have been encoded
// against a shard with identical membership and order. annCfg selects
// whether ANN state is required: a section without vectors cannot restore
// an ANN-enabled shard (and vice versa the extra vectors are rejected, not
// ignored — a config change is a rebuild, not a guess).
func decodeSection(data []byte, sub *graph.Corpus, annCfg *ann.Config, emb *ann.Embedder) (*shardCore, error) {
	d := &sdec{b: data}
	if v := d.u8(); d.err == nil && v != sectionVersion {
		return nil, fmt.Errorf("gindex: unsupported section version %d", v)
	}
	n := int(d.u32())
	if d.err == nil && n != sub.Len() {
		return nil, fmt.Errorf("gindex: section covers %d graphs, shard holds %d", n, sub.Len())
	}
	idx := &Index{
		corpus:    sub,
		nodeLabel: make(map[string]pattern.Bitset),
		edgeLabel: make(map[string]pattern.Bitset),
		triples:   make(map[triple]pattern.Bitset),
		numNodes:  make([]int, n),
		numEdges:  make([]int, n),
		labelIdx:  make([]atomic.Pointer[isomorph.LabelIndex], n),
		panelMask: make([]atomic.Pointer[panelMask], n),
	}
	for i := range idx.numNodes {
		idx.numNodes[i] = int(d.u32())
	}
	for i := range idx.numEdges {
		idx.numEdges[i] = int(d.u32())
	}
	readLabelMap := func(m map[string]pattern.Bitset, what string) {
		count := d.u32()
		if d.err != nil {
			return
		}
		if count > maxSectionLabels {
			d.fail(what + " (count exceeds limit)")
			return
		}
		prev := ""
		for i := uint32(0); i < count && d.err == nil; i++ {
			k := d.str()
			if i > 0 && k <= prev {
				d.fail(what + " (keys out of order)")
				return
			}
			prev = k
			m[k] = d.bitset(n)
		}
	}
	readLabelMap(idx.nodeLabel, "node-label map")
	readLabelMap(idx.edgeLabel, "edge-label map")
	trCount := d.u32()
	if d.err == nil && trCount > maxSectionLabels {
		d.fail("triple map (count exceeds limit)")
	}
	for i := uint32(0); i < trCount && d.err == nil; i++ {
		t := d.triple()
		if _, dup := idx.triples[t]; dup {
			d.fail("triple map (duplicate key)")
			break
		}
		idx.triples[t] = d.bitset(n)
	}
	idx.nodeCount = readLevels(d, n, stringLess, (*sdec).str, "node-count levels")
	idx.tripleCount = readLevels(d, n, tripleLess, (*sdec).triple, "triple-count levels")
	idx.labelDegree = readLevels(d, n, stringLess, (*sdec).str, "label-degree levels")
	core := &shardCore{sub: sub, idx: idx}
	hasANN := d.u8() == 1
	if d.err == nil && hasANN != (annCfg != nil) {
		return nil, fmt.Errorf("gindex: section ANN state (%v) disagrees with index configuration (%v)", hasANN, annCfg != nil)
	}
	var sigs [][]uint64
	if hasANN && d.err == nil {
		dim := int(d.u32())
		if d.err == nil && dim != emb.Dim() {
			return nil, fmt.Errorf("gindex: section embedding dim %d, embedder produces %d", dim, emb.Dim())
		}
		core.vecs = make([][]float32, n)
		for i := range core.vecs {
			vec := make([]float32, dim)
			for j := range vec {
				vec[j] = math.Float32frombits(d.u32())
			}
			core.vecs[i] = vec
		}
		tables := int(d.u32())
		if d.err == nil && tables != annCfg.Resolved().Tables {
			return nil, fmt.Errorf("gindex: section has %d LSH tables, configuration wants %d", tables, annCfg.Resolved().Tables)
		}
		sigs = make([][]uint64, n)
		for i := range sigs {
			row := make([]uint64, tables)
			for t := range row {
				row[t] = d.u64()
			}
			sigs[i] = row
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	idx.finishDerived()
	if hasANN {
		cfg := annCfg.Resolved()
		cfg.Workers = 1
		ix, err := ann.BuildFromSignatures(core.vecs, emb.Dim(), cfg, sigs)
		if err != nil {
			return nil, err
		}
		core.ann = ix
	}
	return core, nil
}

// RestoreReport says how each shard of a RestoreSharded call was brought
// up.
type RestoreReport struct {
	// Restored counts shards reconstructed from their persisted section —
	// no graph in those shards was decoded.
	Restored int
	// Rebuilt counts shards built from graphs: no section was offered, or
	// the offered one failed validation.
	Rebuilt int
	// RebuiltShards lists the rebuilt shard ids, ascending.
	RebuiltShards []int
}

// RestoreSharded is BuildSharded/BuildShardedANN with persisted sections:
// shards whose entry in sections decodes cleanly against their sub-corpus
// are restored without touching a single graph; the rest are built the
// normal way. sections maps shard id → bytes from EncodeSections — the
// caller (core.OpenDurableIndex) offers only sections whose shard epoch
// matched the recovered snapshot, so a stale section is never even
// considered here. annCfg nil builds a plain index; non-nil, an
// ANN-enabled one (sections must carry vectors to restore).
//
// On a lazy corpus this is the O(index) half of the mmap cold boot: with
// every section valid, boot cost is decode-sections + size-class
// reconstruction, independent of total graph bytes.
func RestoreSharded(c *graph.Corpus, k, workers int, annCfg *ann.Config, sections map[int][]byte) (*Sharded, *RestoreReport) {
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
		cfg.Workers = 0
		sh.annCfg = &cfg
		sh.emb = ann.NewEmbedder()
	}
	subs := make([]*graph.Corpus, k)
	for s := range subs {
		subs[s] = graph.NewCorpus()
	}
	c.EachName(func(gi int, name string) {
		s := ShardOf(name, k)
		subs[s].MustAdopt(c, gi)
		sh.globals[s] = append(sh.globals[s], gi)
		sh.pos[name] = gi
		sh.order = append(sh.order, name)
	})

	rep := &RestoreReport{}
	rebuilt := make([]bool, k)
	empty := sync.OnceValue(sh.emptyCore) // only if some shard must be built
	par.ForEachN(k, workers, func(s int) {
		if data, ok := sections[s]; ok {
			t0 := time.Now()
			core, err := decodeSection(data, subs[s], sh.annCfg, sh.emb)
			if err == nil {
				sh.shards[s] = core
				if obs.On() {
					obsSectionRestores.Inc()
					obsSectionRestoreSec.Observe(time.Since(t0).Seconds())
				}
				return
			}
		}
		rebuilt[s] = true
		t0 := time.Now()
		sh.shards[s] = sh.deriveCore(empty(), subs[s], nil)
		if obs.On() {
			obsSectionRebuilds.Inc()
			obsShardBuilds.Inc()
			obsShardBuildSecs.Observe(time.Since(t0).Seconds())
			if sh.annCfg != nil {
				obsANNShardBuilds.Inc()
			}
		}
	})
	for s, rb := range rebuilt {
		if rb {
			rep.Rebuilt++
			rep.RebuiltShards = append(rep.RebuiltShards, s)
		} else {
			rep.Restored++
		}
	}
	return sh, rep
}
