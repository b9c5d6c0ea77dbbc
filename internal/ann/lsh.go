package ann

// Random-hyperplane (SimHash) LSH with query-directed multi-probe lookup.
//
// Each of L tables hashes a vector to a b-bit signature: bit j is the sign
// of the dot product with hyperplane (table, j). Vectors at small angle
// agree on most bits, so near neighbors land in the same bucket with
// probability (1 - θ/π)^b per table. Multi-probe additionally visits the
// buckets reachable by flipping the query's *least confident* bits (the
// smallest |dot| margins, per Lv et al.'s query-directed probing), which
// buys recall that would otherwise cost more tables and therefore more
// memory and build time.
//
// Embeddings of a real corpus are not centered at the origin — similar
// graphs cluster on a spherical cap, where origin-crossing hyperplanes
// barely separate anything. Build therefore (by default) mean-centers the
// vectors before hashing; scoring still uses raw cosine on the original
// vectors, so centering only changes which bucket a vector lands in, never
// how a candidate is ranked.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/par"
)

// Config parameterizes an LSH index. The zero value selects the defaults.
type Config struct {
	// Tables is L, the number of independent hash tables (0 = 12).
	Tables int
	// Bits is b, the signature width per table, capped at 64 (0 = 10).
	Bits int
	// Probes is the number of buckets examined per table per lookup,
	// including the exact bucket (0 = 2·Bits: the exact bucket plus the
	// cheapest multi-bit perturbations). Callers can override per query.
	Probes int
	// Seed drives the hyperplane family via par.ChildSeed; equal seeds give
	// identical planes in any process at any worker count.
	Seed int64
	// Center subtracts the indexed set's mean before hashing. Enabled by
	// NewConfig; the zero value keeps raw hashing for spread-out data.
	Center bool
	// Workers bounds the parallel build (0 = GOMAXPROCS).
	Workers int
}

// NewConfig returns the default configuration: 12 tables × 10 bits,
// multi-probe 2·bits, centered hashing, seed 1. Tuned on seeded chemical
// corpora for recall@10 well above the 0.9 floor (≈0.98 at 300 graphs)
// while probing a corpus-independent number of buckets.
func NewConfig() Config {
	return Config{Tables: 12, Bits: 10, Probes: 20, Seed: 1, Center: true}
}

// Resolved returns c with every zero field replaced by its default — the
// configuration Build actually uses.
func (c Config) Resolved() Config {
	c.defaults()
	return c
}

func (c *Config) defaults() {
	if c.Tables <= 0 {
		c.Tables = 12
	}
	if c.Bits <= 0 {
		c.Bits = 10
	}
	if c.Bits > 64 {
		c.Bits = 64
	}
	if c.Probes <= 0 {
		c.Probes = 2 * c.Bits
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Index is an immutable LSH index over a vector set. Safe for
// unsynchronized concurrent lookups; Derive returns the index over a
// changed set without modifying the receiver.
type Index struct {
	cfg     Config
	dim     int
	planes  [][]float32 // Tables*Bits hyperplanes, row (t*Bits + j); shared across derived generations
	mean    []float32   // hashing offset (nil when Center is off)
	meanDot []float64   // precomputed plane·mean, by plane row
	tables  []map[uint64][]int32
	vecs    [][]float32 // indexed vectors, by id
	norms   []float64   // precomputed L2 norms, by id
	// proj holds each item's raw plane projections Dot(plane, v), by id
	// then plane row. With them a derived generation re-centers and
	// re-hashes every item without a dot product. A nil row (an item
	// restored by BuildFromSignatures) is computed by the first Derive
	// that keeps the item.
	proj [][]float64
}

// New returns the empty index for (dim, cfg): the hyperplane family and
// no items. Build, and every later generation, derive from it.
func New(dim int, cfg Config) *Index {
	cfg.defaults()
	ix := &Index{cfg: cfg, dim: dim, planes: make([][]float32, cfg.Tables*cfg.Bits)}
	// Hyperplanes: plane p's Gaussian components come from an RNG seeded by
	// ChildSeed(Seed, p) — a pure function of (seed, p), so any worker
	// layout generates the identical family.
	par.ForEachN(len(ix.planes), cfg.Workers, func(p int) {
		rng := rand.New(rand.NewSource(par.ChildSeed(cfg.Seed, p)))
		plane := make([]float32, dim)
		for d := range plane {
			plane[d] = float32(rng.NormFloat64())
		}
		ix.planes[p] = plane
	})
	nx := ix.next(nil)
	nx.fill(nil, ix)
	return nx
}

// Build indexes vecs (dimension dim): the empty index with every vector
// added. The vectors are held by reference — treat them as immutable
// afterwards.
func Build(vecs [][]float32, dim int, cfg Config) *Index {
	return New(dim, cfg).Derive(vecs, nil)
}

// next returns an index over vecs that shares the receiver's hyperplanes
// and is centered on vecs; its norms, projections and tables are left
// for the caller to fill.
func (ix *Index) next(vecs [][]float32) *Index {
	nx := &Index{
		cfg:    ix.cfg,
		dim:    ix.dim,
		planes: ix.planes,
		vecs:   vecs,
		norms:  make([]float64, len(vecs)),
		proj:   make([][]float64, len(vecs)),
	}
	if ix.cfg.Center && len(vecs) > 0 {
		// Sequential accumulation in item order: deterministic float sums.
		mean := make([]float64, ix.dim)
		for _, v := range vecs {
			for d, x := range v {
				mean[d] += float64(x)
			}
		}
		nx.mean = make([]float32, ix.dim)
		inv := 1 / float64(len(vecs))
		for d := range mean {
			nx.mean[d] = float32(mean[d] * inv)
		}
		nx.meanDot = make([]float64, len(nx.planes))
		par.ForEachN(len(nx.planes), ix.cfg.Workers, func(p int) {
			nx.meanDot[p] = Dot(nx.planes[p], nx.mean)
		})
	}
	return nx
}

// Derive returns the index over vecs, where row i < len(keep) is the
// receiver's item keep[i] (the same vector) and the remaining rows are
// new items. Kept items carry their norms and plane projections, so only
// new items pay dot products; the mean, every signature and the buckets
// are re-derived, because with Center the hashing offset depends on the
// whole set. Signatures come from the same arithmetic as a fresh hash
// (projection minus plane·mean, sign), so the result is byte-identical to
// Build(vecs, dim, cfg). The receiver is not modified.
func (ix *Index) Derive(vecs [][]float32, keep []int) *Index {
	nx := ix.next(vecs)
	for i, old := range keep {
		nx.norms[i] = ix.norms[old]
		nx.proj[i] = ix.proj[old]
	}
	// Per-item work is slot-indexed; buckets are then filled one table per
	// task in ascending item order, so the tables are
	// scheduling-independent.
	tables := nx.cfg.Tables
	flat := make([]uint64, len(vecs)*tables)
	sigs := make([][]uint64, len(vecs))
	par.ForEachN(len(vecs), nx.cfg.Workers, func(i int) {
		if i >= len(keep) {
			nx.norms[i] = Norm(vecs[i])
		}
		if nx.proj[i] == nil {
			pr := make([]float64, len(nx.planes))
			for p, plane := range nx.planes {
				pr[p] = Dot(plane, vecs[i])
			}
			nx.proj[i] = pr
		}
		s := flat[i*tables : (i+1)*tables : (i+1)*tables]
		for t := range s {
			s[t] = nx.projSignature(t, nx.proj[i])
		}
		sigs[i] = s
	})
	nx.fill(sigs, ix)
	return nx
}

// fill buckets every item per table, ascending by id. Each table's map is
// presized to prev's bucket count: a derived generation's buckets are
// mostly its predecessor's.
func (ix *Index) fill(sigs [][]uint64, prev *Index) {
	ix.tables = make([]map[uint64][]int32, ix.cfg.Tables)
	par.ForEachN(ix.cfg.Tables, ix.cfg.Workers, func(t int) {
		hint := 0
		if t < len(prev.tables) {
			hint = len(prev.tables[t])
		}
		m := make(map[uint64][]int32, hint)
		for i, s := range sigs {
			m[s[t]] = append(m[s[t]], int32(i))
		}
		ix.tables[t] = m
	})
}

// Signatures returns every indexed item's per-table signature — row i is
// item i, column t its bucket in table t. This is the persistable half of
// the index: hyperplanes regenerate from cfg.Seed alone, and tables
// regenerate from signatures without re-hashing a single vector (see
// BuildFromSignatures). O(n·Tables), no dot products.
func (ix *Index) Signatures() [][]uint64 {
	sigs := make([][]uint64, len(ix.vecs))
	for i := range sigs {
		sigs[i] = make([]uint64, ix.cfg.Tables)
	}
	for t, m := range ix.tables {
		for sig, ids := range m {
			for _, id := range ids {
				sigs[id][t] = sig
			}
		}
	}
	return sigs
}

// BuildFromSignatures is Build with the signature pass replaced by
// precomputed per-item signatures (from Signatures on an equivalent
// index). Hyperplanes, centering state, and norms are regenerated — they
// are O(planes·dim) and O(n·dim) — but the n·Tables·Bits·dim hashing that
// dominates Build is skipped, so reconstruction cost is bucket insertion.
// Given the signatures Build would have produced for (vecs, dim, cfg),
// the result is byte-identical to Build's. Plane projections are not
// recomputed; a later Derive fills them for the items it keeps.
//
// Signatures are validated structurally (row count, table count, no bits
// set past cfg.Bits); a semantically wrong signature cannot be detected
// without re-hashing and only ever mis-buckets an item, which downstream
// exact re-ranking already tolerates.
func BuildFromSignatures(vecs [][]float32, dim int, cfg Config, sigs [][]uint64) (*Index, error) {
	cfg.defaults()
	if len(sigs) != len(vecs) {
		return nil, fmt.Errorf("ann: %d signature rows for %d vectors", len(sigs), len(vecs))
	}
	for i, row := range sigs {
		if len(row) != cfg.Tables {
			return nil, fmt.Errorf("ann: signature row %d has %d tables, config has %d", i, len(row), cfg.Tables)
		}
		for _, s := range row {
			if cfg.Bits < 64 && s>>uint(cfg.Bits) != 0 {
				return nil, fmt.Errorf("ann: signature row %d has bits set past width %d", i, cfg.Bits)
			}
		}
	}
	empty := New(dim, cfg)
	ix := empty.next(vecs)
	for i, v := range vecs {
		ix.norms[i] = Norm(v)
	}
	ix.fill(sigs, empty)
	return ix, nil
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vecs) }

// Dim returns the indexed dimension.
func (ix *Index) Dim() int { return ix.dim }

// Config returns the build configuration (with defaults resolved).
func (ix *Index) Config() Config { return ix.cfg }

// signature hashes v in table t. When margins is non-nil it receives the
// per-bit dot products (the multi-probe confidence scores), length Bits.
func (ix *Index) signature(t int, v []float32, margins []float64) uint64 {
	var sig uint64
	base := t * ix.cfg.Bits
	for j := 0; j < ix.cfg.Bits; j++ {
		d := Dot(ix.planes[base+j], v)
		if ix.meanDot != nil {
			d -= ix.meanDot[base+j]
		}
		if d >= 0 {
			sig |= 1 << uint(j)
		}
		if margins != nil {
			margins[j] = d
		}
	}
	return sig
}

// projSignature is signature for an indexed item whose plane projections
// are already known: the same subtraction and sign test, no dot products.
func (ix *Index) projSignature(t int, proj []float64) uint64 {
	var sig uint64
	base := t * ix.cfg.Bits
	for j := 0; j < ix.cfg.Bits; j++ {
		d := proj[base+j]
		if ix.meanDot != nil {
			d -= ix.meanDot[base+j]
		}
		if d >= 0 {
			sig |= 1 << uint(j)
		}
	}
	return sig
}

// probeSet is one perturbation in the query-directed probe sequence: a set
// of bit positions (indices into the margin-sorted order) to flip, with the
// summed flip cost.
type probeSet struct {
	bits []int // indices into the sorted-margin order, ascending
	cost float64
}

// probeSequence returns up to `probes` bucket signatures for a query whose
// exact signature is sig with the given per-bit margins, in increasing
// flip-cost order (the exact bucket first). Perturbation sets are expanded
// best-first with the classic shift/expand moves over bits sorted by
// |margin|, so the flipped bits are always the least confident ones.
func probeSequence(sig uint64, margins []float64, probes int) []uint64 {
	out := make([]uint64, 0, probes)
	out = append(out, sig)
	if probes <= 1 || len(margins) == 0 {
		return out
	}
	b := len(margins)
	order := make([]int, b)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by |margin| (ties by index): b <= 64 and this runs
	// once per table per query — a generic sort's overhead is larger than
	// the sort itself at this size.
	for i := 1; i < b; i++ {
		for j := i; j > 0; j-- {
			aj, ap := abs(margins[order[j]]), abs(margins[order[j-1]])
			if aj > ap || (aj == ap && order[j] > order[j-1]) {
				break
			}
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	cost := func(si int) float64 { return abs(margins[order[si]]) }
	flip := func(bits []int) uint64 {
		s := sig
		for _, si := range bits {
			s ^= 1 << uint(order[si])
		}
		return s
	}
	// Best-first over perturbation sets; the heap is tiny (≤ probes live
	// sets), so a sorted slice is simpler than container/heap and just as
	// fast at these sizes.
	frontier := []probeSet{{bits: []int{0}, cost: cost(0)}}
	for len(out) < probes && len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].cost < frontier[best].cost {
				best = i
			}
		}
		cur := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		out = append(out, flip(cur.bits))
		last := cur.bits[len(cur.bits)-1]
		if last+1 < b {
			// Shift: replace the deepest bit with the next-costlier one.
			shifted := append(append([]int(nil), cur.bits[:len(cur.bits)-1]...), last+1)
			frontier = append(frontier, probeSet{bits: shifted, cost: cur.cost - cost(last) + cost(last+1)})
			// Expand: additionally flip the next bit.
			expanded := append(append([]int(nil), cur.bits...), last+1)
			frontier = append(frontier, probeSet{bits: expanded, cost: cur.cost + cost(last+1)})
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// LookupStats reports what one approximate lookup cost and surfaced.
type LookupStats struct {
	Probed    int // buckets examined across all tables
	Shortlist int // distinct candidate ids gathered
}

// Candidates returns the distinct ids in the probed buckets across every
// table, ascending. probes <= 0 uses the build-time default. O(probes ×
// tables) bucket lookups — the sub-linear stage.
func (ix *Index) Candidates(q []float32, probes int) ([]int32, LookupStats) {
	var stats LookupStats
	if len(ix.vecs) == 0 {
		return nil, stats
	}
	if probes <= 0 {
		probes = ix.cfg.Probes
	}
	seen := make([]bool, len(ix.vecs))
	var out []int32
	margins := make([]float64, ix.cfg.Bits)
	for t := 0; t < ix.cfg.Tables; t++ {
		sig := ix.signature(t, q, margins)
		for _, bucket := range probeSequence(sig, margins, probes) {
			stats.Probed++
			for _, id := range ix.tables[t][bucket] {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	slices.Sort(out)
	stats.Shortlist = len(out)
	return out, stats
}

// TopK retrieves the approximate top-k: multi-probe candidate gathering
// fused with exact cosine scoring, keeping a bounded (score desc, id asc)
// top-k instead of sorting the whole shortlist — O(shortlist · k) worst
// case but O(shortlist) in practice, since most candidates fail the
// current floor without shifting anything. probes <= 0 uses the
// build-time default. The result is the unique top-k under the total
// order (score desc, id asc), independent of gathering order.
func (ix *Index) TopK(q []float32, k, probes int) ([]Scored, LookupStats) {
	var stats LookupStats
	if k <= 0 || len(ix.vecs) == 0 {
		return nil, stats
	}
	if probes <= 0 {
		probes = ix.cfg.Probes
	}
	qn := Norm(q)
	seen := make([]bool, len(ix.vecs))
	top := make([]Scored, 0, k)
	margins := make([]float64, ix.cfg.Bits)
	for t := 0; t < ix.cfg.Tables; t++ {
		sig := ix.signature(t, q, margins)
		for _, bucket := range probeSequence(sig, margins, probes) {
			stats.Probed++
			for _, id := range ix.tables[t][bucket] {
				if seen[id] {
					continue
				}
				seen[id] = true
				stats.Shortlist++
				s := 0.0
				if qn != 0 && ix.norms[id] != 0 {
					s = Dot(q, ix.vecs[id]) / (qn * ix.norms[id])
				}
				top = insertTopK(top, Scored{ID: id, Score: s}, k)
			}
		}
	}
	return top, stats
}

// insertTopK inserts c into top (held sorted by score desc, id asc),
// keeping at most k entries.
func insertTopK(top []Scored, c Scored, k int) []Scored {
	if len(top) == k {
		w := top[k-1]
		if c.Score < w.Score || (c.Score == w.Score && c.ID > w.ID) {
			return top
		}
		top = top[:k-1]
	}
	i := len(top)
	top = append(top, c)
	for i > 0 {
		p := top[i-1]
		if p.Score > c.Score || (p.Score == c.Score && p.ID < c.ID) {
			break
		}
		top[i] = p
		i--
	}
	top[i] = c
	return top
}
