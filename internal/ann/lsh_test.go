package ann

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
)

// testVectors embeds a seeded chemical corpus — the same data family the
// recall acceptance criterion is measured on.
func testVectors(tb testing.TB, seed int64, count int) [][]float32 {
	tb.Helper()
	corpus := datagen.ChemicalCorpus(seed, count, datagen.ChemicalOptions{})
	return NewEmbedder().EmbedCorpus(corpus, 0)
}

// TestBuildWorkerInvariance: the built index (planes, mean, tables) is
// byte-identical at every worker count.
func TestBuildWorkerInvariance(t *testing.T) {
	vecs := testVectors(t, 11, 120)
	dim := NewEmbedder().Dim()
	base := NewConfig()
	base.Workers = 1
	want := Build(vecs, dim, base)
	for _, workers := range []int{2, 3, 8, 0} {
		cfg := NewConfig()
		cfg.Workers = workers
		got := Build(vecs, dim, cfg)
		for p := range want.planes {
			for d := range want.planes[p] {
				if got.planes[p][d] != want.planes[p][d] {
					t.Fatalf("workers=%d: plane %d component %d differs", workers, p, d)
				}
			}
		}
		for d := range want.mean {
			if got.mean[d] != want.mean[d] {
				t.Fatalf("workers=%d: mean component %d differs", workers, d)
			}
		}
		if len(got.tables) != len(want.tables) {
			t.Fatalf("workers=%d: %d tables, want %d", workers, len(got.tables), len(want.tables))
		}
		for ti := range want.tables {
			if len(got.tables[ti]) != len(want.tables[ti]) {
				t.Fatalf("workers=%d: table %d has %d buckets, want %d",
					workers, ti, len(got.tables[ti]), len(want.tables[ti]))
			}
			for sig, ids := range want.tables[ti] {
				gids := got.tables[ti][sig]
				if len(gids) != len(ids) {
					t.Fatalf("workers=%d: table %d bucket %x size differs", workers, ti, sig)
				}
				for i := range ids {
					if gids[i] != ids[i] {
						t.Fatalf("workers=%d: table %d bucket %x order differs", workers, ti, sig)
					}
				}
			}
		}
	}
}

// recallAt10 measures |approx ∩ exact| / |exact| for top-10 self-queries
// over every indexed vector.
func recallAt10(ix *Index, vecs [][]float32, probes int) float64 {
	const k = 10
	hits, want := 0, 0
	for _, q := range vecs {
		exact := ExactTopK(vecs, q, k)
		inExact := make(map[int32]bool, len(exact))
		for _, s := range exact {
			inExact[s.ID] = true
		}
		approx, _ := ix.TopK(q, k, probes)
		for _, s := range approx {
			if inExact[s.ID] {
				hits++
			}
		}
		want += len(exact)
	}
	if want == 0 {
		return 0
	}
	return float64(hits) / float64(want)
}

// TestRecallFloor is the satellite acceptance test: recall@10 ≥ 0.9 on a
// seeded datagen corpus with the default configuration, versus the exact
// cosine scan oracle.
func TestRecallFloor(t *testing.T) {
	vecs := testVectors(t, 42, 300)
	ix := Build(vecs, NewEmbedder().Dim(), NewConfig())
	if r := recallAt10(ix, vecs, 0); r < 0.9 {
		t.Fatalf("recall@10 = %.3f, want >= 0.9 (config %+v)", r, ix.Config())
	}
}

// TestMultiProbeImprovesRecall: more probes must never hurt recall, and a
// single-probe lookup should be measurably worse than the default
// multi-probe setting on a clustered corpus (otherwise the probe sequence
// is not actually reaching neighbor buckets).
func TestMultiProbeImprovesRecall(t *testing.T) {
	vecs := testVectors(t, 13, 200)
	ix := Build(vecs, NewEmbedder().Dim(), NewConfig())
	r1 := recallAt10(ix, vecs, 1)
	rN := recallAt10(ix, vecs, 0)
	if rN < r1 {
		t.Fatalf("multi-probe recall %.3f below single-probe %.3f", rN, r1)
	}
	// Lookup cost must actually reflect the probe budget.
	_, s1 := ix.Candidates(vecs[0], 1)
	_, sN := ix.Candidates(vecs[0], 0)
	if s1.Probed != ix.Config().Tables {
		t.Fatalf("single-probe examined %d buckets, want %d", s1.Probed, ix.Config().Tables)
	}
	if sN.Probed != ix.Config().Tables*ix.Config().Probes {
		t.Fatalf("multi-probe examined %d buckets, want %d",
			sN.Probed, ix.Config().Tables*ix.Config().Probes)
	}
	if sN.Shortlist < s1.Shortlist {
		t.Fatalf("multi-probe shortlist %d smaller than single-probe %d", sN.Shortlist, s1.Shortlist)
	}
}

// TestSelfRetrieval: every indexed vector must retrieve itself as its own
// nearest neighbor (the exact bucket is always probed first).
func TestSelfRetrieval(t *testing.T) {
	vecs := testVectors(t, 17, 150)
	ix := Build(vecs, NewEmbedder().Dim(), NewConfig())
	for i, q := range vecs {
		top, _ := ix.TopK(q, 1, 0)
		if len(top) == 0 {
			t.Fatalf("vector %d: empty result for self-query", i)
		}
		// Duplicates can outrank by ID, but the top score must be ~1.
		if top[0].Score < 0.999 {
			t.Fatalf("vector %d: self-query top score %.4f", i, top[0].Score)
		}
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	dim := NewEmbedder().Dim()
	empty := Build(nil, dim, NewConfig())
	if got, stats := empty.TopK(make([]float32, dim), 5, 0); got != nil || stats.Shortlist != 0 {
		t.Fatalf("empty index returned %v / %+v", got, stats)
	}
	vecs := testVectors(t, 19, 20)
	ix := Build(vecs, dim, NewConfig())
	if got, _ := ix.TopK(vecs[0], 0, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	if got, _ := ix.TopK(vecs[0], 1000, 0); len(got) > len(vecs) {
		t.Fatalf("k beyond corpus returned %d results", len(got))
	}
	// Zero query vector: must not panic, scores are 0.
	if got, _ := ix.TopK(make([]float32, dim), 3, 0); len(got) > 0 && got[0].Score != 0 {
		t.Fatalf("zero query scored %v", got[0].Score)
	}
}

// TestProbeSequence checks the best-first perturbation order directly: the
// exact signature comes first, buckets are distinct, and the first flip is
// the least-confident bit.
func TestProbeSequence(t *testing.T) {
	margins := []float64{0.9, -0.1, 0.5, -0.02}
	sig := uint64(0b0101) // bits 0 and 2 set
	seq := probeSequence(sig, margins, 6)
	if len(seq) != 6 {
		t.Fatalf("got %d probes, want 6", len(seq))
	}
	if seq[0] != sig {
		t.Fatalf("first probe %b, want exact signature %b", seq[0], sig)
	}
	// Cheapest single flip is bit 3 (|margin| 0.02), then bit 1 (0.1).
	if want := sig ^ (1 << 3); seq[1] != want {
		t.Fatalf("second probe %b, want %b (flip bit 3)", seq[1], want)
	}
	// Costs: flip{3}=0.02, flip{1}=0.10, flip{3,1}=0.12, flip{2}=0.50.
	if want := sig ^ (1 << 1); seq[2] != want {
		t.Fatalf("third probe %b, want %b (flip bit 1)", seq[2], want)
	}
	if want := sig ^ (1 << 3) ^ (1 << 1); seq[3] != want {
		t.Fatalf("fourth probe %b, want %b (flip bits 3+1)", seq[3], want)
	}
	seen := make(map[uint64]bool)
	for _, s := range seq {
		if seen[s] {
			t.Fatalf("duplicate probe %b", s)
		}
		seen[s] = true
	}
}

// TestSignatureRoundTrip: BuildFromSignatures(vecs, Signatures(Build(...)))
// reproduces the built index exactly — same tables, same query answers —
// and rejects structurally invalid signature sets.
func TestSignatureRoundTrip(t *testing.T) {
	vecs := testVectors(t, 19, 90)
	dim := NewEmbedder().Dim()
	for _, cfg := range []Config{NewConfig(), {Tables: 4, Bits: 6, Seed: 3}} {
		built := Build(vecs, dim, cfg)
		sigs := built.Signatures()
		restored, err := BuildFromSignatures(vecs, dim, cfg, sigs)
		if err != nil {
			t.Fatal(err)
		}
		if len(restored.tables) != len(built.tables) {
			t.Fatalf("table count %d, want %d", len(restored.tables), len(built.tables))
		}
		for tt := range built.tables {
			if len(restored.tables[tt]) != len(built.tables[tt]) {
				t.Fatalf("table %d bucket count differs", tt)
			}
			for sig, ids := range built.tables[tt] {
				got := restored.tables[tt][sig]
				if len(got) != len(ids) {
					t.Fatalf("table %d bucket %x differs", tt, sig)
				}
				for i := range ids {
					if got[i] != ids[i] {
						t.Fatalf("table %d bucket %x member %d differs", tt, sig, i)
					}
				}
			}
		}
		for i := 0; i < 10; i++ {
			want, _ := built.TopK(vecs[i], 5, 0)
			got, _ := restored.TopK(vecs[i], 5, 0)
			if len(got) != len(want) {
				t.Fatalf("query %d: %d items, want %d", i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("query %d item %d: %v, want %v", i, j, got[j], want[j])
				}
			}
		}
	}

	cfg := Config{Tables: 4, Bits: 6, Seed: 3}
	built := Build(vecs, dim, cfg)
	sigs := built.Signatures()
	if _, err := BuildFromSignatures(vecs, dim, cfg, sigs[:len(sigs)-1]); err == nil {
		t.Fatal("row-count mismatch accepted")
	}
	bad := make([][]uint64, len(sigs))
	copy(bad, sigs)
	bad[0] = []uint64{1, 2}
	if _, err := BuildFromSignatures(vecs, dim, cfg, bad); err == nil {
		t.Fatal("table-count mismatch accepted")
	}
	bad[0] = []uint64{1 << 63, 0, 0, 0}
	if _, err := BuildFromSignatures(vecs, dim, cfg, bad); err == nil {
		t.Fatal("out-of-width signature accepted")
	}
}

// TestDeriveMatchesBuild: a chain of derived generations — random
// removals and additions, an emptied set, a start from signatures with no
// projections — gives the same signatures, tables and TopK answers as
// Build over the same vectors, with centering on and off, and every item
// sits in the bucket its vector hashes to on the query path.
func TestDeriveMatchesBuild(t *testing.T) {
	pool := testVectors(t, 23, 160)
	dim := NewEmbedder().Dim()
	for _, cfg := range []Config{NewConfig(), {Tables: 4, Bits: 6, Seed: 3}} {
		for _, fromSigs := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(cfg.Tables)))
			next := 0
			take := func(n int) [][]float32 {
				out := pool[next : next+n]
				next += n
				return out
			}
			vecs := take(40)
			ix := Build(vecs, dim, cfg)
			if fromSigs {
				var err error
				if ix, err = BuildFromSignatures(vecs, dim, cfg, ix.Signatures()); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 12; step++ {
				// Keep a random ascending subset (none at step 6), then add.
				var keep []int
				var nv [][]float32
				for i := range vecs {
					if step != 6 && rng.Intn(5) != 0 {
						keep = append(keep, i)
						nv = append(nv, vecs[i])
					}
				}
				nv = append(nv, take(rng.Intn(9))...)
				ix, vecs = ix.Derive(nv, keep), nv
				want := Build(vecs, dim, cfg)
				sigs := ix.Signatures()
				if !reflect.DeepEqual(sigs, want.Signatures()) {
					t.Fatalf("cfg %+v fromSigs=%v step %d: signatures differ from Build", cfg, fromSigs, step)
				}
				// Build derives too, so also pin every bucket to the
				// query-path hash of the item's vector.
				for i, row := range sigs {
					for tt, sig := range row {
						if h := ix.signature(tt, vecs[i], nil); sig != h {
							t.Fatalf("cfg %+v fromSigs=%v step %d: item %d table %d in bucket %x, hashes to %x", cfg, fromSigs, step, i, tt, sig, h)
						}
					}
				}
				if !reflect.DeepEqual(ix.tables, want.tables) || !reflect.DeepEqual(ix.mean, want.mean) {
					t.Fatalf("cfg %+v fromSigs=%v step %d: tables or mean differ from Build", cfg, fromSigs, step)
				}
				for _, q := range pool[:10] {
					got, gs := ix.TopK(q, 5, 0)
					exp, es := want.TopK(q, 5, 0)
					if !reflect.DeepEqual(got, exp) || gs != es {
						t.Fatalf("cfg %+v fromSigs=%v step %d: TopK %v, want %v", cfg, fromSigs, step, got, exp)
					}
				}
			}
		}
	}
}
