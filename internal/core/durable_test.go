package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
)

func persistCorpus(n int) *graph.Corpus {
	return datagen.ChemicalCorpus(11, n, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 12})
}

func persistBatch(i int) (added []*graph.Graph, removed []string) {
	rng := rand.New(rand.NewSource(int64(500 + i)))
	for j := 0; j < 2; j++ {
		added = append(added, datagen.Chemical(rng, fmt.Sprintf("pb-%d-%d", i, j),
			datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 9}))
	}
	if i >= 2 {
		removed = []string{fmt.Sprintf("pb-%d-0", i-2)}
	}
	return added, removed
}

// assertEquivalent asserts two DurableIndex states are observationally
// byte-equivalent: same corpus (names, order, structure), same per-shard
// epochs, same exact-search answers, and — when ANN is enabled — same
// similarity shortlists, scores included.
func assertEquivalent(t *testing.T, got, want *DurableIndex) {
	t.Helper()
	gc, wc := got.Corpus(), want.Corpus()
	if gc.Len() != wc.Len() {
		t.Fatalf("corpus length %d, want %d", gc.Len(), wc.Len())
	}
	wc.Each(func(i int, wg *graph.Graph) {
		if gg := gc.Graph(i); gg.Name() != wg.Name() || gg.Dump() != wg.Dump() {
			t.Fatalf("corpus graph %d (%s) differs after recovery", i, wg.Name())
		}
	})
	gi, wi := got.Index(), want.Index()
	if !reflect.DeepEqual(gi.Epochs(), wi.Epochs()) {
		t.Fatalf("epochs %v, want %v", gi.Epochs(), wi.Epochs())
	}
	rng := rand.New(rand.NewSource(77))
	for qi := 0; qi < 4; qi++ {
		src := wc.Graph(rng.Intn(wc.Len()))
		q := datagen.RandomConnectedSubgraph(rng, src, 4)
		if q == nil {
			continue
		}
		opts := pattern.MatchOptions()
		gr, wr := gi.Search(q, opts), wi.Search(q, opts)
		if !reflect.DeepEqual(gr.Matches, wr.Matches) {
			t.Fatalf("query %d: search %v, want %v", qi, gr.Matches, wr.Matches)
		}
		if gi.ANNEnabled() {
			gs, gerr := gi.Similar(q, gindex.SimilarOptions{K: 5})
			ws, werr := wi.Similar(q, gindex.SimilarOptions{K: 5})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("query %d: similar err %v vs %v", qi, gerr, werr)
			}
			if gerr == nil && !reflect.DeepEqual(gs.Matches, ws.Matches) {
				t.Fatalf("query %d: similar %v, want %v", qi, gs.Matches, ws.Matches)
			}
		}
	}
}

// TestDurableIndexCrashRecovery is the full-stack crash property: for
// every store fault site and call number, run a seeded boot + update
// stream with the fault armed, "crash" (abandon the instance), recover
// from the directory, and assert the recovered index is equivalent —
// corpus, epochs, exact search, ANN shortlists — to a never-crashed
// oracle that applied exactly the durable prefix.
func TestDurableIndexCrashRecovery(t *testing.T) {
	const nBatches = 5
	seed := persistCorpus(10)
	annCfg := ann.Config{Tables: 4, Bits: 6, Seed: 3}
	baseOpts := DurableIndexOptions{Shards: 4, Workers: 2, ANN: &annCfg}

	// Oracle chain: never-crashed DurableIndex states after each seq,
	// rebuilt per subtest from a pristine directory.
	buildOracle := func(t *testing.T, upto int) *DurableIndex {
		dir := t.TempDir()
		di, _, err := OpenDurableIndex(context.Background(), dir, seed.Clone(), baseOpts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < upto; i++ {
			added, removed := persistBatch(i)
			if _, _, err := di.ApplyBatch(added, removed); err != nil {
				t.Fatal(err)
			}
		}
		return di
	}

	sites := []string{"store.wal.append", "store.wal.fsync", "store.snapshot.write", "store.recover.replay"}
	for _, mmap := range []bool{false, true} {
		recOpts := baseOpts
		recOpts.Store = store.Options{Mmap: mmap}
		for _, site := range sites {
			for call := 0; call < nBatches+1; call++ {
				t.Run(fmt.Sprintf("mmap-%v/%s/call-%d", mmap, site, call), func(t *testing.T) {
					dir := t.TempDir()
					inj := faultinject.New(13, faultinject.Fault{
						Site:  site,
						Err:   errors.New("injected crash"),
						After: call,
						Count: 1,
					})
					opts := baseOpts
					opts.Store = store.Options{Inject: inj}
					di, _, err := OpenDurableIndex(context.Background(), dir, seed.Clone(), opts)
					if err != nil {
						// Crash during seeding: nothing durable yet — recovery from
						// the same seed must reach a clean initial state.
						rec, rep, rerr := OpenDurableIndex(context.Background(), dir, seed.Clone(), recOpts)
						if rerr != nil {
							t.Fatalf("recovery after seed crash: %v", rerr)
						}
						defer rec.Close()
						if rep.Seq != 0 {
							t.Fatalf("seed-crash recovery at seq %d", rep.Seq)
						}
						oracle := buildOracle(t, 0)
						defer oracle.Close()
						assertEquivalent(t, rec, oracle)
						return
					}
					acked := 0
					attempted := 0
					for i := 0; i < nBatches; i++ {
						added, removed := persistBatch(i)
						attempted++
						if _, _, err := di.ApplyBatch(added, removed); err != nil {
							break
						}
						acked++
						if i == 2 {
							// Mid-stream compaction: snapshot write + WAL fold under
							// the armed fault too.
							if _, err := di.Compact(); err != nil {
								break
							}
						}
					}
					// Crash: abandon di without Close (releases the directory
					// lock the way a process death would, flushes nothing).
					di.Abandon()

					rec, rep, err := OpenDurableIndex(context.Background(), dir, seed.Clone(), recOpts)
					if err != nil {
						t.Fatalf("recovery failed: %v", err)
					}
					defer rec.Close()
					k := int(rep.Seq)
					if k < acked || k > attempted {
						t.Fatalf("recovered seq %d outside [acked=%d, attempted=%d]", k, acked, attempted)
					}
					oracle := buildOracle(t, k)
					defer oracle.Close()
					assertEquivalent(t, rec, oracle)

					// Recovered instance must accept further durable updates.
					added, removed := persistBatch(k)
					seq, _, err := rec.ApplyBatch(added, removed)
					if err != nil {
						t.Fatalf("post-recovery apply: %v", err)
					}
					if seq != uint64(k+1) {
						t.Fatalf("post-recovery seq %d, want %d", seq, k+1)
					}
				})
			}
		}
	}
}

// TestDurableIndexMmapColdBoot pins the O(index) boot contract: after a
// compaction wrote sections, an -mmap reopen restores every shard from
// its persisted section without hydrating a single graph, and still
// answers exactly like the eager boot.
func TestDurableIndexMmapColdBoot(t *testing.T) {
	dir := t.TempDir()
	seed := persistCorpus(12)
	annCfg := ann.Config{Tables: 4, Bits: 6, Seed: 3}
	opts := DurableIndexOptions{Shards: 4, Workers: 2, ANN: &annCfg}
	di, _, err := OpenDurableIndex(context.Background(), dir, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		added, removed := persistBatch(i)
		if _, _, err := di.ApplyBatch(added, removed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	di.Close()

	mopts := opts
	mopts.Store = store.Options{Mmap: true}
	rec, rep, err := OpenDurableIndex(context.Background(), dir, nil, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SectionsRestored != 4 || rep.SectionsRebuilt != 0 {
		t.Fatalf("sections restored/rebuilt = %d/%d, want 4/0", rep.SectionsRestored, rep.SectionsRebuilt)
	}
	if rep.Replayed != 0 {
		t.Fatalf("replayed %d batches after compaction", rep.Replayed)
	}
	if !rep.EpochsRestored {
		t.Fatal("epochs not restored")
	}
	// The whole point: nothing was decoded at boot.
	rc := rec.Corpus()
	for i := 0; i < rc.Len(); i++ {
		if rc.Hydrated(i) {
			t.Fatalf("graph %d hydrated during mmap cold boot", i)
		}
	}
	// Answers match a never-restarted instance that applied the same
	// batch chain (hydrating on demand as queries touch graphs).
	eager, _, err := OpenDurableIndex(context.Background(), t.TempDir(), persistCorpus(12), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	for i := 0; i < 3; i++ {
		added, removed := persistBatch(i)
		if _, _, err := eager.ApplyBatch(added, removed); err != nil {
			t.Fatal(err)
		}
	}
	assertEquivalent(t, rec, eager)
	rec.Close()
}

// TestDurableIndexMmapApplyBatchStaysLazy: on an mmap-booted index, a
// batch update derives the touched shards without decoding a single
// surviving graph, and the added graphs are immediately searchable.
func TestDurableIndexMmapApplyBatchStaysLazy(t *testing.T) {
	dir := t.TempDir()
	annCfg := ann.Config{Tables: 4, Bits: 6, Seed: 3}
	opts := DurableIndexOptions{Shards: 2, Workers: 2, ANN: &annCfg}
	di, _, err := OpenDurableIndex(context.Background(), dir, persistCorpus(16), opts)
	if err != nil {
		t.Fatal(err)
	}
	// One batch so the compaction has a WAL record to fold.
	if _, _, err := di.ApplyBatch(persistBatch(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	di.Close()

	mopts := opts
	mopts.Store = store.Options{Mmap: true}
	rec, rep, err := OpenDurableIndex(context.Background(), dir, nil, mopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.SectionsRestored != 2 {
		t.Fatalf("sections restored = %d, want 2", rep.SectionsRestored)
	}
	removed := []string{rec.Corpus().Name(0), rec.Corpus().Name(5)}
	added, _ := persistBatch(1)
	if _, _, err := rec.ApplyBatch(added, removed); err != nil {
		t.Fatal(err)
	}
	c := rec.Corpus()
	survivors := c.Len() - len(added)
	for i := 0; i < survivors; i++ {
		if c.Hydrated(i) {
			t.Fatalf("survivor %s hydrated by ApplyBatch", c.Name(i))
		}
	}
	for _, g := range added {
		res := rec.Index().Search(g, pattern.MatchOptions())
		if !slices.Contains(res.Matches, g.Name()) {
			t.Fatalf("added graph %s not found: %v", g.Name(), res.Matches)
		}
	}
}

// TestDurableIndexMmapSectionEpochMismatchRebuilds: a snapshot whose
// sections disagree with the recovered epochs (here: stale sections from
// an older compaction followed by more batches) must rebuild, not restore
// stale index state.
func TestDurableIndexMmapSuffixReplayRebuildsTouchedShards(t *testing.T) {
	dir := t.TempDir()
	seed := persistCorpus(10)
	opts := DurableIndexOptions{Shards: 4, Workers: 2}
	di, _, err := OpenDurableIndex(context.Background(), dir, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	added0, removed0 := persistBatch(0)
	if _, _, err := di.ApplyBatch(added0, removed0); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	// A post-compaction batch leaves a WAL suffix past the sections.
	added1, removed1 := persistBatch(1)
	if _, _, err := di.ApplyBatch(added1, removed1); err != nil {
		t.Fatal(err)
	}
	di.Close()

	mopts := opts
	mopts.Store = store.Options{Mmap: true}
	rec, rep, err := OpenDurableIndex(context.Background(), dir, nil, mopts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 1 {
		t.Fatalf("replayed %d, want 1", rep.Replayed)
	}
	if rep.SectionsRestored == 0 {
		t.Fatal("no sections restored despite matching epochs at snapshot seq")
	}
	// Replay went through ApplyBatch, so epochs must match the live chain.
	eager, _, err := OpenDurableIndex(context.Background(), t.TempDir(), seed.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()
	if _, _, err := eager.ApplyBatch(added0, removed0); err != nil {
		t.Fatal(err)
	}
	if _, err := eager.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eager.ApplyBatch(added1, removed1); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, rec, eager)
}

// TestDurableIndexCompactThenRecover pins the compaction path end to end:
// epochs recovered from a compacted snapshot match the live instance even
// though no WAL records remain to replay.
func TestDurableIndexCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	seed := persistCorpus(12)
	opts := DurableIndexOptions{Shards: 3, Workers: 1}
	di, rep, err := OpenDurableIndex(context.Background(), dir, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Seeded {
		t.Fatal("fresh dir not seeded")
	}
	for i := 0; i < 4; i++ {
		added, removed := persistBatch(i)
		if _, _, err := di.ApplyBatch(added, removed); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	di.Close()

	rec, rrep, err := OpenDurableIndex(context.Background(), dir, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rrep.Replayed != 0 {
		t.Fatalf("replayed %d batches after compaction, want 0", rrep.Replayed)
	}
	if !rrep.EpochsRestored {
		t.Fatal("epochs not restored from compacted snapshot")
	}
	if !reflect.DeepEqual(rec.Index().Epochs(), di.Index().Epochs()) {
		t.Fatalf("epochs %v, want %v", rec.Index().Epochs(), di.Index().Epochs())
	}
	if rec.Corpus().Len() != di.Corpus().Len() {
		t.Fatalf("corpus len %d, want %d", rec.Corpus().Len(), di.Corpus().Len())
	}
}

// TestDurableIndexShardCountChange: restarting with a different shard
// count is allowed — epochs restart at zero (cache warmth lost, nothing
// else) and the corpus still recovers exactly.
func TestDurableIndexShardCountChange(t *testing.T) {
	dir := t.TempDir()
	seed := persistCorpus(10)
	di, _, err := OpenDurableIndex(context.Background(), dir, seed, DurableIndexOptions{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	added, removed := persistBatch(0)
	if _, _, err := di.ApplyBatch(added, removed); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	di.Close()

	rec, rep, err := OpenDurableIndex(context.Background(), dir, nil, DurableIndexOptions{Shards: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.EpochsRestored {
		t.Fatal("epochs claimed restored across a shard-count change")
	}
	if rec.Index().NumShards() != 5 {
		t.Fatalf("shards = %d, want 5", rec.Index().NumShards())
	}
	if rec.Corpus().Len() != di.Corpus().Len() {
		t.Fatalf("corpus len %d, want %d", rec.Corpus().Len(), di.Corpus().Len())
	}
}

// TestDurableIndexRejectsInvalidBatch: validation happens before the WAL
// append, so a rejected batch leaves no durable record and no state
// change.
func TestDurableIndexRejectsInvalidBatch(t *testing.T) {
	dir := t.TempDir()
	di, _, err := OpenDurableIndex(context.Background(), dir, persistCorpus(6), DurableIndexOptions{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := di.ApplyBatch(nil, []string{"no-such-graph"}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if di.LastSeq() != 0 {
		t.Fatalf("rejected batch advanced seq to %d", di.LastSeq())
	}
	di.Close()
	rec, rep, err := OpenDurableIndex(context.Background(), dir, nil, DurableIndexOptions{Shards: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 0 || rep.Seq != 0 {
		t.Fatalf("rejected batch left durable traces: %+v", rep)
	}
}
