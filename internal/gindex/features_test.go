package gindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/isomorph"
)

// shardedCandidates returns the names of every graph some shard's filter
// admits for q.
func shardedCandidates(sh *Sharded, q *graph.Graph) map[string]bool {
	out := map[string]bool{}
	for s := 0; s < sh.NumShards(); s++ {
		for _, li := range sh.candidates(s, q) {
			out[sh.shards[s].sub.Name(li)] = true
		}
	}
	return out
}

// filterQueries returns random connected subgraphs of c plus, for each,
// variants with a wildcard node label, a wildcard edge label, and both —
// the shapes whose features the filter must skip.
func filterQueries(rng *rand.Rand, c *graph.Corpus, n int) []*graph.Graph {
	var out []*graph.Graph
	for _, q := range randomQueries(rng, c, n) {
		out = append(out, q)
		wn := q.Clone()
		wn.SetNodeLabel(rng.Intn(wn.NumNodes()), isomorph.Wildcard)
		out = append(out, wn)
		if q.NumEdges() == 0 {
			continue
		}
		we := q.Clone()
		we.SetEdgeLabel(rng.Intn(we.NumEdges()), isomorph.Wildcard)
		wb := wn.Clone()
		wb.SetEdgeLabel(rng.Intn(wb.NumEdges()), isomorph.Wildcard)
		out = append(out, we, wb)
	}
	return out
}

// checkSound asserts that no graph VF2 accepts under either matching
// semantics is filtered out of sh's candidates, scanning every graph of
// live (sh's corpus, eager).
func checkSound(t *testing.T, what string, sh *Sharded, live *graph.Corpus, queries []*graph.Graph) {
	t.Helper()
	for qi, q := range queries {
		cands := shardedCandidates(sh, q)
		for _, induced := range []bool{false, true} {
			opts := isomorph.Options{Induced: induced}
			live.Each(func(_ int, g *graph.Graph) {
				if !cands[g.Name()] && isomorph.Exists(q, g, opts) {
					t.Fatalf("%s q%d induced=%v: %s matches but was filtered out\nquery:\n%s",
						what, qi, induced, g.Name(), q.Dump())
				}
			})
		}
	}
}

// TestCandidatesSound is the filter's soundness property: across shard
// counts, wildcard node and edge labels, both matching semantics, batch
// derivations (removals renumber every shard) and section-restored
// shards, every graph VF2 accepts survives the filter. vqibench's oracle
// searches through the same filter, so this test is what proves it.
func TestCandidatesSound(t *testing.T) {
	seed := int64(40)
	for _, k := range []int{1, 3} {
		for _, restored := range []bool{false, true} {
			seed++
			t.Run(fmt.Sprintf("k=%d/restored=%v", k, restored), func(t *testing.T) {
				d := &deltaChain{t: t, k: k, rng: rand.New(rand.NewSource(seed)),
					live: datagen.ChemicalCorpus(seed, 90, datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 16})}
				d.sh = d.oracle()
				if restored {
					var rep *RestoreReport
					d.sh, rep = RestoreSharded(lazyCopy(t, d.live), k, 2, nil, sectionsMap(d.sh.EncodeSections()))
					if rep.Rebuilt != 0 {
						t.Fatalf("restore rebuilt %v", rep.RebuiltShards)
					}
				}
				checkSound(t, "initial", d.sh, d.live, filterQueries(d.rng, d.live, 12))
				for i := 0; i < 4; i++ {
					d.randomBatch(fmt.Sprintf("batch %d", i))
					checkSound(t, fmt.Sprintf("after batch %d", i), d.sh, d.live, filterQueries(d.rng, d.live, 8))
				}
			})
		}
	}
}

// TestCountFeaturesPrune pins each count feature on a corpus where
// presence alone cannot tell the graphs apart: the filter must admit
// exactly the graphs holding enough labeled nodes, enough copies of a
// triple, or a labeled node of high enough degree.
func TestCountFeaturesPrune(t *testing.T) {
	path := func(name string, labels ...string) *graph.Graph {
		g := graph.New(name)
		for i, l := range labels {
			g.AddNode(l)
			if i > 0 {
				g.MustAddEdge(i-1, i, "s")
			}
		}
		return g
	}
	star := func(name, center string, leaves int) *graph.Graph {
		g := graph.New(name)
		g.AddNode(center)
		for i := 1; i <= leaves; i++ {
			g.AddNode("O")
			g.MustAddEdge(0, i, "s")
		}
		return g
	}
	c := graph.NewCorpus()
	c.MustAdd(path("oneC", "C", "O", "O", "O"))        // 1 C, triple C-s-O once
	c.MustAdd(path("threeC", "C", "O", "C", "O", "C")) // 3 C, C-s-O four times, max C degree 2
	c.MustAdd(star("starC", "C", 3))                   // 1 C of degree 3, C-s-O three times
	idx := Build(c)
	cands := func(q *graph.Graph) []string {
		var out []string
		for _, gi := range idx.Candidates(q) {
			out = append(out, c.Name(gi))
		}
		if !reflect.DeepEqual(idx.Candidates(q), idx.CandidatesReference(q)) {
			t.Fatalf("fast %v vs reference %v", idx.Candidates(q), idx.CandidatesReference(q))
		}
		return out
	}
	// Three C nodes, no edges: only threeC holds three.
	q := graph.New("3C")
	q.AddNodes(3, "C")
	if got := cands(q); !reflect.DeepEqual(got, []string{"threeC"}) {
		t.Fatalf("≥3 C nodes: %v", got)
	}
	// C-s-O twice along a path: threeC (four copies) and starC (three).
	if got := cands(path("COC", "O", "C", "O")); !reflect.DeepEqual(got, []string{"threeC", "starC"}) {
		t.Fatalf("≥2 C-s-O triples: %v", got)
	}
	// A C of degree 3: only starC.
	if got := cands(star("deg3", "C", 3)); !reflect.DeepEqual(got, []string{"starC"}) {
		t.Fatalf("C of degree ≥3: %v", got)
	}
	// The same star with a wildcard center: no label to key the degree on,
	// so only the leaves' count (three O nodes) prunes threeC.
	ws := star("wild", isomorph.Wildcard, 3)
	if got := cands(ws); !reflect.DeepEqual(got, []string{"oneC", "starC"}) {
		t.Fatalf("wildcard center: %v", got)
	}
	// Wildcard edge labels skip the triple count, but the middle C still
	// needs degree 2, which oneC's lone end-of-path C lacks.
	we := path("O*C*O", "O", "C", "O")
	we.SetEdgeLabel(0, isomorph.Wildcard)
	we.SetEdgeLabel(1, isomorph.Wildcard)
	if got := cands(we); !reflect.DeepEqual(got, []string{"threeC", "starC"}) {
		t.Fatalf("wildcard edges: %v", got)
	}
	// A wildcard neighbor still counts toward the C's degree: O-C-* needs
	// a C of degree 2, so oneC goes.
	wn := path("O-C-*", "O", "C", isomorph.Wildcard)
	if got := cands(wn); !reflect.DeepEqual(got, []string{"threeC", "starC"}) {
		t.Fatalf("wildcard neighbor: %v", got)
	}
}

// TestSectionVersion1Rebuilt: a section of the previous format (version
// 1, no count levels) is rebuilt from graphs, never restored, and the
// rebuilt shards answer like a fresh build.
func TestSectionVersion1Rebuilt(t *testing.T) {
	c := datagen.ChemicalCorpus(8, 40, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 16})
	built := BuildSharded(c, 3, 2)
	secs := built.EncodeSections()
	for s := range secs {
		if secs[s][0] != sectionVersion {
			t.Fatalf("shard %d encoded version %d, want %d", s, secs[s][0], sectionVersion)
		}
		// The decoder reads the version byte first and stops there, so a
		// relabeled current section stands for any version-1 layout.
		secs[s] = append([]byte{1}, secs[s][1:]...)
	}
	restored, rep := RestoreSharded(c, 3, 2, nil, sectionsMap(secs))
	if rep.Restored != 0 || rep.Rebuilt != 3 {
		t.Fatalf("version-1 sections: restored %d, rebuilt %d; want 0 and 3", rep.Restored, rep.Rebuilt)
	}
	got, want := restored.EncodeSections(), built.EncodeSections()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rebuilt shards differ from a fresh build")
	}
}
