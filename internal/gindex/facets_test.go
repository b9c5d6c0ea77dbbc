package gindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/results"
)

// randomPanel draws n small connected patterns from c.
func randomPanel(rng *rand.Rand, c *graph.Corpus, n int) []*pattern.Pattern {
	var out []*pattern.Pattern
	for len(out) < n {
		if g := datagen.RandomConnectedSubgraph(rng, c.Graph(rng.Intn(c.Len())), 2+rng.Intn(4)); g != nil {
			out = append(out, &pattern.Pattern{G: g})
		}
	}
	return out
}

// memoFacets groups matched by the index's memoized masks, as vqiserve
// does.
func memoFacets(sh *Sharded, matched []string, p *Panel) ([]results.Facet, []string) {
	masks := sh.PanelMasks(matched, p)
	return results.Group(matched, p.Len(), func(pi, mi int) bool { return masks[mi].Get(pi) })
}

// facetChecker runs queries against a maintained index and checks every
// memoized answer against results.Facets over the live corpus. It also
// checks that faceting hydrates no graph outside the answer and that a
// mask slot is only ever filled for a graph some answer matched.
type facetChecker struct {
	t       *testing.T
	pats    []*pattern.Pattern
	panel   *Panel
	matched map[string]bool // every name any answer has matched
	facets  int             // facets seen across answers
}

func (fc *facetChecker) check(what string, d *deltaChain, queries int) {
	fc.t.Helper()
	for qi, q := range randomQueries(d.rng, d.live, queries) {
		res := d.sh.Search(q, pattern.MatchOptions())
		inAnswer := map[string]bool{}
		for _, name := range res.Matches {
			inAnswer[name] = true
			fc.matched[name] = true
		}
		resident := hydratedNames(d.sh)
		gotF, gotR := memoFacets(d.sh, res.Matches, fc.panel)
		wantF, wantR := results.Facets(res.Matches, d.live, fc.pats, pattern.MatchOptions())
		fc.facets += len(gotF)
		if !reflect.DeepEqual(gotF, wantF) || !reflect.DeepEqual(gotR, wantR) {
			fc.t.Fatalf("%s q%d: memo facets %v rest %v, results.Facets %v rest %v", what, qi, gotF, gotR, wantF, wantR)
		}
		for name := range hydratedNames(d.sh) {
			if !resident[name] && !inAnswer[name] {
				fc.t.Fatalf("%s q%d: faceting hydrated %s, which the answer does not hold", what, qi, name)
			}
		}
	}
	for s, core := range d.sh.shards {
		for li := range core.idx.panelMask {
			if name := core.sub.Name(li); core.idx.panelMask[li].Load() != nil && !fc.matched[name] {
				fc.t.Fatalf("%s: shard %d filled a mask for %s, which no answer matched", what, s, name)
			}
		}
	}
}

// hydratedNames returns the names of sh's resident graphs.
func hydratedNames(sh *Sharded) map[string]bool {
	out := map[string]bool{}
	for _, core := range sh.shards {
		for li := 0; li < core.sub.Len(); li++ {
			if core.sub.Hydrated(li) {
				out[core.sub.Name(li)] = true
			}
		}
	}
	return out
}

// TestPanelMasksMatchFacets: across shard counts, built and
// section-restored lazy indexes, and batch chains whose removals renumber
// every shard's slots, faceting by memoized masks equals results.Facets
// on every answer, hydrates nothing outside the answer, and fills masks
// only for matched graphs. Survivors keep their masks across a batch.
func TestPanelMasksMatchFacets(t *testing.T) {
	seed := int64(70)
	for _, k := range []int{1, 3} {
		for _, restored := range []bool{false, true} {
			seed++
			t.Run(fmt.Sprintf("k=%d/restored=%v", k, restored), func(t *testing.T) {
				d := newDeltaChain(t, seed, k, nil, restored)
				pats := randomPanel(d.rng, d.live, 6)
				fc := &facetChecker{t: t, pats: pats, panel: NewPanel(pats), matched: map[string]bool{}}
				fc.check("initial", d, 6)
				carried := 0
				for i := 0; i < 4; i++ {
					before := d.sh
					d.randomBatch(fmt.Sprintf("batch %d", i))
					carried += checkMasksCarried(t, before, d.sh)
					fc.check(fmt.Sprintf("after batch %d", i), d, 4)
				}
				if fc.facets == 0 || carried == 0 {
					t.Fatalf("vacuous run: %d facets, %d masks carried", fc.facets, carried)
				}
				// Another panel recomputes rather than reading the first
				// panel's masks, and the first stays correct afterwards.
				other := randomPanel(d.rng, d.live, 4)
				fc2 := &facetChecker{t: t, pats: other, panel: NewPanel(other), matched: fc.matched}
				fc2.check("second panel", d, 4)
				fc.check("first panel again", d, 4)
			})
		}
	}
}

// checkMasksCarried asserts that every graph surviving from prev into next
// kept its mask slot's value, and returns how many filled masks survived.
func checkMasksCarried(t *testing.T, prev, next *Sharded) int {
	t.Helper()
	filled := 0
	for s, core := range next.shards {
		for li := 0; li < core.sub.Len(); li++ {
			name := core.sub.Name(li)
			gp, ok := prev.pos[name]
			if !ok || ShardOf(name, prev.k) != s {
				continue
			}
			pcore := prev.shards[s]
			pli, _ := pcore.sub.IndexOf(name)
			if pcore.sub.Name(pli) != name || prev.globals[s][pli] != gp {
				t.Fatalf("test bookkeeping: %s not at its old slot", name)
			}
			m := core.idx.panelMask[li].Load()
			if m != pcore.idx.panelMask[pli].Load() {
				t.Fatalf("survivor %s lost its mask across the batch", name)
			}
			if m != nil {
				filled++
			}
		}
	}
	return filled
}

// TestPanelMasksConcurrent: concurrent answers fill the same slots, under
// two panels at once; every reader sees exactly the on-the-fly masks.
// Run with -race.
func TestPanelMasksConcurrent(t *testing.T) {
	c := datagen.ChemicalCorpus(9, 60, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 14})
	rng := rand.New(rand.NewSource(9))
	panels := [][]*pattern.Pattern{randomPanel(rng, c, 5), randomPanel(rng, c, 3)}
	names := c.Names()
	for round := 0; round < 3; round++ {
		sh := BuildSharded(c, 3, 2)
		ps := []*Panel{NewPanel(panels[0]), NewPanel(panels[1])}
		want := make([][]pattern.Bitset, len(ps))
		for i, p := range ps {
			for _, name := range names {
				g, _ := c.ByName(name)
				want[i] = append(want[i], p.contains(g))
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					i := (w + rep) % len(ps)
					if got := sh.PanelMasks(names, ps[i]); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("worker %d rep %d panel %d: masks differ from the on-the-fly answer", w, rep, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestPanelMasksUnknownName: a name the index does not hold contains no
// pattern and reads no graph.
func TestPanelMasksUnknownName(t *testing.T) {
	c := datagen.ChemicalCorpus(2, 10, datagen.ChemicalOptions{MinNodes: 6, MaxNodes: 10})
	sh := BuildSharded(c, 2, 1)
	p := NewPanel(randomPanel(rand.New(rand.NewSource(2)), c, 3))
	masks := sh.PanelMasks([]string{"nope", c.Name(0)}, p)
	if masks[0].Popcount() != 0 || len(masks[0]) != len(masks[1]) {
		t.Fatalf("unknown name got mask %v", masks[0])
	}
}
