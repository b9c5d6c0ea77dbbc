package gindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// lazyCopy returns a corpus whose entries load c's graphs on first touch,
// the shape of an mmap-backed corpus.
func lazyCopy(t *testing.T, c *graph.Corpus) *graph.Corpus {
	t.Helper()
	out := graph.NewCorpus()
	c.EachName(func(i int, name string) {
		g := c.Graph(i)
		if err := out.AddLazy(name, func() (*graph.Graph, error) { return g, nil }); err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// deltaChain maintains one index through a chain of batches and, after
// every batch, checks it against a from-scratch build over the same
// corpus order: byte-equal sections, equal Search and Similar answers.
type deltaChain struct {
	t      *testing.T
	k      int
	annCfg *ann.Config
	rng    *rand.Rand
	sh     *Sharded
	live   *graph.Corpus // eager copy of the indexed corpus, in corpus order
	made   int
}

func newDeltaChain(t *testing.T, seed int64, k int, annCfg *ann.Config, restored bool) *deltaChain {
	// Over 64 graphs per shard at every K, so runs of survivors straddle
	// bitset words.
	c := datagen.ChemicalCorpus(seed, 200, datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 12})
	d := &deltaChain{t: t, k: k, annCfg: annCfg, rng: rand.New(rand.NewSource(seed)), live: c}
	d.sh = d.oracle()
	if restored {
		// A section-restored index carries no LSH projections; the first
		// batch touching a shard must compute them lazily.
		var rep *RestoreReport
		d.sh, rep = RestoreSharded(lazyCopy(t, c), k, 2, annCfg, sectionsMap(d.sh.EncodeSections()))
		if rep.Rebuilt != 0 {
			t.Fatalf("restore rebuilt %v", rep.RebuiltShards)
		}
	}
	d.check("initial")
	return d
}

func (d *deltaChain) oracle() *Sharded {
	if d.annCfg != nil {
		return BuildShardedANN(d.live, d.k, 2, *d.annCfg)
	}
	return BuildSharded(d.live, d.k, 2)
}

// fresh returns a new compound named name (a generated name when empty).
func (d *deltaChain) fresh(name string) *graph.Graph {
	if name == "" {
		d.made++
		name = fmt.Sprintf("delta%d", d.made)
	}
	return datagen.Chemical(d.rng, name, datagen.ChemicalOptions{MinNodes: 5, MaxNodes: 12})
}

func (d *deltaChain) freshN(n int) []*graph.Graph {
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = d.fresh("")
	}
	return out
}

// where returns the names of live graphs satisfying keep.
func (d *deltaChain) where(keep func(g *graph.Graph) bool) []string {
	var out []string
	d.live.Each(func(_ int, g *graph.Graph) {
		if keep(g) {
			out = append(out, g.Name())
		}
	})
	return out
}

func (d *deltaChain) apply(what string, added []*graph.Graph, removed []string) {
	d.t.Helper()
	next, _, err := d.sh.ApplyBatch(added, removed)
	if err != nil {
		d.t.Fatalf("%s: %v", what, err)
	}
	d.sh = next
	d.live = mutateCorpus(d.live, added, removed)
	d.check(what)
}

func (d *deltaChain) check(what string) {
	d.t.Helper()
	want := d.oracle()
	got, exp := d.sh.EncodeSections(), want.EncodeSections()
	for s := range exp {
		if !bytes.Equal(got[s], exp[s]) {
			d.t.Fatalf("%s (k=%d ann=%v): shard %d section differs from a fresh build", what, d.k, d.annCfg != nil, s)
		}
	}
	if d.live.Len() == 0 {
		return
	}
	opts := pattern.MatchOptions()
	for qi, q := range randomQueries(d.rng, d.live, 3) {
		gr, wr := d.sh.Search(q, opts), want.Search(q, opts)
		if !reflect.DeepEqual(gr, wr) {
			d.t.Fatalf("%s q%d: search %+v, want %+v", what, qi, gr, wr)
		}
		if d.annCfg == nil {
			continue
		}
		gs, err := d.sh.Similar(q, SimilarOptions{K: 5})
		if err != nil {
			d.t.Fatal(err)
		}
		ws, err := want.Similar(q, SimilarOptions{K: 5})
		if err != nil {
			d.t.Fatal(err)
		}
		if !reflect.DeepEqual(gs, ws) {
			d.t.Fatalf("%s q%d: similar %+v, want %+v", what, qi, gs, ws)
		}
	}
}

// randomBatch removes up to 3 random survivors and adds up to 3 new
// compounds.
func (d *deltaChain) randomBatch(what string) {
	names := d.live.Names()
	var removed []string
	for _, i := range d.rng.Perm(len(names))[:min(d.rng.Intn(4), len(names))] {
		removed = append(removed, names[i])
	}
	d.apply(what, d.freshN(d.rng.Intn(4)), removed)
}

// TestApplyBatchDerivesFreshBuild is the delta-maintenance oracle: over
// seeded batch chains at K in {1,2,3}, with ANN on and off, starting from
// a built or a section-restored index, every derived generation encodes
// to the same bytes as a from-scratch build over the same corpus order
// and answers Search and Similar identically. The chain covers removing
// every graph that carries some label, replacing a graph under the same
// name in one batch, and emptying then refilling a shard and the whole
// corpus.
func TestApplyBatchDerivesFreshBuild(t *testing.T) {
	annCfg := ann.NewConfig()
	seed := int64(0)
	for _, k := range []int{1, 2, 3} {
		for _, cfg := range []*ann.Config{nil, &annCfg} {
			for _, restored := range []bool{false, true} {
				seed++
				t.Run(fmt.Sprintf("k=%d/ann=%v/restored=%v", k, cfg != nil, restored), func(t *testing.T) {
					d := newDeltaChain(t, seed, k, cfg, restored)
					for i := 0; i < 5; i++ {
						d.randomBatch(fmt.Sprintf("random batch %d", i))
					}

					// The rarest node label: remove every graph carrying it.
					freq := map[string]int{}
					d.live.Each(func(_ int, g *graph.Graph) {
						for l := range g.NodeLabels() {
							freq[l]++
						}
					})
					labels := make([]string, 0, len(freq))
					for l := range freq {
						labels = append(labels, l)
					}
					sort.Slice(labels, func(i, j int) bool {
						if freq[labels[i]] != freq[labels[j]] {
							return freq[labels[i]] < freq[labels[j]]
						}
						return labels[i] < labels[j]
					})
					rare := labels[0]
					d.apply("remove label "+rare, nil, d.where(func(g *graph.Graph) bool { return g.NodeLabels()[rare] > 0 }))
					if n := d.sh.PlanStats().NodeLabelGraphs(rare); n != 0 {
						t.Fatalf("label %q removed from every graph still counts %d graphs", rare, n)
					}

					// Remove and re-add the same name in one batch.
					name := d.live.Name(d.rng.Intn(d.live.Len()))
					d.apply("replace "+name, []*graph.Graph{d.fresh(name)}, []string{name})

					// Empty shard 0, then refill it.
					d.apply("empty shard 0", nil, d.where(func(g *graph.Graph) bool { return ShardOf(g.Name(), k) == 0 }))
					var refill []*graph.Graph
					for len(refill) < 3 {
						if g := d.fresh(""); ShardOf(g.Name(), k) == 0 {
							refill = append(refill, g)
						}
					}
					d.apply("refill shard 0", refill, nil)

					// Empty every shard, then refill.
					d.apply("empty all", nil, d.live.Names())
					d.apply("refill all", d.freshN(6), nil)
					for i := 0; i < 4; i++ {
						d.randomBatch(fmt.Sprintf("random batch %d after refill", i))
					}
				})
			}
		}
	}
}
