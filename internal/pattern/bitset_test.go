package pattern

import (
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Popcount() != 3 {
		t.Fatalf("popcount = %d", b.Popcount())
	}
	if !b.Get(64) || b.Get(63) {
		t.Fatal("Get wrong")
	}
	o := NewBitset(130)
	o.Set(1)
	o.Or(b)
	if o.Popcount() != 4 {
		t.Fatalf("or popcount = %d", o.Popcount())
	}
	c := b.Clone()
	c.Set(2)
	if b.Popcount() != 3 {
		t.Fatal("clone shares storage")
	}
	// AndNotCount: bits in b not in o — none, since o includes all of b.
	if n := b.AndNotCount(o); n != 0 {
		t.Fatalf("AndNotCount = %d", n)
	}
	if n := o.AndNotCount(b); n != 1 {
		t.Fatalf("AndNotCount = %d", n)
	}
}

func TestUniverseAndCoverBitset(t *testing.T) {
	c := testCorpus() // g0: 4 edges, g1: 3 edges
	u := NewUniverse(c)
	if u.Total() != 7 {
		t.Fatalf("universe total = %d", u.Total())
	}
	if u.Index(1, 0) != 4 {
		t.Fatalf("offset = %d", u.Index(1, 0))
	}
	tri := cyclePattern(3, "A")
	for e := 0; e < 3; e++ {
		tri.G.SetEdgeLabel(e, "-")
	}
	for v := 0; v < 3; v++ {
		tri.G.SetNodeLabel(v, "A")
	}
	bs := CoverBitset(tri, c, u, MatchOptions())
	// Triangle covers the 3 triangle edges of g0 only.
	if bs.Popcount() != 3 {
		t.Fatalf("cover popcount = %d", bs.Popcount())
	}
	// Agreement with CoverageIndex.
	idx := NewCoverageIndex(c, MatchOptions())
	idx.Commit(tri)
	count := 0
	idx.EachCovered(func(gi int, e graph.EdgeID) {
		if !bs.Get(u.Index(gi, e)) {
			t.Fatal("bitset and coverage index disagree")
		}
		count++
	})
	if count != bs.Popcount() {
		t.Fatal("coverage counts disagree")
	}
	// Empty pattern covers nothing.
	if CoverBitset(New(graph.New("e"), "t"), c, u, MatchOptions()).Popcount() != 0 {
		t.Fatal("empty pattern must cover nothing")
	}
}

// BenchmarkCoverBitset times one pattern's covered-edge sweep over an
// 80-compound corpus, the unit of work CATAPULT and MIDAS selection repeat
// per candidate. Run with -benchmem: the per-graph matcher set-up should
// not show up as allocations.
func BenchmarkCoverBitset(b *testing.B) {
	opts := datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30}
	c := datagen.ChemicalCorpus(41, 80, opts)
	u := NewUniverse(c)
	rng := rand.New(rand.NewSource(1))
	var pats []*Pattern
	for i := 0; i < 8; i++ {
		src := c.Graph(rng.Intn(c.Len()))
		pats = append(pats, New(datagen.RandomConnectedSubgraph(rng, src, 4+rng.Intn(4)), "bench"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBitset = CoverBitset(pats[i%len(pats)], c, u, MatchOptions())
	}
}

var benchBitset Bitset
