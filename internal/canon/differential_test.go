package canon

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// Label alphabets built to break any shortcut that compares labels outside
// the signature bytes: separators of both signature layers (| : , ( )),
// the wildcard "", digit labels whose separator-suffixed order flips
// ("12:" < "1:"), and prefix-related labels.
var (
	diffNodeLabels = []string{"", "C", "Cl", "C|", "C(", "1", "12", "1:", "|", ":", ",", "(", ")", "a,b"}
	diffEdgeLabels = []string{"", "1", "12", "1:", "12:", "-", "s", ":", ",", "(", ")", "|", "0"}
)

// diffGraph draws one differential input: a random, cycle, clique, star,
// path or disconnected graph of 1-14 nodes over a few labels picked from
// the adversarial alphabets (few labels, so symmetric graphs that need the
// individualization search are common).
func diffGraph(rng *rand.Rand) *graph.Graph {
	nodeLabels := pickLabels(rng, diffNodeLabels)
	edgeLabels := pickLabels(rng, diffEdgeLabels)
	g := graph.New("d")
	addShape(rng, g, 1+rng.Intn(14), nodeLabels, edgeLabels)
	if rng.Intn(5) == 0 && g.NumNodes() < 14 {
		// A second component: the disconnected case.
		addShape(rng, g, 1+rng.Intn(14-g.NumNodes()), nodeLabels, edgeLabels)
	}
	return g
}

func pickLabels(rng *rand.Rand, alphabet []string) []string {
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// addShape appends an n-node component of a random shape to g.
func addShape(rng *rand.Rand, g *graph.Graph, n int, nodeLabels, edgeLabels []string) {
	base := g.NumNodes()
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabels[rng.Intn(len(nodeLabels))])
	}
	edge := func(u, v int) {
		if u != v && !g.HasEdge(base+u, base+v) {
			g.MustAddEdge(base+u, base+v, edgeLabels[rng.Intn(len(edgeLabels))])
		}
	}
	switch rng.Intn(6) {
	case 0: // cycle
		for i := 0; i < n && n > 2; i++ {
			edge(i, (i+1)%n)
		}
	case 1: // clique
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edge(i, j)
			}
		}
	case 2: // star
		for i := 1; i < n; i++ {
			edge(0, i)
		}
	case 3: // path
		for i := 0; i+1 < n; i++ {
			edge(i, i+1)
		}
	default: // random density
		p := rng.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					edge(i, j)
				}
			}
		}
	}
}

// TestStringMatchesOracle is the byte-identity contract: String and Hash
// must return exactly what the pre-arena canonizer returned, on every
// input, permuted copies included.
func TestStringMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 20000; i++ {
		g := diffGraph(rng)
		if i%4 == 3 {
			g = permuted(g, rng)
		}
		want := refString(g)
		if got := String(g); got != want {
			t.Fatalf("graph %d: String differs from the oracle\n got %q\nwant %q\n%s", i, got, want, g.Dump())
		}
		h := fnv.New64a()
		h.Write([]byte(want))
		if got := Hash(g); got != h.Sum64() {
			t.Fatalf("graph %d: Hash %x, want FNV-1a of the oracle string %x", i, got, h.Sum64())
		}
	}
}

// TestStringMatchesOracleOnCompounds covers the shapes the selection
// frameworks canonicalize most: connected subgraphs of molecules.
func TestStringMatchesOracleOnCompounds(t *testing.T) {
	for i, g := range compoundPatterns(500) {
		if got, want := String(g), refString(g); got != want {
			t.Fatalf("pattern %d: String differs from the oracle\n got %q\nwant %q", i, got, want)
		}
	}
}

// compoundPatterns returns count seeded connected subgraphs (3-12 nodes)
// of chemical-compound graphs.
func compoundPatterns(count int) []*graph.Graph {
	rng := rand.New(rand.NewSource(7))
	out := make([]*graph.Graph, 0, count)
	for len(out) < count {
		mol := datagen.Chemical(rng, "m", datagen.ChemicalOptions{MinNodes: 14, MaxNodes: 30})
		out = append(out, datagen.RandomConnectedSubgraph(rng, mol, 3+rng.Intn(10)))
	}
	return out
}

// TestStringConcurrent runs String from several goroutines at once, each
// call drawing its own pooled canonizer.
func TestStringConcurrent(t *testing.T) {
	gs := compoundPatterns(100)
	want := make([]string, len(gs))
	for i, g := range gs {
		want[i] = refString(g)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, g := range gs {
				if got := String(g); got != want[i] {
					t.Errorf("pattern %d: concurrent String differs from the oracle", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWarmStringAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	g := cycle(10, "C")
	g.SetNodeLabel(3, "N")
	g.MustAddEdge(0, 5, "=")
	String(g)
	if avg := testing.AllocsPerRun(200, func() { String(g) }); avg > 1 {
		t.Fatalf("warm String allocates %.2f times per call, want ≤ 1", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { Hash(g) }); avg > 0 {
		t.Fatalf("warm Hash allocates %.2f times per call, want 0", avg)
	}
}

func BenchmarkString(b *testing.B) {
	benchCanon(b, String)
}

func BenchmarkStringOracle(b *testing.B) {
	benchCanon(b, refString)
}

var benchSink string

func benchCanon(b *testing.B, canon func(*graph.Graph) string) {
	gs := compoundPatterns(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = canon(gs[i%len(gs)])
	}
}
