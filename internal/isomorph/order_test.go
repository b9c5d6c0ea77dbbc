package isomorph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// orderedLabels runs prepare() on (pattern, target) and returns the label
// sequence of the computed matching order — white-box access for the
// determinism regression.
func orderedLabels(p, t *graph.Graph, opts Options) []string {
	m := &matcher{p: p, t: t, opts: opts}
	m.prepare()
	out := make([]string, len(m.order))
	for i, v := range m.order {
		out[i] = p.NodeLabel(v)
	}
	return out
}

// TestPrepareTieBreakByLabel is the candidate-order determinism
// regression: when two pattern nodes tie on label rarity AND degree, the
// matching order must break the tie by label (equivalently, by interned
// label id — the intern table is sorted, so string order and id order
// agree), not by node insertion order. Two drawings of the same pattern
// must therefore produce identical ordered label sequences.
func TestPrepareTieBreakByLabel(t *testing.T) {
	target := graph.New("t")
	// One node of each label: all pattern labels tie on rarity (freq 1).
	for _, l := range []string{"A", "B", "C"} {
		target.AddNode(l)
	}
	target.AddEdge(0, 1, "x")
	target.AddEdge(1, 2, "x")
	target.AddEdge(0, 2, "x")

	mk := func(perm []string) *graph.Graph {
		g := graph.New("p")
		for _, l := range perm {
			g.AddNode(l)
		}
		// Triangle: every node has degree 2 — degree never breaks the tie.
		g.AddEdge(0, 1, "x")
		g.AddEdge(1, 2, "x")
		g.AddEdge(0, 2, "x")
		return g
	}
	var want []string
	for _, perm := range [][]string{
		{"A", "B", "C"}, {"C", "A", "B"}, {"B", "C", "A"}, {"C", "B", "A"},
	} {
		got := orderedLabels(mk(perm), target, Options{})
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drawing %v ordered labels %v, want %v — tie-break depends on insertion order", perm, got, want)
		}
	}
	if want[0] != "A" {
		t.Fatalf("tie-break should pick the smallest label first, got %v", want)
	}
}

// TestOptionsOrderEquivalence: any permutation supplied via Options.Order
// yields exactly the embeddings the heuristic order finds — the matching
// order changes Steps, never the answer.
func TestOptionsOrderEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		target := randomGraph(rng, 12, 20)
		pattern := randomGraph(rng, 4, 5)
		base := Count(pattern, target, Options{})
		n := pattern.NumNodes()
		perm := rng.Perm(n)
		got := Count(pattern, target, Options{Order: perm})
		if got.Embeddings != base.Embeddings {
			t.Fatalf("trial %d: order %v found %d embeddings, heuristic %d",
				trial, perm, got.Embeddings, base.Embeddings)
		}
		// Enumerated mappings must be the same set.
		collect := func(opts Options) map[string]bool {
			set := map[string]bool{}
			Enumerate(pattern, target, opts, func(m []graph.NodeID) bool {
				key := ""
				for _, v := range m {
					key += string(rune('a'+v)) + ","
				}
				set[key] = true
				return true
			})
			return set
		}
		if a, b := collect(Options{}), collect(Options{Order: perm}); !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: embedding sets differ under order %v", trial, perm)
		}
	}
}

// TestOptionsOrderInvalidIgnored: non-permutations (wrong length,
// out-of-range, duplicates) fall back to the heuristic instead of
// corrupting the search.
func TestOptionsOrderInvalidIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	target := randomGraph(rng, 10, 18)
	pattern := randomGraph(rng, 4, 4)
	base := Count(pattern, target, Options{})
	for _, bad := range [][]graph.NodeID{
		{0},
		{0, 1, 2, 99},
		{0, 0, 1, 2},
		{-1, 0, 1, 2},
		{0, 1, 2, 3, 4},
	} {
		got := Count(pattern, target, Options{Order: bad})
		if got.Embeddings != base.Embeddings {
			t.Fatalf("invalid order %v changed the answer: %d vs %d",
				bad, got.Embeddings, base.Embeddings)
		}
	}
}

// randomGraph builds a small random labeled graph (connected not
// required).
func randomGraph(rng *rand.Rand, nodes, edges int) *graph.Graph {
	labels := []string{"C", "N", "O"}
	g := graph.New("r")
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			g.AddEdge(u, v, []string{"s", "d"}[rng.Intn(2)]) //nolint:errcheck
		}
	}
	return g
}
