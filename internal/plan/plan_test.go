package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// randStats builds deterministic pseudo-random corpus statistics covering
// every label of the given graphs, so ordering decisions exercise real
// rarity differences (and real ties).
func randStats(rng *rand.Rand, graphs ...*graph.Graph) *MapStats {
	st := &MapStats{
		N:    100,
		Node: map[string]int{},
		Edge: map[string]int{},
		Trip: map[[3]string]int{},
	}
	for _, g := range graphs {
		for v := 0; v < g.NumNodes(); v++ {
			l := g.NodeLabel(v)
			if _, ok := st.Node[l]; !ok {
				st.Node[l] = 1 + rng.Intn(st.N)
			}
		}
		for _, e := range g.Edges() {
			if _, ok := st.Edge[e.Label]; !ok {
				st.Edge[e.Label] = 1 + rng.Intn(st.N)
			}
			a, b := g.NodeLabel(e.U), g.NodeLabel(e.V)
			if a > b {
				a, b = b, a
			}
			k := [3]string{a, e.Label, b}
			if _, ok := st.Trip[k]; !ok {
				st.Trip[k] = 1 + rng.Intn(st.N)
			}
		}
	}
	return st
}

func randomPatterns(t *testing.T, seed int64, count, minNodes, maxNodes int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := datagen.Chemical(rng, "base", datagen.ChemicalOptions{MinNodes: 40, MaxNodes: 60})
	var out []*graph.Graph
	for len(out) < count {
		size := minNodes + rng.Intn(maxNodes-minNodes+1)
		q := datagen.RandomConnectedSubgraph(rng, base, size)
		if q.NumNodes() >= minNodes && q.NumEdges() >= 1 {
			out = append(out, q)
		}
	}
	return out
}

func TestParseInternsSortedLabels(t *testing.T) {
	g := graph.New("q")
	g.AddNode("O")
	g.AddNode("C")
	g.AddNode("N")
	g.AddEdge(0, 1, "s")
	g.AddEdge(1, 2, "d")
	a := Parse(g)
	want := []string{"C", "N", "O", "d", "s"}
	if !reflect.DeepEqual(a.Labels, want) {
		t.Fatalf("intern table = %v, want %v", a.Labels, want)
	}
	if a.Nodes[0].LabelID != 2 || a.Nodes[1].LabelID != 0 {
		t.Fatalf("node label ids = %+v", a.Nodes)
	}
	if !a.Connected {
		t.Fatal("path pattern should parse as connected")
	}
	if a.LabelID("s") != 4 || a.LabelID("zz") != -1 {
		t.Fatalf("LabelID lookups wrong: s=%d zz=%d", a.LabelID("s"), a.LabelID("zz"))
	}
}

// TestOrderIsValidPermutation: the compiled order is always a permutation,
// and for connected patterns every node after the first is adjacent to an
// earlier node (connectivity-preserving — what keeps VF2 anchored).
func TestOrderIsValidPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, q := range randomPatterns(t, 7, 40, 3, 14) {
		a := Parse(q)
		ord := a.RarestFirstOrder(randStats(rng, q))
		if len(ord) != q.NumNodes() {
			t.Fatalf("pattern %d: order len %d, want %d", i, len(ord), q.NumNodes())
		}
		seen := make([]bool, q.NumNodes())
		for _, v := range ord {
			if v < 0 || v >= q.NumNodes() || seen[v] {
				t.Fatalf("pattern %d: order %v is not a permutation", i, ord)
			}
			seen[v] = true
		}
		if !a.Connected {
			continue
		}
		for j := 1; j < len(ord); j++ {
			anchored := false
			for k := 0; k < j && !anchored; k++ {
				anchored = q.HasEdge(ord[j], ord[k])
			}
			if !anchored {
				t.Fatalf("pattern %d: order %v breaks connectivity at %d", i, ord, j)
			}
		}
	}
}

// TestOrderStartsAtRarestEdge: the first two nodes span an edge with the
// minimum rarity over all edges, rarer endpoint first.
func TestOrderStartsAtRarestEdge(t *testing.T) {
	g := graph.New("q")
	g.AddNode("A") // 0
	g.AddNode("B") // 1
	g.AddNode("C") // 2
	g.AddNode("D") // 3
	g.AddEdge(0, 1, "x")
	g.AddEdge(1, 2, "x")
	g.AddEdge(2, 3, "y")
	st := &MapStats{
		N:    100,
		Node: map[string]int{"A": 90, "B": 80, "C": 20, "D": 70},
		Edge: map[string]int{"x": 50, "y": 60},
		Trip: map[[3]string]int{
			{"A", "x", "B"}: 40, {"B", "x", "C"}: 5, {"C", "y", "D"}: 30,
		},
	}
	a := Parse(g)
	ord := a.RarestFirstOrder(st)
	// Rarest edge is (1,2) at 5; endpoint C (node 2, rarity 20) is rarer
	// than B (node 1, rarity 80).
	if ord[0] != 2 || ord[1] != 1 {
		t.Fatalf("order %v, want start [2 1 ...]", ord)
	}
}

// TestOrderByteStableAcrossDrawings is the determinism regression: two
// drawings of the same pattern — nodes inserted in different orders — must
// compile to orders with identical label sequences, because all rarity
// ties break on interned label ids (sorted label table), never on node
// insertion order.
func TestOrderByteStableAcrossDrawings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(perm []int) *graph.Graph {
		// K3 with all-equal stats: every tie-break falls through to labels.
		labels := []string{"C", "N", "O"}
		g := graph.New("q")
		for _, p := range perm {
			g.AddNode(labels[p])
		}
		g.AddEdge(0, 1, "s")
		g.AddEdge(1, 2, "s")
		g.AddEdge(0, 2, "s")
		return g
	}
	st := &MapStats{
		N:    100,
		Node: map[string]int{"C": 50, "N": 50, "O": 50},
		Edge: map[string]int{"s": 50},
		Trip: map[[3]string]int{},
	}
	_ = rng
	var wantLabels []string
	for _, perm := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}} {
		g := mk(perm)
		ord := Parse(g).RarestFirstOrder(st)
		got := make([]string, len(ord))
		for i, v := range ord {
			got[i] = g.NodeLabel(v)
		}
		if wantLabels == nil {
			wantLabels = got
			continue
		}
		if !reflect.DeepEqual(got, wantLabels) {
			t.Fatalf("drawing %v ordered labels %v, want %v (tie-break is not drawing-invariant)",
				perm, got, wantLabels)
		}
	}
}

// TestOrderDeterministic: repeated compiles of the identical input are
// byte-equal.
func TestOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, q := range randomPatterns(t, 13, 10, 4, 12) {
		st := randStats(rng, q)
		first := Parse(q).RarestFirstOrder(st)
		for i := 0; i < 5; i++ {
			if got := Parse(q).RarestFirstOrder(st); !reflect.DeepEqual(got, first) {
				t.Fatalf("recompile %d: order %v != %v", i, got, first)
			}
		}
	}
}

// TestCompileStrategySelection: without ANN every pattern — large ones
// included — compiles monolithic, Force overrides where feasible, and the
// retired decomposed strategy degrades to monolithic.
func TestCompileStrategySelection(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	patterns := randomPatterns(t, 19, 30, 10, 16)
	for _, q := range patterns {
		st := randStats(rng, q)
		for _, cfg := range []Config{
			{}, {MaxResults: 5}, {HasViewCache: true}, {Force: StrategyMonolithic},
			{Force: StrategyDecomposed}, {Force: StrategyDecomposed, ANN: true},
		} {
			if pl := Compile(q, st, cfg); pl.Strategy != StrategyMonolithic {
				t.Fatalf("config %+v compiled to %s, want monolithic", cfg, pl.Strategy)
			}
		}
		fa := Compile(q, st, Config{Force: StrategyANN})
		if fa.Strategy != StrategyMonolithic {
			t.Fatalf("Force ann without ANN config got %s, want monolithic fallback", fa.Strategy)
		}
		fa = Compile(q, st, Config{Force: StrategyANN, ANN: true})
		if fa.Strategy != StrategyANN {
			t.Fatalf("Force ann with ANN config got %s", fa.Strategy)
		}
	}
	// ANN kicks in only under a budget with a large candidate estimate.
	wide := graph.New("wide")
	wide.AddNode("C")
	wide.AddNode("C")
	wide.AddEdge(0, 1, "s")
	st := &MapStats{N: 1000, Node: map[string]int{"C": 1000}, Edge: map[string]int{"s": 1000},
		Trip: map[[3]string]int{{"C", "s", "C"}: 1000}}
	pl := Compile(wide, st, Config{ANN: true, MaxResults: 5})
	if pl.Strategy != StrategyANN {
		t.Fatalf("broad budgeted query compiled to %s, want ann", pl.Strategy)
	}
	pl = Compile(wide, st, Config{ANN: true})
	if pl.Strategy != StrategyMonolithic {
		t.Fatalf("unbudgeted query compiled to %s, want monolithic", pl.Strategy)
	}
}

// TestCompileDeterministic: equal inputs compile byte-equal plans.
func TestCompileDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, q := range randomPatterns(t, 23, 10, 8, 14) {
		st := randStats(rng, q)
		cfg := Config{ANN: true, MaxResults: 1}
		a := Compile(q, st, cfg)
		for i := 0; i < 3; i++ {
			if b := Compile(q, st, cfg); !reflect.DeepEqual(a, b) || a.String() != b.String() {
				t.Fatalf("recompile diverged: %s vs %s", a, b)
			}
		}
	}
}
