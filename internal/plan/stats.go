package plan

// Stats is the corpus statistics surface the compiler plans against: for
// each label (or labeled edge triple), how many corpus graphs contain it
// at least once. gindex implements it over the same inverted bitsets its
// filter uses (one popcount per label), so the compiler's selectivity
// estimates are exact document frequencies, not samples.
//
// TripleGraphs takes its endpoint labels in normalized (a <= b) order —
// the same normalization gindex applies to its triple index. Lookups for
// labels absent from the corpus return 0.
type Stats interface {
	// Graphs is the corpus size.
	Graphs() int
	// NodeLabelGraphs is the number of graphs with >= 1 node labeled l.
	NodeLabelGraphs(l string) int
	// EdgeLabelGraphs is the number of graphs with >= 1 edge labeled l.
	EdgeLabelGraphs(l string) int
	// TripleGraphs is the number of graphs containing an edge labeled e
	// between nodes labeled a and b (a <= b).
	TripleGraphs(a, e, b string) int
}

// MapStats is a simple map-backed Stats, used by tests and by callers
// without an index at hand.
type MapStats struct {
	N    int
	Node map[string]int
	Edge map[string]int
	Trip map[[3]string]int
}

// Graphs implements Stats.
func (m *MapStats) Graphs() int { return m.N }

// NodeLabelGraphs implements Stats.
func (m *MapStats) NodeLabelGraphs(l string) int { return m.Node[l] }

// EdgeLabelGraphs implements Stats.
func (m *MapStats) EdgeLabelGraphs(l string) int { return m.Edge[l] }

// TripleGraphs implements Stats.
func (m *MapStats) TripleGraphs(a, e, b string) int {
	if a > b {
		a, b = b, a
	}
	return m.Trip[[3]string{a, e, b}]
}
