package vqi

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestSuggestEmptyQuerySuggestsEverythingCheapestFirst(t *testing.T) {
	spec, _ := BuildManual(PresetChemistry, corpus())
	s := NewSession(spec, DataSource{})
	sugs, err := s.Suggest(0)
	if err != nil {
		t.Fatal(err)
	}
	// All panel entries with ≥1 edge qualify against the empty query.
	want := len(spec.Patterns.Basic) + len(spec.Patterns.Canned)
	if len(sugs) != want {
		t.Fatalf("suggestions = %d, want %d", len(sugs), want)
	}
	for i := 1; i < len(sugs); i++ {
		if sugs[i].NewEdges < sugs[i-1].NewEdges {
			t.Fatal("suggestions not ordered by step size")
		}
	}
	if sugs[0].NewEdges != 1 {
		t.Fatalf("cheapest suggestion has %d new edges, want 1 (the basic edge)", sugs[0].NewEdges)
	}
}

func TestSuggestContinuesPartialQuery(t *testing.T) {
	spec, _ := BuildManual(PresetChemistry, corpus())
	s := NewSession(spec, DataSource{})
	// Partial query: two aromatic-bonded carbons — a benzene fragment.
	a := s.AddNode("C")
	b := s.AddNode("C")
	if err := s.AddEdge(a, b, "a"); err != nil {
		t.Fatal(err)
	}
	sugs, err := s.Suggest(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions for benzene fragment")
	}
	foundBenzene := false
	for _, sg := range sugs {
		if sg.Pattern.Name == "benzene" {
			foundBenzene = true
		}
		// Every suggestion must actually contain the fragment.
		pg, _ := sg.Pattern.PatternGraph()
		if pg.NumEdges() <= 1 {
			t.Fatal("suggestion does not extend the query")
		}
	}
	if !foundBenzene {
		t.Fatal("benzene not suggested for an aromatic C-C fragment")
	}
	// A nitrogen-only query must NOT suggest benzene (no N in the ring).
	s2 := NewSession(spec, DataSource{})
	n1 := s2.AddNode("N")
	n2 := s2.AddNode("N")
	s2.AddEdge(n1, n2, "s")
	sugs2, err := s2.Suggest(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range sugs2 {
		if sg.Pattern.Name == "benzene" {
			t.Fatal("benzene suggested for an N-N fragment")
		}
	}
}

func TestSuggestLimitAndStampRoundTrip(t *testing.T) {
	spec := corpusSpec(t)
	s := NewSession(spec, DataSource{})
	sugs, err := s.Suggest(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sugs) > 2 {
		t.Fatalf("limit ignored: %d", len(sugs))
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions at all")
	}
	// The suggested index is stampable.
	if _, err := s.StampPattern(sugs[0].PatternIndex); err != nil {
		t.Fatalf("suggested index not stampable: %v", err)
	}
}

func TestSuggestForSpec(t *testing.T) {
	spec, _ := BuildManual(PresetChemistry, corpus())
	q := graph.New("partial")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "d")
	sugs, err := SuggestForSpec(spec, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The carbonyl chain contains C=O; it must be among the suggestions.
	found := false
	for _, sg := range sugs {
		if sg.Pattern.Name == "carbonyl-chain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("carbonyl-chain not suggested for a C=O fragment: %+v", sugs)
	}
}

// TestSuggestSeesPanelEdits guards the decoded-panel memo: editing a
// pattern in place, or adding one, between calls must change what Suggest
// matches against.
func TestSuggestSeesPanelEdits(t *testing.T) {
	spec, _ := BuildManual(PresetChemistry, corpus())
	q := graph.New("partial")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "d")
	suggested := func(name string) bool {
		sugs, err := SuggestForSpec(spec, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range sugs {
			if sg.Pattern.Name == name {
				return true
			}
		}
		return false
	}
	if !suggested("carbonyl-chain") {
		t.Fatal("carbonyl-chain not suggested for a C=O fragment")
	}
	for i, ps := range spec.Patterns.Canned {
		if ps.Name != "carbonyl-chain" {
			continue
		}
		for j, e := range ps.Edges {
			if e.Label == "d" {
				spec.Patterns.Canned[i].Edges[j].Label = "s"
			}
		}
	}
	if suggested("carbonyl-chain") {
		t.Fatal("Suggest matched a stale decode of an edited pattern")
	}
	spec.Patterns.Canned = append(spec.Patterns.Canned, PatternSpec{
		Name: "added", NodeLabels: []string{"C", "O", "C"},
		Edges: []EdgeSpec{{U: 0, V: 1, Label: "d"}, {U: 1, V: 2, Label: "s"}},
	})
	if !suggested("added") {
		t.Fatal("Suggest missed a pattern added to the panel")
	}
}

// TestSuggestConcurrent suggests from one spec on several goroutines at
// once, as vqiserve's handlers do, racing on the spec's first decode.
func TestSuggestConcurrent(t *testing.T) {
	spec, _ := BuildManual(PresetChemistry, corpus())
	q := graph.New("partial")
	q.AddNode("C")
	q.AddNode("O")
	q.MustAddEdge(0, 1, "d")
	want, err := SuggestForSpec(&Spec{Patterns: spec.Patterns}, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := SuggestForSpec(spec, q, 0)
				if err != nil || len(got) != len(want) {
					t.Errorf("concurrent Suggest: %d suggestions (err %v), want %d", len(got), err, len(want))
					return
				}
				for k := range got {
					if got[k].PatternIndex != want[k].PatternIndex || got[k].NewEdges != want[k].NewEdges {
						t.Errorf("concurrent Suggest: suggestion %d differs", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
