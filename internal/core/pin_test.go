package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// TestSelectorOutputsPinned pins the encoded CATAPULT, TATTOO and
// MIDAS-batch specs of a small seeded input to their sha256. The selectors'
// inner loops (the VF2 matcher, TATTOO's cycle sampler, CATAPULT's walks)
// are performance-tuned; any change to them must leave what they select
// byte-identical. A deliberate change of selection behaviour updates these
// hashes in the same commit and says why.
func TestSelectorOutputsPinned(t *testing.T) {
	want := [3]string{
		"20a41aec2f7bd5b693f3895c929886ba2028f07e164bcb8d537f2c51f4c5525e",
		"cf82c2e8f7141098ab591eee89d784755c206fa1b3532c55cda0b44013f57479",
		"2ba1ddf6aaf4623b0a8f888df46e45d75f3dd13cab5a72560375cf22c0a467ba",
	}
	got := pinnedSpecHashes(t)
	for i, name := range []string{"catapult", "tattoo", "midas"} {
		if got[i] != want[i] {
			t.Errorf("%s spec sha256 = %s, pinned %s", name, got[i], want[i])
		}
	}
}

// pinnedSpecHashes builds the three specs and hashes their encodings.
func pinnedSpecHashes(t *testing.T) [3]string {
	t.Helper()
	opts := Options{Seed: 1}
	c := datagen.ChemicalCorpus(41, 40, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 20})
	net := datagen.BarabasiAlbert(42, 1500, 3)
	// Chain-heavy compounds replace half the corpus, a major modification,
	// so the batch runs MIDAS's swap scans and not just bookkeeping.
	add := datagen.ChemicalCorpus(43, 20, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24, RingBias: 0.02})
	var added []*graph.Graph
	var removed []string
	for i := 0; i < add.Len(); i++ {
		g := add.Graph(i)
		g.SetName(fmt.Sprintf("new%d", i))
		added = append(added, g)
		removed = append(removed, c.Name(i))
	}

	cspec, err := BuildCorpusVQI(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	tspec, err := BuildNetworkVQI(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(c.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.ApplyBatch(added, removed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Major {
		t.Fatalf("batch GFD distance %.4f did not cross the major threshold", rep.GFDDistance)
	}
	var out [3]string
	for i, spec := range []*Spec{cspec, tspec, m.Spec()} {
		b, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}
