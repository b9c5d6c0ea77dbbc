package isomorph

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// countdownCtx is a context whose Err turns non-nil on its (left+1)-th
// call. Both matchers poll Ctx at the same steps, so it cancels them at
// exactly the same point of the search, which a real deadline cannot.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// diffCase is one differential input: a pattern, a target, options, and
// how the callback behaves.
type diffCase struct {
	p, t      *graph.Graph
	opts      Options
	cancelAt  int // >0: Ctx is a countdownCtx with this many live polls
	stopAfter int // >0: fn returns false on this mapping
}

// options returns the case's options with a fresh context, since a
// countdownCtx is consumed by the run it cancels.
func (c diffCase) options() Options {
	o := c.opts
	if c.cancelAt > 0 {
		o.Ctx = &countdownCtx{Context: context.Background(), left: c.cancelAt}
	}
	return o
}

// enumFunc is the signature both the production matcher and the oracle
// share.
type enumFunc func(p, t *graph.Graph, opts Options, fn func([]graph.NodeID) bool) Result

// trace is everything a run reports: its Result and, in order, a copy of
// every mapping passed to fn.
type trace struct {
	Res  Result
	Maps [][]graph.NodeID
}

func record(enum enumFunc, c diffCase) trace {
	var tr trace
	tr.Res = enum(c.p, c.t, c.options(), func(m []graph.NodeID) bool {
		tr.Maps = append(tr.Maps, append([]graph.NodeID(nil), m...))
		return c.stopAfter == 0 || len(tr.Maps) < c.stopAfter
	})
	return tr
}

// diffGraph draws a random simple graph whose node and edge labels are
// wildcards with probability wild. It need not be connected.
func diffGraph(rng *rand.Rand, nodes, edges int, wild float64) *graph.Graph {
	nodeLabels := []string{"C", "C", "N", "O"}
	edgeLabels := []string{"s", "s", "d"}
	g := graph.New("r")
	for i := 0; i < nodes; i++ {
		l := nodeLabels[rng.Intn(len(nodeLabels))]
		if rng.Float64() < wild {
			l = Wildcard
		}
		g.AddNode(l)
	}
	for i := 0; i < edges && nodes > 1; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		l := edgeLabels[rng.Intn(len(edgeLabels))]
		if rng.Float64() < wild {
			l = Wildcard
		}
		g.MustAddEdge(u, v, l)
	}
	return g
}

// diffCases draws n random cases covering every option dimension the
// matcher reads: Induced, MaxSteps (tight), MaxEmbeddings, Order (valid
// and invalid), TargetIndex, and a Ctx canceled mid-search with a small
// CheckEvery — plus a callback that stops the search.
func diffCases(seed int64, n int) []diffCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]diffCase, 0, n)
	for i := 0; i < n; i++ {
		tn := 1 + rng.Intn(14)
		target := diffGraph(rng, tn, rng.Intn(3*tn+1), 0.05)
		// Patterns are usually smaller than the target, sometimes larger,
		// and often disconnected (few edges for their nodes).
		pn := 1 + rng.Intn(6)
		if rng.Intn(8) == 0 {
			pn = tn + 1 + rng.Intn(2)
		}
		c := diffCase{p: diffGraph(rng, pn, rng.Intn(2*pn+1), 0.25), t: target}
		c.opts.Induced = rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			c.opts.MaxSteps = 1 + rng.Intn(40)
		}
		if rng.Intn(3) == 0 {
			c.opts.MaxEmbeddings = 1 + rng.Intn(4)
		}
		if rng.Intn(3) == 0 {
			c.opts.TargetIndex = BuildLabelIndex(target)
		}
		switch rng.Intn(4) {
		case 0:
			c.opts.Order = rng.Perm(pn)
		case 1:
			bad := rng.Perm(pn + 1)
			if rng.Intn(2) == 0 && pn > 1 {
				bad = rng.Perm(pn)
				bad[0] = bad[1]
			}
			c.opts.Order = bad
		}
		if rng.Intn(4) == 0 {
			c.cancelAt = 1 + rng.Intn(6)
			c.opts.CheckEvery = 1 + rng.Intn(5)
		}
		if rng.Intn(5) == 0 {
			c.stopAfter = 1 + rng.Intn(3)
		}
		out = append(out, c)
	}
	return out
}

// TestDifferentialMatcher runs the production matcher and the verbatim
// pre-pooling oracle on random cases and requires identical Results and
// identical mapping sequences. It also checks the cases actually reached
// every stop path, so the comparison is not vacuous.
func TestDifferentialMatcher(t *testing.T) {
	var steps, canceled, capped, stopped, found, tooBig int
	for i, c := range diffCases(7, 3000) {
		want := record(refEnumerate, c)
		got := record(enumerate, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (opts %+v cancelAt %d stopAfter %d): got %+v, oracle %+v",
				i, c.opts, c.cancelAt, c.stopAfter, got, want)
		}
		switch {
		case want.Res.Reason == StopSteps:
			steps++
		case want.Res.Reason == StopCanceled && want.Res.Steps > 0:
			canceled++
		case c.opts.MaxEmbeddings > 0 && want.Res.Embeddings == c.opts.MaxEmbeddings:
			capped++
		case c.stopAfter > 0 && len(want.Maps) == c.stopAfter:
			stopped++
		}
		if want.Res.Embeddings > 0 {
			found++
		}
		if c.p.NumNodes() > c.t.NumNodes() {
			tooBig++
		}
	}
	t.Logf("steps %d canceled %d capped %d stopped %d found %d tooBig %d", steps, canceled, capped, stopped, found, tooBig)
	for name, n := range map[string]int{
		"step-budget stops": steps, "mid-search cancellations": canceled,
		"embedding caps": capped, "fn stops": stopped,
		"searches with embeddings": found, "patterns larger than the target": tooBig,
	} {
		if n < 10 {
			t.Errorf("only %d %s among the cases", n, name)
		}
	}
}

// TestDifferentialReentrant has fn re-enter Enumerate for a second case
// on every mapping: the inner run must get its own matcher state, and
// both levels must match the oracle doing the same.
func TestDifferentialReentrant(t *testing.T) {
	cases := diffCases(11, 400)
	nested := func(enum enumFunc, outer, inner diffCase) []string {
		var log []string
		res := enum(outer.p, outer.t, outer.options(), func(m []graph.NodeID) bool {
			log = append(log, fmt.Sprint("outer ", m))
			in := record(enum, inner)
			log = append(log, fmt.Sprintf("inner %+v", in))
			// The outer mapping must survive the inner run untouched.
			log = append(log, fmt.Sprint("outer after ", m))
			return true
		})
		return append(log, fmt.Sprintf("outer result %+v", res))
	}
	for i := 0; i+1 < len(cases); i += 2 {
		want := nested(refEnumerate, cases[i], cases[i+1])
		got := nested(enumerate, cases[i], cases[i+1])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cases %d/%d: nested run differs from the oracle:\n got %v\nwant %v", i, i+1, got, want)
		}
	}
}

// TestDifferentialConcurrent runs the production matcher from several
// goroutines at once, so pooled matchers move between goroutines while
// each run must still match the oracle. Meant for -race.
func TestDifferentialConcurrent(t *testing.T) {
	cases := diffCases(13, 600)
	want := make([]trace, len(cases))
	for i, c := range cases {
		want[i] = record(refEnumerate, c)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i++ {
				if got := record(enumerate, cases[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d case %d: got %+v, oracle %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDifferentialCompounds compares the two matchers on realistic
// inputs: connected subgraphs of generated compounds matched back into
// other compounds, with and without a TargetIndex.
func TestDifferentialCompounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opts := datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24}
	for i := 0; i < 60; i++ {
		src := datagen.Chemical(rng, "src", opts)
		target := datagen.Chemical(rng, "t", opts)
		p := datagen.RandomConnectedSubgraph(rng, src, 3+rng.Intn(5))
		for _, o := range []Options{{}, {TargetIndex: BuildLabelIndex(target)}, {Induced: true}} {
			c := diffCase{p: p, t: target, opts: o}
			if got, want := record(enumerate, c), record(refEnumerate, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("compound %d opts %+v: got %+v, oracle %+v", i, o, got.Res, want.Res)
			}
		}
	}
}

// TestCountAllocationFree guards the pooled set-up: a warm Count of a
// 5-node pattern on a generated compound allocates (almost) nothing.
func TestCountAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(5))
	target := datagen.Chemical(rng, "t", datagen.ChemicalOptions{MinNodes: 20, MaxNodes: 30})
	p := datagen.RandomConnectedSubgraph(rng, target, 5)
	if p.NumNodes() != 5 {
		t.Fatalf("pattern has %d nodes, want 5", p.NumNodes())
	}
	if Count(p, target, Options{}).Embeddings == 0 {
		t.Fatal("pattern drawn from the target must embed in it")
	}
	if avg := testing.AllocsPerRun(200, func() { Count(p, target, Options{}) }); avg > 1 {
		t.Fatalf("warm Count allocates %.2f times per call, want ≤ 1", avg)
	}
}
