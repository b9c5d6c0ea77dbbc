package main

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/obs"
)

func TestSameSeedSameStream(t *testing.T) {
	c := servingCorpus(3)
	gens := map[string]func(int64, *graph.Corpus) *stream{
		"browse": browseStream, "compose": composeStream, "churn": churnStream,
	}
	for name, gen := range gens {
		a, b := gen(3, c).Bytes(), gen(3, c).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if bytes.Equal(a, gen(4, c).Bytes()) {
			t.Errorf("%s: seeds 3 and 4 gave the same request stream", name)
		}
	}
}

// fixture is a small corpus, its spec and a stream of one request of
// each kind, with an oracle over them.
type fixture struct {
	s *stream
	o *oracle
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	c := datagen.ChemicalCorpus(5, 60, corpusOpts)
	spec, err := servingSpec(5, c)
	if err != nil {
		t.Fatal(err)
	}
	q := datagen.RandomConnectedSubgraph(rand.New(rand.NewSource(5)), c.Graph(0), 6)
	add := datagen.Chemical(rand.New(rand.NewSource(6)), "upd0_0", corpusOpts)
	w := toWire(add, nil)
	w.Name = add.Name()
	s := &stream{ops: []op{
		{kind: opQuery, body: mustJSON(toWire(q, nil)), update: -1},
		{kind: opSuggest, body: mustJSON(toWire(partial(q), nil)), update: -1},
		{kind: opSimilar, body: mustJSON(similarReq{Graph: c.Name(3), K: 5, Mode: "approx"}), update: -1},
		{kind: opUpdate, body: mustJSON(updateReq{Add: []wireGraph{w}, Remove: []string{c.Name(1)}}), update: 0},
	}}
	u, err := newUniverse(c, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(u, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{s: s, o: o}
}

// correctBodies are the answers a correct server gives, in stream order.
func (f *fixture) correctBodies(t *testing.T) [][]byte {
	t.Helper()
	q, _ := decodeGraph(f.s.ops[0].body)
	sug, err := f.o.suggest(mustGraph(t, f.s.ops[1].body))
	if err != nil {
		t.Fatal(err)
	}
	// The exact top-5 by cosine is a valid approximate answer.
	qv, _ := f.o.vec(f.o.u.corpus.Name(3))
	var sim similarResp
	for _, n := range f.o.u.corpus.Names()[:60] {
		gv, _ := f.o.vec(n)
		sim.Matches = append(sim.Matches, similarMatch{Name: n, Score: ann.Cosine(qv, gv)})
	}
	sort.SliceStable(sim.Matches, func(i, j int) bool { return sim.Matches[i].Score > sim.Matches[j].Score })
	sim.Matches = sim.Matches[:5]
	return [][]byte{
		mustJSON(f.o.query(q, 0)),
		mustJSON(sug),
		mustJSON(sim),
		mustJSON(updateResp{Added: 1, Removed: 1, Graphs: 60, Shards: 2, Rebuilt: []int{0}}),
	}
}

func mustGraph(t *testing.T, body []byte) *graph.Graph {
	t.Helper()
	g, err := decodeGraph(body)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadOf makes a sequential, non-overlapping load that got bodies.
func loadOf(bodies [][]byte, status int) *loadResult {
	lr := &loadResult{bodies: map[uint64][]byte{}}
	for i, b := range bodies {
		h := maphash.Bytes(bodySeed, b)
		lr.bodies[h] = b
		lr.recs = append(lr.recs, record{idx: i, start: time.Duration(2 * i), end: time.Duration(2*i + 1), status: status, hash: h})
	}
	return lr
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	f := newFixture(t)
	cr := checkLoad(f.o, f.s, loadOf(f.correctBodies(t), 200))
	if cr.failed != 0 {
		t.Fatalf("correct answers failed the check: %v", cr.failures)
	}
}

func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	f := newFixture(t)
	good := f.correctBodies(t)
	corrupt := []func([]byte) []byte{
		// query: one match dropped, or the answer marked truncated
		func(b []byte) []byte {
			var v queryResp
			json.Unmarshal(b, &v)
			if len(v.Matched) == 0 {
				v.Matched = []string{"mol59"}
			} else {
				v.Matched = v.Matched[1:]
			}
			return mustJSON(v)
		},
		// suggest: a suggestion the spec does not make
		func(b []byte) []byte {
			var v suggestResp
			json.Unmarshal(b, &v)
			v.Suggestions = append(v.Suggestions, suggestEntry{PatternIndex: 99, Name: "bogus"})
			return mustJSON(v)
		},
		// similar: a score off the exact cosine
		func(b []byte) []byte {
			var v similarResp
			json.Unmarshal(b, &v)
			v.Matches[2].Score += 1e-6
			return mustJSON(v)
		},
		// update: wrong corpus size acknowledged
		func(b []byte) []byte {
			var v updateResp
			json.Unmarshal(b, &v)
			v.Graphs++
			return mustJSON(v)
		},
	}
	for i, c := range corrupt {
		bodies := append([][]byte(nil), good...)
		bodies[i] = c(bodies[i])
		cr := checkLoad(f.o, f.s, loadOf(bodies, 200))
		if cr.failed != 1 || !cr.failedAt[i] {
			t.Errorf("corrupted %s answer: %d failed (%v), want exactly op %d", f.s.ops[i].kind, cr.failed, cr.failures, i)
		}
	}
	truncated := append([][]byte(nil), good...)
	var v queryResp
	json.Unmarshal(truncated[0], &v)
	v.Truncated = true
	truncated[0] = mustJSON(v)
	if cr := checkLoad(f.o, f.s, loadOf(truncated, 200)); cr.failed != 1 {
		t.Errorf("truncated query answer: %d failed, want 1", cr.failed)
	}
	if cr := checkLoad(f.o, f.s, loadOf(good, 500)); cr.failed != len(good) {
		t.Errorf("non-2xx answers: %d failed, want %d", cr.failed, len(good))
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json this test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, file []struct{ Name, Unit string }) {
		printed := fill(defs, nil)
		if len(printed) != len(file) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json lists %d", what, len(printed), len(file))
		}
		for _, m := range file {
			if v, ok := printed[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s [%s], printed as %+v (present %v)", what, m.Name, m.Unit, v, ok)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json lists workload %s, benchmark runs %v", w.Name, workloads)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.SpanRecord{
		{Name: "qcache.Do", Parent: -1, Start: 0, Dur: 10 * ms},
		{Name: "gindex.SearchShardCtx", Parent: 0, Start: 1 * ms, Dur: 5 * ms},
		{Name: "gindex.SearchShardCtx", Parent: 0, Start: 2 * ms, Dur: 6 * ms}, // overlaps its sibling
		{Name: "vqiserve.encode", Parent: -1, Start: 12 * ms, Dur: 2 * ms},
	}
	self, roots := selfTimes(spans)
	if self[0] != 3*ms || self[1] != 5*ms || self[3] != 2*ms {
		t.Errorf("self times %v", self)
	}
	if roots != 12*ms {
		t.Errorf("root coverage %v, want 12ms", roots)
	}
}

func TestCalmest(t *testing.T) {
	got := calmest([]float64{5, 0, 9, 1, 1, 7})
	if want := []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("calmest = %v, want %v", got, want)
	}
}
