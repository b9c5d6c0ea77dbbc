package main

// The build workload: offline VQI construction, in process. Each round
// runs CATAPULT on a chemical corpus, TATTOO on a Barabási-Albert
// network, and one MIDAS batch that crosses the major-modification
// threshold. Rounds repeat the same seeded inputs, so every round's
// output must be byte-identical to the first's.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
)

const (
	buildCorpusGraphs = 80
	buildNetworkNodes = 12000
	buildBatch        = 60 // graphs the MIDAS batch replaces
)

// buildInputs are one seed's build inputs.
type buildInputs struct {
	corpus  *graph.Corpus
	network *graph.Graph
	added   []*graph.Graph
	removed []string
	state   []byte // the MIDAS maintenance state over corpus
	opts    core.Options
}

// genBuildInputs generates the corpus, network and batch for a seed.
func genBuildInputs(seed int64) *buildInputs {
	in := &buildInputs{opts: core.Options{Seed: seed}}
	in.corpus = datagen.ChemicalCorpus(seed+41, buildCorpusGraphs, corpusOpts)
	in.network = datagen.BarabasiAlbert(seed+42, buildNetworkNodes, 3)
	// Chain-heavy compounds shift the graphlet distribution far enough
	// that the batch is a major modification.
	add := datagen.ChemicalCorpus(seed+43, buildBatch, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 24, RingBias: 0.02})
	for i := 0; i < add.Len(); i++ {
		g := add.Graph(i)
		g.SetName(fmt.Sprintf("new%d", i))
		in.added = append(in.added, g)
		in.removed = append(in.removed, in.corpus.Name(i))
	}
	return in
}

// buildRound is one round's timings and outputs.
type buildRound struct {
	catapult, tattoo, midas time.Duration
	out                     [3][]byte // encoded specs: CATAPULT, TATTOO, MIDAS-maintained
	scores                  [3]float64
	spans                   []obs.SpanRecord
}

// runRound builds the three pattern sets once; traced rounds record the
// library's stage spans.
func runRound(in *buildInputs, traced, score bool) (*buildRound, error) {
	ctx := context.Background()
	var tr *obs.Trace
	if traced {
		ctx, tr = obs.StartTrace(ctx, "build")
	}
	r := &buildRound{}

	t := time.Now()
	cspec, _, err := core.BuildCorpusVQICtx(ctx, in.corpus, in.opts)
	r.catapult = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("catapult: %w", err)
	}

	t = time.Now()
	tspec, _, err := core.BuildNetworkVQICtx(ctx, in.network, in.opts)
	r.tattoo = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("tattoo: %w", err)
	}

	m, err := core.LoadMaintainer(in.state, in.corpus.Clone(), in.opts)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	rep, err := m.ApplyBatchCtx(ctx, in.added, in.removed)
	r.midas = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("midas: %w", err)
	}
	if !rep.Major {
		return nil, fmt.Errorf("midas: batch GFD distance %.4f did not cross the major threshold", rep.GFDDistance)
	}

	for i, spec := range []*core.Spec{cspec, tspec, m.Spec()} {
		if r.out[i], err = spec.Encode(); err != nil {
			return nil, err
		}
	}
	if score {
		srcs := []*graph.Corpus{in.corpus, pattern.SingletonCorpus(in.network), m.Corpus()}
		for i, spec := range []*core.Spec{cspec, tspec, m.Spec()} {
			q, err := core.EvaluateQuality(spec, srcs[i], in.opts)
			if err != nil {
				return nil, err
			}
			r.scores[i] = q.SetScore
		}
	}
	if tr != nil {
		r.spans = tr.Spans()
	}
	return r, nil
}

// buildRun is the outcome of the build workload.
type buildRun struct {
	setups            []time.Duration
	rounds            []*buildRound
	walls             []time.Duration // per timed round, catapult+tattoo+midas
	steal             []float64       // CPU steal share during each timed round
	attempted, failed int
	errs              []string
	traced            []*buildRound
}

// buildSetups is how many times the set-up runs; setup_s is the median.
const buildSetups = 3

func runBuildWorkload(seed int64, seconds float64, trace bool) (*buildRun, error) {
	br := &buildRun{}
	// Set-up is everything before the first round: generating the inputs
	// and building MIDAS's maintenance state over the corpus.
	var in *buildInputs
	for i := 0; i < buildSetups; i++ {
		t := time.Now()
		in = genBuildInputs(seed)
		m, err := core.NewMaintainer(in.corpus.Clone(), in.opts)
		if err != nil {
			return nil, err
		}
		if in.state, err = m.MarshalState(); err != nil {
			return nil, err
		}
		br.setups = append(br.setups, time.Since(t))
	}
	// One untimed warm-up round, which also fixes the reference output.
	ref, err := runRound(in, false, true)
	if err != nil {
		return nil, err
	}
	br.rounds = append(br.rounds, ref)
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(br.walls) < 3 {
		total0, steal0 := cpuTimes()
		r, err := runRound(in, false, false)
		if err != nil {
			return nil, err
		}
		total1, steal1 := cpuTimes()
		br.steal = append(br.steal, 100*ratio(steal1-steal0, total1-total0))
		br.rounds = append(br.rounds, r)
		br.walls = append(br.walls, r.catapult+r.tattoo+r.midas)
		br.compare(r, ref)
	}
	if trace {
		for i := 0; i < 2; i++ {
			r, err := runRound(in, true, false)
			if err != nil {
				return nil, err
			}
			br.traced = append(br.traced, r)
			br.compare(r, ref)
		}
	}
	return br, nil
}

// compare checks a round's three outputs against the reference round's.
func (br *buildRun) compare(r, ref *buildRound) {
	for i := range r.out {
		br.attempted++
		if !bytes.Equal(r.out[i], ref.out[i]) {
			br.failed++
			if len(br.errs) < 10 {
				br.errs = append(br.errs, fmt.Sprintf("%s output differs from the first round's", buildOps[i]))
			}
		}
	}
}

var buildOps = [3]string{"catapult", "tattoo", "midas"}
