// Package vqi models visual graph query interfaces.
//
// A VQI has four key components (tutorial Section 2.1): the Attribute Panel
// (node/edge labels of the data source), the Pattern Panel (basic and
// canned patterns), the Query Panel (the query the user is drawing), and
// the Results Panel (matches of the query). The contents of the Attribute
// and Pattern panels hinge on the data source; a *data-driven* VQI
// populates them automatically from the repository under a pattern budget,
// while a *manual* VQI hard-codes them at implementation time.
//
// This package provides:
//
//   - Spec: the serializable interface description (attribute + pattern
//     panels with thumbnail layouts) consumed by cmd/vqiserve's front end;
//   - builders: data-driven construction from a corpus (CATAPULT), from a
//     network (TATTOO), and manual presets mirroring the static pattern
//     sets of industrial VQIs;
//   - Session: the Query/Results panel state machine — draw nodes and
//     edges, stamp patterns, run the query against the data source.
package vqi

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/catapult"
	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/isomorph"
	"repro/internal/layout"
	"repro/internal/pattern"
	"repro/internal/tattoo"
)

// Mode records how a VQI was constructed.
type Mode string

// VQI construction modes.
const (
	Manual     Mode = "manual"
	DataDriven Mode = "data-driven"
)

// Spec is a complete, serializable VQI description.
type Spec struct {
	Name      string         `json:"name"`
	Mode      Mode           `json:"mode"`
	Attribute AttributePanel `json:"attribute_panel"`
	Patterns  PatternPanel   `json:"pattern_panel"`

	// panel memoizes the decoded pattern graphs Suggest matches against.
	panel atomic.Pointer[decodedPanel]
}

// AttributePanel lists the labels available for query construction, sorted
// by descending frequency in the data source (manual VQIs: designer
// order).
type AttributePanel struct {
	NodeLabels []string `json:"node_labels"`
	EdgeLabels []string `json:"edge_labels"`
}

// PatternPanel holds the displayed patterns.
type PatternPanel struct {
	Basic  []PatternSpec `json:"basic"`
	Canned []PatternSpec `json:"canned"`
}

// PatternSpec is one displayed pattern with its thumbnail layout and
// quality annotations.
type PatternSpec struct {
	Name          string      `json:"name"`
	Source        string      `json:"source"`
	NodeLabels    []string    `json:"nodes"`
	Edges         []EdgeSpec  `json:"edges"`
	Positions     []PointSpec `json:"positions"`
	CognitiveLoad float64     `json:"cognitive_load"`
	Crossings     int         `json:"crossings"`
}

// EdgeSpec is a pattern edge on the wire.
type EdgeSpec struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label"`
}

// PointSpec is a thumbnail coordinate on the wire.
type PointSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// ThumbSize is the pattern thumbnail canvas size in abstract units.
const ThumbSize = 120.0

// patternSpec serializes one pattern with the given drawing.
func patternSpec(p *pattern.Pattern, l *layout.Layout) PatternSpec {
	ps := PatternSpec{
		Name:          p.G.Name(),
		Source:        p.Source,
		CognitiveLoad: pattern.CognitiveLoad(p),
		Crossings:     layout.EdgeCrossings(p.G, l),
	}
	for i := 0; i < p.G.NumNodes(); i++ {
		ps.NodeLabels = append(ps.NodeLabels, p.G.NodeLabel(i))
		ps.Positions = append(ps.Positions, PointSpec{X: l.Pos[i].X, Y: l.Pos[i].Y})
	}
	for _, e := range p.G.Edges() {
		ps.Edges = append(ps.Edges, EdgeSpec{U: e.U, V: e.V, Label: e.Label})
	}
	return ps
}

// layoutPatterns draws a pattern list aesthetics-aware: per pattern a
// best-of-seeds layout search, and display order by ascending visual
// complexity (the panel-level optimization the tutorial's future-work
// section calls for).
func layoutPatterns(pats []*pattern.Pattern, seed int64) []PatternSpec {
	graphs := make([]*graph.Graph, len(pats))
	for i, p := range pats {
		graphs[i] = p.G
	}
	items := layout.OptimizePanel(graphs, ThumbSize, ThumbSize, 4, seed)
	specs := make([]PatternSpec, len(pats))
	for _, it := range items {
		specs[it.Cell] = patternSpec(pats[it.Index], it.Layout)
	}
	return specs
}

// PatternGraph reconstructs the pattern graph of a PatternSpec.
func (ps PatternSpec) PatternGraph() (*graph.Graph, error) {
	g := graph.New(ps.Name)
	for _, l := range ps.NodeLabels {
		g.AddNode(l)
	}
	for _, e := range ps.Edges {
		if _, err := g.AddEdge(e.U, e.V, e.Label); err != nil {
			return nil, fmt.Errorf("vqi: pattern %q: %v", ps.Name, err)
		}
	}
	return g, nil
}

// MarshalJSON-ready helpers.

// Encode serializes the spec as indented JSON.
func (s *Spec) Encode() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Decode parses a spec from JSON.
func Decode(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural integrity of a spec: every pattern must
// decode to a valid graph and thumbnails must have one position per node.
// Size classification is also enforced: basic patterns never exceed
// BasicMaxSize edges, and — for data-driven specs, whose canned patterns
// come from a budgeted selection — canned patterns must exceed it. Manual
// presets may hard-code small domain motifs in the canned panel.
func (s *Spec) Validate() error {
	check := func(kind string, specs []PatternSpec, sizeRule func(edges int) bool) error {
		for i, ps := range specs {
			g, err := ps.PatternGraph()
			if err != nil {
				return fmt.Errorf("vqi: %s pattern %d: %v", kind, i, err)
			}
			if len(ps.Positions) != g.NumNodes() {
				return fmt.Errorf("vqi: %s pattern %d (%s): %d positions for %d nodes",
					kind, i, ps.Name, len(ps.Positions), g.NumNodes())
			}
			if sizeRule != nil && !sizeRule(g.NumEdges()) {
				return fmt.Errorf("vqi: %s pattern %d (%s) has %d edges — misclassified",
					kind, i, ps.Name, g.NumEdges())
			}
		}
		return nil
	}
	if err := check("basic", s.Patterns.Basic, func(m int) bool { return m <= pattern.BasicMaxSize }); err != nil {
		return err
	}
	var cannedRule func(int) bool
	if s.Mode == DataDriven {
		cannedRule = func(m int) bool { return m > pattern.BasicMaxSize }
	}
	return check("canned", s.Patterns.Canned, cannedRule)
}

// AllPatterns reconstructs every displayed pattern (basic then canned) as
// pattern values.
func (s *Spec) AllPatterns() ([]*pattern.Pattern, error) {
	var out []*pattern.Pattern
	for _, ps := range append(append([]PatternSpec(nil), s.Patterns.Basic...), s.Patterns.Canned...) {
		g, err := ps.PatternGraph()
		if err != nil {
			return nil, err
		}
		out = append(out, pattern.New(g, ps.Source))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

// BuildFromCorpus constructs a data-driven VQI for a corpus of data graphs
// using CATAPULT for the Pattern Panel and a corpus scan for the Attribute
// Panel.
func BuildFromCorpus(c *graph.Corpus, cfg catapult.Config) (*Spec, *catapult.Result, error) {
	return BuildFromCorpusCtx(context.Background(), c, cfg)
}

// BuildFromCorpusCtx is BuildFromCorpus under a context: if the context
// dies mid-build the returned spec carries the best pattern set selected
// so far and the result is marked Truncated.
func BuildFromCorpusCtx(ctx context.Context, c *graph.Corpus, cfg catapult.Config) (*Spec, *catapult.Result, error) {
	res, err := catapult.SelectCtx(ctx, c, cfg)
	if err != nil {
		return nil, nil, err
	}
	stats := c.Stats()
	spec := &Spec{
		Name: "data-driven-corpus-vqi",
		Mode: DataDriven,
		Attribute: AttributePanel{
			NodeLabels: stats.SortedNodeLabels(),
			EdgeLabels: stats.SortedEdgeLabels(),
		},
	}
	fillPatternPanel(spec, res.Patterns, cfg.Seed)
	return spec, res, nil
}

// BuildFromNetwork constructs a data-driven VQI for a single large network
// using TATTOO.
func BuildFromNetwork(g *graph.Graph, cfg tattoo.Config) (*Spec, *tattoo.Result, error) {
	return BuildFromNetworkCtx(context.Background(), g, cfg)
}

// BuildFromNetworkCtx is BuildFromNetwork under a context, degrading like
// BuildFromCorpusCtx.
func BuildFromNetworkCtx(ctx context.Context, g *graph.Graph, cfg tattoo.Config) (*Spec, *tattoo.Result, error) {
	res, err := tattoo.SelectCtx(ctx, g, cfg)
	if err != nil {
		return nil, nil, err
	}
	spec := &Spec{
		Name: "data-driven-network-vqi",
		Mode: DataDriven,
		Attribute: AttributePanel{
			NodeLabels: sortedLabelKeys(g.NodeLabels()),
			EdgeLabels: sortedLabelKeys(g.EdgeLabels()),
		},
	}
	fillPatternPanel(spec, res.Patterns, cfg.Seed)
	return spec, res, nil
}

// RefreshPatterns replaces the canned patterns of a spec in place — the
// hook MIDAS maintenance uses after a batch update.
func (s *Spec) RefreshPatterns(canned []*pattern.Pattern, seed int64) {
	s.Patterns.Canned = layoutPatterns(canned, seed)
}

func fillPatternPanel(spec *Spec, canned []*pattern.Pattern, seed int64) {
	spec.Patterns.Basic = layoutPatterns(pattern.Basic(), seed)
	spec.RefreshPatterns(canned, seed+100)
}

func sortedLabelKeys(m map[string]int) []string {
	// Reuse the corpus ordering: descending frequency then alphabetical.
	stats := graph.CorpusStats{NodeLabels: m}
	return stats.SortedNodeLabels()
}

// ManualPreset names the built-in manual VQI configurations. They mirror
// the static pattern sets of the industrial interfaces the tutorial
// reviews: a sketcher exposing only generic shapes, and a chemistry
// sketcher exposing a handful of hard-coded domain motifs.
type ManualPreset string

// Manual presets.
const (
	// PresetBasicOnly models interfaces exposing only edge/path/triangle
	// construction (Bloom-style).
	PresetBasicOnly ManualPreset = "basic-only"
	// PresetChemistry models chemistry sketchers with hard-coded ring
	// motifs (PubChem/eMolecules-style): benzene ring, cyclopentane,
	// carbonyl chain.
	PresetChemistry ManualPreset = "chemistry"
)

// BuildManual constructs a manual VQI: the Attribute Panel is still scanned
// from the data (every real interface ships label lists), but the Pattern
// Panel is a fixed, data-oblivious set.
func BuildManual(preset ManualPreset, c *graph.Corpus) (*Spec, error) {
	var canned []*pattern.Pattern
	switch preset {
	case PresetBasicOnly:
		// No canned patterns at all.
	case PresetChemistry:
		canned = chemistryPatterns()
	default:
		return nil, fmt.Errorf("vqi: unknown manual preset %q", preset)
	}
	spec := &Spec{Name: "manual-" + string(preset), Mode: Manual}
	if c != nil {
		stats := c.Stats()
		spec.Attribute = AttributePanel{
			NodeLabels: stats.SortedNodeLabels(),
			EdgeLabels: stats.SortedEdgeLabels(),
		}
	}
	fillPatternPanel(spec, canned, 7)
	return spec, nil
}

// chemistryPatterns returns the fixed domain motifs of the chemistry
// preset.
func chemistryPatterns() []*pattern.Pattern {
	benzene := graph.New("benzene")
	benzene.AddNodes(6, "C")
	for i := 0; i < 6; i++ {
		benzene.MustAddEdge(i, (i+1)%6, "a")
	}
	cyclopentane := graph.New("cyclopentane")
	cyclopentane.AddNodes(5, "C")
	for i := 0; i < 5; i++ {
		cyclopentane.MustAddEdge(i, (i+1)%5, "s")
	}
	carbonyl := graph.New("carbonyl-chain")
	c0 := carbonyl.AddNode("C")
	c1 := carbonyl.AddNode("C")
	o := carbonyl.AddNode("O")
	c2 := carbonyl.AddNode("C")
	carbonyl.MustAddEdge(c0, c1, "s")
	carbonyl.MustAddEdge(c1, o, "d")
	carbonyl.MustAddEdge(c1, c2, "s")
	return []*pattern.Pattern{
		pattern.New(benzene, "manual"),
		pattern.New(cyclopentane, "manual"),
		pattern.New(carbonyl, "manual"),
	}
}

// ---------------------------------------------------------------------------
// Session: Query and Results panels
// ---------------------------------------------------------------------------

// DataSource is what a session queries: a corpus of data graphs or a
// single network wrapped as a 1-graph corpus.
type DataSource struct {
	Corpus *graph.Corpus
	// Network is true when the source is a single large network, in which
	// case results are embeddings rather than matching graphs.
	Network bool
	// Index, if set, accelerates corpus queries with filter-then-verify
	// (package gindex). It must have been built over Corpus.
	Index *gindex.Index
}

// Session is the state of one query-formulation interaction: the Query
// Panel content plus counters of the atomic actions performed, which the
// usability experiments aggregate. Every mutating action snapshots the
// query first, so Undo provides the one-step error recovery that the
// usability literature's "Errors" criterion asks interfaces to support.
type Session struct {
	Spec   *Spec
	Source DataSource
	Query  *graph.Graph

	// Actions counts the atomic steps performed (the "steps" of the
	// usability studies). Undo counts as a step too — errors cost time.
	Actions int
	// Undos counts how many times the user backed out of an action.
	Undos int

	history []*graph.Graph
}

// NewSession opens a session over a spec and data source.
func NewSession(spec *Spec, src DataSource) *Session {
	return &Session{Spec: spec, Source: src, Query: graph.New("query")}
}

// maxHistory bounds the undo stack.
const maxHistory = 64

func (s *Session) snapshot() {
	s.history = append(s.history, s.Query.Clone())
	if len(s.history) > maxHistory {
		s.history = s.history[1:]
	}
}

// Undo reverts the most recent mutating action. It reports whether there
// was anything to undo.
func (s *Session) Undo() bool {
	if len(s.history) == 0 {
		return false
	}
	s.Actions++
	s.Undos++
	s.Query = s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	return true
}

// AddNode draws a labeled node on the Query Panel.
func (s *Session) AddNode(label string) graph.NodeID {
	s.snapshot()
	s.Actions++
	return s.Query.AddNode(label)
}

// AddEdge draws an edge on the Query Panel.
func (s *Session) AddEdge(u, v graph.NodeID, label string) error {
	s.snapshot()
	s.Actions++
	_, err := s.Query.AddEdge(u, v, label)
	if err != nil {
		// Failed gestures leave the query untouched; drop the snapshot.
		s.history = s.history[:len(s.history)-1]
	}
	return err
}

// SetNodeLabel relabels a query node (e.g. after stamping a wildcard
// pattern).
func (s *Session) SetNodeLabel(id graph.NodeID, label string) {
	s.snapshot()
	s.Actions++
	s.Query.SetNodeLabel(id, label)
}

// StampPattern copies pattern panel entry (basic index < len(Basic), then
// canned) onto the Query Panel as a new component and returns the IDs of
// the new nodes. This is pattern-at-a-time construction: one action
// regardless of pattern size.
func (s *Session) StampPattern(index int) ([]graph.NodeID, error) {
	all := append(append([]PatternSpec(nil), s.Spec.Patterns.Basic...), s.Spec.Patterns.Canned...)
	if index < 0 || index >= len(all) {
		return nil, fmt.Errorf("vqi: pattern index %d out of range [0,%d)", index, len(all))
	}
	pg, err := all[index].PatternGraph()
	if err != nil {
		return nil, err
	}
	s.snapshot()
	s.Actions++
	var ids []graph.NodeID
	for v := 0; v < pg.NumNodes(); v++ {
		ids = append(ids, s.Query.AddNode(pg.NodeLabel(v)))
	}
	for _, e := range pg.Edges() {
		s.Query.MustAddEdge(ids[e.U], ids[e.V], e.Label)
	}
	return ids, nil
}

// MergeNodes fuses query node b into a (the drag-merge gesture used to
// connect a stamped pattern with the rest of the query). Edges incident to
// b are re-attached to a; duplicate edges collapse.
func (s *Session) MergeNodes(a, b graph.NodeID) error {
	if a == b {
		return fmt.Errorf("vqi: cannot merge a node with itself")
	}
	if a < 0 || a >= s.Query.NumNodes() || b < 0 || b >= s.Query.NumNodes() {
		return fmt.Errorf("vqi: merge nodes out of range")
	}
	s.snapshot()
	s.Actions++
	// Rebuild the query without b.
	old := s.Query
	remap := make([]graph.NodeID, old.NumNodes())
	ng := graph.New(old.Name())
	for v := 0; v < old.NumNodes(); v++ {
		if v == b {
			continue
		}
		remap[v] = ng.AddNode(old.NodeLabel(v))
	}
	remap[b] = remap[a]
	for _, e := range old.Edges() {
		u, v := remap[e.U], remap[e.V]
		if u == v || ng.HasEdge(u, v) {
			continue
		}
		ng.MustAddEdge(u, v, e.Label)
	}
	s.Query = ng
	return nil
}

// Results is the Results Panel content.
type Results struct {
	// MatchedGraphs lists names of corpus graphs containing the query
	// (corpus sources).
	MatchedGraphs []string
	// Embeddings counts query embeddings (network sources; capped).
	Embeddings int
	// Truncated reports that search budgets were hit.
	Truncated bool
}

// Run executes the current query against the data source.
func (s *Session) Run() Results {
	return s.RunCtx(context.Background())
}

// RunCtx is Run under a context: the context is threaded into every
// embedding search (network counts, index verification, corpus scans), so
// an interactive deadline returns the partial Results Panel content found
// so far with Truncated set, never hanging on a pathological query.
func (s *Session) RunCtx(ctx context.Context) Results {
	s.Actions++
	opts := isomorph.Options{MaxEmbeddings: 1000, MaxSteps: 2_000_000, Ctx: ctx}
	var res Results
	if s.Source.Corpus == nil {
		return res
	}
	if s.Source.Network {
		g := s.Source.Corpus.Graph(0)
		r := isomorph.Count(s.Query, g, opts)
		res.Embeddings = r.Embeddings
		res.Truncated = r.Truncated
		return res
	}
	scanOpts := isomorph.Options{MaxEmbeddings: 1, MaxSteps: 200000, Ctx: ctx}
	if s.Source.Index != nil {
		r := s.Source.Index.SearchCtx(ctx, s.Query, scanOpts)
		res.MatchedGraphs = r.Matches
		res.Truncated = r.Truncated
		return res
	}
	s.Source.Corpus.Each(func(_ int, g *graph.Graph) {
		if ctx.Err() != nil {
			res.Truncated = true
			return
		}
		r := isomorph.Count(s.Query, g, scanOpts)
		if r.Embeddings > 0 {
			res.MatchedGraphs = append(res.MatchedGraphs, g.Name())
		}
		if r.Truncated {
			res.Truncated = true
		}
	})
	return res
}
