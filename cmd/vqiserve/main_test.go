package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catapult"
	"repro/internal/datagen"
	"repro/internal/gindex"
	"repro/internal/pattern"
	"repro/internal/results"
	"repro/internal/tattoo"
	"repro/internal/vqi"
)

func testServer(t *testing.T) *server {
	t.Helper()
	corpus := datagen.ChemicalCorpus(2, 20, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(spec, corpus, serverConfig{})
}

func decodeErr(t *testing.T, body []byte) apiError {
	t.Helper()
	var resp errorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("error envelope not JSON: %v (body %q)", err, body)
	}
	if resp.Error.Code == "" {
		t.Fatalf("error envelope missing code: %q", body)
	}
	return resp.Error
}

func TestHandleIndex(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleIndex(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "Pattern Panel") || !strings.Contains(body, "/api/spec") {
		t.Fatal("front end incomplete")
	}
	// The page must not hard-code any data-source content.
	if strings.Contains(body, "benzene") || strings.Contains(body, "mol0") {
		t.Fatal("front end contains data-source specifics")
	}
	// Unknown paths 404.
	rec404 := httptest.NewRecorder()
	s.handleIndex(rec404, httptest.NewRequest("GET", "/nope", nil))
	if rec404.Code != 404 {
		t.Fatalf("status = %d", rec404.Code)
	}
}

func TestHandleSpec(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleSpec(rec, httptest.NewRequest("GET", "/api/spec", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	spec, err := vqi.Decode(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Patterns.Basic) != 3 {
		t.Fatal("spec payload wrong")
	}
}

func TestHandleQuery(t *testing.T) {
	s := testServer(t)
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matched) == 0 {
		t.Fatal("C-C must match compounds")
	}
	if resp.Truncated {
		t.Fatal("unbounded query marked truncated")
	}
}

func TestHandleQueryErrors(t *testing.T) {
	s := testServer(t)
	for name, tc := range map[string]struct {
		body   string
		status int
		code   string
	}{
		"bad-json":  {`{`, 400, "bad_json"},
		"bad-edge":  {`{"nodes":["C"],"edges":[{"u":0,"v":5,"label":"s"}]}`, 400, "bad_query"},
		"self-loop": {`{"nodes":["C"],"edges":[{"u":0,"v":0,"label":"s"}]}`, 400, "bad_query"},
	} {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d", name, rec.Code, tc.status)
		}
		if e := decodeErr(t, rec.Body.Bytes()); e.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", name, e.Code, tc.code)
		}
	}
}

func TestHandleQueryFacets(t *testing.T) {
	// With an index attached, corpus queries return facets grouping
	// matches by canned pattern.
	corpus := datagen.ChemicalCorpus(2, 30, datagen.ChemicalOptions{MinNodes: 10, MaxNodes: 18})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 4, MinSize: 4, MaxSize: 8}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{})
	s.index = gindex.BuildSharded(corpus, 4, 0)
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(body)))
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matched) == 0 {
		t.Fatal("no matches")
	}
	if len(resp.Facets) == 0 {
		t.Fatal("no facets despite canned patterns and matches")
	}
	for _, f := range resp.Facets {
		if f.Pattern == "" || len(f.Graphs) == 0 {
			t.Fatalf("malformed facet %+v", f)
		}
	}
}

// TestQueryFacetsMatchResultsFacets: the facets /api/query serves from the
// index's memoized panel masks equal results.Facets over the serving
// corpus, before and after batch updates whose removals renumber shard
// slots.
func TestQueryFacetsMatchResultsFacets(t *testing.T) {
	s := adminServer(t, 3, 0)
	h := s.routes()
	panel, err := s.spec.AllPatterns()
	if err != nil {
		t.Fatal(err)
	}
	canned := panel[len(s.spec.Patterns.Basic):]
	bodies := []string{
		ccQuery,
		`{"nodes":["C","O"],"edges":[{"u":0,"v":1,"label":"s"}]}`,
		`{"nodes":["C","C","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}`,
	}
	check := func(what string) {
		t.Helper()
		corpus, _ := s.snapshot()
		faceted := 0
		for bi, body := range bodies {
			rec, raw := post(t, h, "/api/query", body)
			if rec.Code != 200 {
				t.Fatalf("%s body%d: status = %d (%s)", what, bi, rec.Code, raw)
			}
			var resp queryResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			fs, _ := results.Facets(resp.Matched, corpus, canned, pattern.MatchOptions())
			var want []facetEntry
			for _, f := range fs {
				want = append(want, facetEntry{Pattern: s.spec.Patterns.Canned[f.PatternIndex].Name, Graphs: f.Graphs})
			}
			if !reflect.DeepEqual(resp.Facets, want) {
				t.Fatalf("%s body%d: facets %+v, want %+v", what, bi, resp.Facets, want)
			}
			faceted += len(want)
		}
		if faceted == 0 {
			t.Fatalf("%s: no query produced a facet", what)
		}
	}
	check("initial")
	corpus, _ := s.snapshot()
	remove := fmt.Sprintf(`{"remove":[%q,%q],"add":[{"name":"upd-a","nodes":["C","C","O"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}]}`,
		corpus.Name(0), corpus.Name(5))
	if rec, raw := post(t, h, "/admin/update", remove); rec.Code != 200 {
		t.Fatalf("update status = %d (%s)", rec.Code, raw)
	}
	check("after removing two graphs and adding one")
	if rec, raw := post(t, h, "/admin/update", `{"remove":["upd-a"]}`); rec.Code != 200 {
		t.Fatalf("update status = %d (%s)", rec.Code, raw)
	}
	check("after removing the added graph")
}

func TestHandleSuggest(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleSuggest(rec, httptest.NewRequest("POST", "/api/suggest",
		strings.NewReader(`{"nodes":[],"edges":[]}`)))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp suggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Suggestions) == 0 {
		t.Fatalf("suggest = %+v", resp)
	}
	if len(resp.Suggestions) > 8 {
		t.Fatal("suggestion cap ignored")
	}
	// Malformed body yields a 400 envelope, not a 500.
	rec2 := httptest.NewRecorder()
	s.handleSuggest(rec2, httptest.NewRequest("POST", "/api/suggest", strings.NewReader("{")))
	if rec2.Code != 400 {
		t.Fatalf("status = %d", rec2.Code)
	}
	if e := decodeErr(t, rec2.Body.Bytes()); e.Code != "bad_json" {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestHandleQueryNetworkMode(t *testing.T) {
	g := datagen.WattsStrogatz(3, 100, 4, 0.1)
	spec, _, err := vqi.BuildFromNetwork(g, tattoo.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, pattern.SingletonCorpus(g), serverConfig{})
	if !s.network {
		t.Fatal("single-graph corpus must select network mode")
	}
	body := `{"nodes":["",""],"edges":[{"u":0,"v":1,"label":""}]}`
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Embeddings == 0 {
		t.Fatal("network mode must report embeddings")
	}
}
