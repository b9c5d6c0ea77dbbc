package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/catapult"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/vqi"
)

// adminServer builds a ready corpus-mode server with k index shards and
// both caches enabled.
func adminServer(t *testing.T, k, cacheSize int) *server {
	t.Helper()
	corpus := datagen.ChemicalCorpus(2, 24, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{shards: k, cacheSize: cacheSize})
	s.buildIndex()
	return s
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec, rec.Body.Bytes()
}

const ccQuery = `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`

func queryMatched(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec, body := post(t, h, "/api/query", ccQuery)
	if rec.Code != 200 {
		t.Fatalf("query status = %d (body %s)", rec.Code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Matched
}

// TestAdminUpdateRoundTrip adds a graph through /admin/update, sees it
// matched by the very next query, removes it, and sees it gone — all
// without any index rebuild beyond the touched shards.
func TestAdminUpdateRoundTrip(t *testing.T) {
	const k = 4
	s := adminServer(t, k, 64)
	h := s.routes()

	before := queryMatched(t, h)
	if slices.Contains(before, "adm-added") {
		t.Fatal("fixture already contains the graph to add")
	}

	add := `{"add":[{"name":"adm-added","nodes":["C","C","O"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}]}`
	rec, body := post(t, h, "/admin/update", add)
	if rec.Code != 200 {
		t.Fatalf("update status = %d (body %s)", rec.Code, body)
	}
	var rep updateResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Added != 1 || rep.Removed != 0 || rep.Shards != k {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Rebuilt) != 1 {
		t.Fatalf("one added graph must rebuild exactly one shard, got %v", rep.Rebuilt)
	}
	if rep.Graphs != 25 {
		t.Fatalf("graphs = %d, want 24 fixtures + 1 added", rep.Graphs)
	}

	after := queryMatched(t, h)
	if !slices.Contains(after, "adm-added") {
		t.Fatalf("added graph not matched: %v", after)
	}
	// The added graph lands at the end of corpus order.
	if after[len(after)-1] != "adm-added" {
		t.Fatalf("added graph must sort last in corpus order: %v", after)
	}
	if !slices.Equal(after[:len(after)-1], before) {
		t.Fatalf("surviving matches changed order: %v vs %v", after, before)
	}

	rec, body = post(t, h, "/admin/update", `{"remove":["adm-added"]}`)
	if rec.Code != 200 {
		t.Fatalf("remove status = %d (body %s)", rec.Code, body)
	}
	final := queryMatched(t, h)
	if !slices.Equal(final, before) {
		t.Fatalf("after remove: %v, want %v", final, before)
	}
}

func TestAdminUpdateErrors(t *testing.T) {
	s := adminServer(t, 2, 8)
	h := s.routes()
	for name, tc := range map[string]struct {
		body   string
		status int
		code   string
	}{
		"bad-json":        {`{`, 400, "bad_json"},
		"empty-batch":     {`{}`, 400, "empty_batch"},
		"missing-name":    {`{"add":[{"nodes":["C"]}]}`, 400, "bad_batch"},
		"bad-edge":        {`{"add":[{"name":"x","nodes":["C"],"edges":[{"u":0,"v":9,"label":"s"}]}]}`, 400, "bad_batch"},
		"unknown-removal": {`{"remove":["no-such-graph"]}`, 400, "bad_batch"},
		"duplicate-add":   {`{"add":[{"name":"mol0","nodes":["C"]}]}`, 400, "bad_batch"},
	} {
		rec, body := post(t, h, "/admin/update", tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d (body %s)", name, rec.Code, tc.status, body)
		}
		if e := decodeErr(t, body); e.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", name, e.Code, tc.code)
		}
	}

	// Before the index is built the endpoint refuses rather than racing the
	// background build.
	cold := testServer(t)
	rec, body := post(t, cold.routes(), "/admin/update", `{"remove":["mol0"]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cold server: status = %d (body %s)", rec.Code, body)
	}

	// Network mode has no corpus to batch-update.
	net := networkServer(t, serverConfig{})
	net.phase.Store(phaseReady)
	rec, body = post(t, net.routes(), "/admin/update", `{"remove":["g"]}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("network server: status = %d (body %s)", rec.Code, body)
	}
	if e := decodeErr(t, body); e.Code != "network_mode" {
		t.Fatalf("network server: code = %q", e.Code)
	}
}

// TestAdminUpdateConcurrentWithQueries races batch updates against a
// stream of queries (run under -race by scripts/verify.sh): every query
// must see a consistent snapshot and return cleanly.
func TestAdminUpdateConcurrentWithQueries(t *testing.T) {
	s := adminServer(t, 4, 64)
	h := s.routes()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("conc-%d", i)
			add := fmt.Sprintf(`{"add":[{"name":%q,"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}`, name)
			if rec, body := post(t, h, "/admin/update", add); rec.Code != 200 {
				t.Errorf("add %s: %d (%s)", name, rec.Code, body)
				return
			}
			if rec, body := post(t, h, "/admin/update", fmt.Sprintf(`{"remove":[%q]}`, name)); rec.Code != 200 {
				t.Errorf("remove %s: %d (%s)", name, rec.Code, body)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if rec, body := post(t, h, "/api/query", ccQuery); rec.Code != 200 {
				t.Fatalf("query during updates: %d (%s)", rec.Code, body)
			}
		}
	}
}
