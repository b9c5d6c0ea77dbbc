package main

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/catapult"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/vqi"
)

func cachedTestServer(t *testing.T) *server {
	t.Helper()
	corpus := datagen.ChemicalCorpus(2, 20, datagen.ChemicalOptions{MinNodes: 8, MaxNodes: 14})
	spec, _, err := vqi.BuildFromCorpus(corpus, catapult.Config{
		Budget: pattern.Budget{Count: 3, MinSize: 4, MaxSize: 7}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(spec, corpus, serverConfig{cacheSize: 64})
	s.buildIndex()
	return s
}

func cachePost(t *testing.T, s *server, body string) (*httptest.ResponseRecorder, queryResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(body)))
	var resp queryResponse
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

func TestQueryCacheHit(t *testing.T) {
	s := cachedTestServer(t)
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	rec1, resp1 := cachePost(t, s, body)
	if rec1.Code != 200 {
		t.Fatalf("status = %d (%s)", rec1.Code, rec1.Body)
	}
	_, resp2 := cachePost(t, s, body)
	if !reflect.DeepEqual(resp1, resp2) {
		t.Fatalf("cached response differs: %+v vs %+v", resp1, resp2)
	}
	hits, misses, _ := s.qc.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d; second identical query must be a hit", hits, misses)
	}
}

// TestQueryCacheCanonicalKey pins that two different drawings of the same
// pattern (relabeled node ids) share a cache entry.
func TestQueryCacheCanonicalKey(t *testing.T) {
	s := cachedTestServer(t)
	a := `{"nodes":["C","O","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}`
	b := `{"nodes":["C","C","O"],"edges":[{"u":2,"v":1,"label":"s"},{"u":0,"v":2,"label":"s"}]}`
	_, respA := cachePost(t, s, a)
	_, respB := cachePost(t, s, b)
	if !reflect.DeepEqual(respA, respB) {
		t.Fatalf("isomorphic queries answered differently: %+v vs %+v", respA, respB)
	}
	hits, misses, _ := s.qc.Stats()
	if misses != 1 || hits != 1 {
		t.Fatalf("hits=%d misses=%d; isomorphic queries must share one entry", hits, misses)
	}
}

func TestQueryCacheInvalidatedByRebuild(t *testing.T) {
	s := cachedTestServer(t)
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	cachePost(t, s, body)
	if s.qc.Len() != 1 {
		t.Fatalf("cache len = %d", s.qc.Len())
	}
	s.buildIndex() // rebuild path must reset the cache
	if s.qc.Len() != 0 {
		t.Fatal("index rebuild did not invalidate the query cache")
	}
	_, _ = cachePost(t, s, body)
	_, misses, _ := s.qc.Stats()
	if misses != 2 {
		t.Fatalf("misses = %d; post-rebuild query must recompute", misses)
	}
}

func TestQueryCacheConcurrentIdentical(t *testing.T) {
	s := cachedTestServer(t)
	body := `{"nodes":["C","C","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}`
	const n = 16
	var wg sync.WaitGroup
	responses := make([]queryResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.handleQuery(rec, httptest.NewRequest("POST", "/api/query", strings.NewReader(body)))
			codes[i] = rec.Code
			json.Unmarshal(rec.Body.Bytes(), &responses[i])
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if codes[i] != codes[0] || !reflect.DeepEqual(responses[i], responses[0]) {
			t.Fatalf("response %d differs: %d %+v vs %d %+v", i, codes[i], responses[i], codes[0], responses[0])
		}
	}
	hits, misses, dedups := s.qc.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d; concurrent identical queries must compute once", misses)
	}
	if hits+dedups != n-1 {
		t.Fatalf("hits=%d dedups=%d; want %d combined", hits, dedups, n-1)
	}
}

func TestCacheDisabledByDefaultConfig(t *testing.T) {
	s := testServer(t)
	if s.qc != nil {
		t.Fatal("zero config must not enable the cache")
	}
	body := `{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}`
	if rec, _ := cachePost(t, s, body); rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
}

// TestQueryCacheKeys pins the keys of the two caches one /api/query
// fills — response and plan — to the query's canonical code.
func TestQueryCacheKeys(t *testing.T) {
	s := cachedTestServer(t)
	body := `{"nodes":["C","O","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}`
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest("POST", "/api/query?plan=monolithic", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body)
	}
	q := graph.New("q")
	q.AddNode("C")
	q.AddNode("O")
	q.AddNode("C")
	q.MustAddEdge(0, 1, "s")
	q.MustAddEdge(1, 2, "s")
	code := canon.String(q)
	_, idx := s.snapshot()
	// Do runs its function only on a miss.
	s.qc.Do(qcache.EpochKey(code+"|plan=monolithic", idx.Epochs()), func() (cachedResponse, bool) {
		t.Error("no response cached under the canonical response key")
		return cachedResponse{}, false
	})
	s.planQC.Do(qcache.PlanKey(code+"|m=monolithic", idx.Epochs()), func() (*plan.Plan, bool) {
		t.Error("no plan cached under the canonical plan key")
		return nil, false
	})
}
