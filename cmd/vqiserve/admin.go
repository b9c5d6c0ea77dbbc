package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/gindex"
	"repro/internal/graph"
	"repro/internal/store"
)

// Admin batch updates: POST /admin/update applies a MIDAS-style batch
// (removals, then additions) to the live corpus. The handler is
// read-copy-update: it never mutates the corpus or index a concurrent
// query may be reading. It derives a fresh (corpus, index) pair — the
// index via Sharded.ApplyBatch, which derives new cores for the shards
// owning touched graphs from their previous ones (reading only the added
// graphs) and shares every other shard's core with the old index — and
// installs the pair atomically. In-flight queries finish against the
// snapshot they started on; new queries see the update.
//
// Caches are NOT reset. ApplyBatch bumps the touched shards' epochs, and
// every cache keys on the full epoch vector (qcache.EpochKey /
// qcache.PlanKey), so entries computed before the update become
// unreachable and age out of the LRU.

// updateRequest is the batch body. Added graphs use the same node/edge
// shape as queries, plus a unique name.
type updateRequest struct {
	Add []struct {
		Name  string   `json:"name"`
		Nodes []string `json:"nodes"`
		Edges []struct {
			U     int    `json:"u"`
			V     int    `json:"v"`
			Label string `json:"label"`
		} `json:"edges"`
	} `json:"add"`
	Remove []string `json:"remove"`
}

// updateResponse reports what the batch did and what it cost.
type updateResponse struct {
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Graphs  int    `json:"graphs"`        // corpus size after the batch
	Shards  int    `json:"shards"`        // total shard count
	Rebuilt []int  `json:"rebuilt"`       // touched shards: core derived, epoch bumped
	Millis  int64  `json:"millis"`        // wall-clock for apply+install
	Seq     uint64 `json:"seq,omitempty"` // durable WAL sequence number (persistent servers only)
}

// applyValidatedLocked derives the next (corpus, index) pair from the
// current one and installs it: the index via Sharded.ApplyBatch (derives
// only touched shards), the corpus mirrored with the same order
// discipline — survivors keep their relative order, additions append — so
// corpus positions agree with the index's global positions. Callers hold
// updateMu and have already validated (or durably logged) the batch.
func (s *server) applyValidatedLocked(added []*graph.Graph, removed []string) (*gindex.UpdateReport, error) {
	corpus, idx := s.snapshot()
	next, rep, err := idx.ApplyBatch(added, removed)
	if err != nil {
		return nil, err
	}
	rm := make(map[string]bool, len(removed))
	for _, n := range removed {
		rm[n] = true
	}
	// Survivors are adopted by name so a lazy (mmap-backed) corpus is not
	// forced resident by an unrelated batch; hydration state is shared
	// with the outgoing corpus, which in-flight queries still hold.
	nc := graph.NewCorpus()
	corpus.EachName(func(i int, name string) {
		if !rm[name] {
			nc.MustAdopt(corpus, i)
		}
	})
	for _, g := range added {
		nc.MustAdd(g)
	}
	s.mu.Lock()
	s.corpus = nc
	s.index = next
	s.mu.Unlock()
	return rep, nil
}

func (s *server) handleAdminUpdate(w http.ResponseWriter, r *http.Request) {
	if err := s.inject.Fire("admin"); err != nil {
		writeErr(w, http.StatusInternalServerError, "injected", err.Error())
		return
	}
	if s.network {
		writeErr(w, http.StatusConflict, "network_mode",
			"batch updates apply to corpus mode; this server serves a single network")
		return
	}
	if s.phase.Load() != phaseReady {
		writeErr(w, http.StatusServiceUnavailable, "not_ready", "index build in progress")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.maxBodyBytes))
			return
		}
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error())
		return
	}
	if len(req.Add) == 0 && len(req.Remove) == 0 {
		writeErr(w, http.StatusBadRequest, "empty_batch", "batch has no additions and no removals")
		return
	}
	added := make([]*graph.Graph, 0, len(req.Add))
	for i, ag := range req.Add {
		if ag.Name == "" {
			writeErr(w, http.StatusBadRequest, "bad_batch",
				fmt.Sprintf("add[%d]: graph name is required", i))
			return
		}
		g := graph.New(ag.Name)
		for _, l := range ag.Nodes {
			g.AddNode(l)
		}
		for _, e := range ag.Edges {
			if _, err := g.AddEdge(e.U, e.V, e.Label); err != nil {
				writeErr(w, http.StatusBadRequest, "bad_batch",
					fmt.Sprintf("add[%d] %q: %v", i, ag.Name, err))
				return
			}
		}
		added = append(added, g)
	}

	// One writer at a time: ApplyBatch derives the next index from the
	// current one, so concurrent updates must serialize or one would
	// clobber the other. Queries never take updateMu.
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	start := time.Now()
	// Durability ordering: validate, then durably log, then apply. The
	// validation comes first so every logged record is guaranteed to replay
	// cleanly after a crash; the append comes before the apply (and the
	// 200) so in-memory state never gets ahead of the log — a batch whose
	// append fails is NOT applied, and the client retries against unchanged
	// state.
	_, idx := s.snapshot()
	if err := idx.ValidateBatch(added, req.Remove); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_batch", err.Error())
		return
	}
	var seq uint64
	if s.st != nil {
		var err error
		seq, err = s.st.Append(store.Batch{Added: added, Removed: req.Remove})
		if err != nil {
			s.obs.Counter("vqiserve_admin_wal_errors_total").Inc()
			writeErr(w, http.StatusInternalServerError, "wal_append",
				fmt.Sprintf("batch not applied: %v", err))
			return
		}
	}
	rep, err := s.applyValidatedLocked(added, req.Remove)
	if err != nil {
		// Unreachable after ValidateBatch; if it ever trips the durable
		// record is still replayable and memory is merely behind the log.
		writeErr(w, http.StatusInternalServerError, "apply_failed", err.Error())
		return
	}
	nc, _ := s.snapshot()
	elapsed := time.Since(start)
	s.obs.Counter("vqiserve_admin_updates_total").Inc()
	s.obs.Counter("vqiserve_admin_graphs_added_total").Add(int64(rep.Added))
	s.obs.Counter("vqiserve_admin_graphs_removed_total").Add(int64(rep.Removed))
	s.obs.Counter("vqiserve_admin_shards_rebuilt_total").Add(int64(len(rep.Rebuilt)))
	s.obs.Histogram("vqiserve_admin_update_seconds").Observe(elapsed.Seconds())
	log.Printf("vqiserve: admin update +%d -%d graphs, rebuilt %d/%d shards in %v",
		rep.Added, rep.Removed, len(rep.Rebuilt), rep.Shards, elapsed.Round(time.Microsecond))
	rebuilt := rep.Rebuilt
	if rebuilt == nil {
		rebuilt = []int{}
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Added:   rep.Added,
		Removed: rep.Removed,
		Graphs:  nc.Len(),
		Shards:  rep.Shards,
		Rebuilt: rebuilt,
		Millis:  elapsed.Milliseconds(),
		Seq:     seq,
	})
}
