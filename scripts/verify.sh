#!/usr/bin/env bash
# Repo verification: build, vet, gofmt, full tests, one iteration of every Go
# benchmark, then the race detector over every package (the parallel layer
# in internal/par and its call sites are only trustworthy under -race), and
# finally a focused fault-injection smoke pass over the hardened serving
# layer. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Tracked and untracked-but-not-ignored Go files, so build output under
# ignored directories is never scanned.
unformatted="$(git ls-files -co --exclude-standard -- '*.go' | xargs gofmt -l)"
[[ -z "$unformatted" ]] \
  || { echo "gofmt -l reports unformatted files:"; echo "$unformatted"; exit 1; }

echo "== go test =="
go test ./...

echo "== go test (vqibench module) =="
# vqibench is its own module (it replaces repro with ../), so the root
# go test ./... never reaches it.
(cd vqibench && go test ./...)

echo "== go benchmarks (one iteration each, so none can rot unnoticed) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "== go test -race =="
go test -race ./...

echo "== fault-injection smoke (-race) =="
go test -race -count=1 -run 'Fault|Panic|Timeout|Drain|Inject|Ctx|Context|Cancel|Deadline' \
  ./internal/faultinject ./internal/isomorph ./internal/par ./internal/gindex ./cmd/vqiserve

echo "== fuzz-seed regression (checked-in corpora) =="
go test -count=1 -run 'Fuzz' ./internal/gio ./cmd/vqiserve

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"; [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true' EXIT

# The benchmark smokes run one benchvqi build from a scratch working
# directory: each suite writes its BENCH_*.json to the working directory,
# and the tracked copies at the repo root must stay as recorded.
benchdir="$tmpdir/bench"
mkdir -p "$benchdir"
go build -o "$tmpdir/benchvqi" ./cmd/benchvqi
bench() { (cd "$benchdir" && "$tmpdir/benchvqi" -exp "$1"); }

echo "== benchmark smoke (K1 kernel suite) =="
bench K1

echo "== benchmark smoke (S1 sharded-index suite) =="
bench S1

echo "== benchmark smoke (O1 observability-overhead suite) =="
bench O1

echo "== benchmark smoke (A1 approximate-similarity suite) =="
bench A1
grep -q '"rebuild_only_touched": true' "$benchdir/BENCH_ann.json" \
  || { echo "A1: batch update rebuilt more than the touched shards"; exit 1; }

echo "== benchmark smoke (P2 query-plan suite, plan-vs-oracle equivalence) =="
bench P2
grep -q '"contract_violations": 0' "$benchdir/BENCH_plan.json" \
  || { echo "P2: a planned answer differed from the monolithic oracle"; exit 1; }

echo "== metrics endpoint smoke (vqiserve -pprof, live scrape) =="
go run ./cmd/datagen -kind chemical -n 20 -out "$tmpdir/corpus.lg"
go run ./cmd/vqibuild -data "$tmpdir/corpus.lg" -out "$tmpdir/vqi.json" -count 3 -metrics
go build -o "$tmpdir/vqiserve" ./cmd/vqiserve
"$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
  -addr 127.0.0.1:0 -pprof -ann >"$tmpdir/serve.log" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$tmpdir/serve.log" | head -1)"
  [[ -n "$addr" ]] && break
  sleep 0.1
done
[[ -n "$addr" ]] || { echo "vqiserve never reported its address"; cat "$tmpdir/serve.log"; exit 1; }
curl -fsS "http://$addr/metrics" | grep 'vqiserve_requests_total' >/dev/null \
  || { echo "/metrics JSON missing request counters"; exit 1; }
curl -fsS "http://$addr/metrics?format=prometheus" | grep '# TYPE vqiserve_request_seconds histogram' >/dev/null \
  || { echo "/metrics prometheus output missing histogram family"; exit 1; }
curl -fsS "http://$addr/debug/vars" | grep 'vqiserve_inflight_requests' >/dev/null \
  || { echo "/debug/vars missing inflight gauge"; exit 1; }
curl -fsS "http://$addr/debug/pprof/cmdline" >/dev/null \
  || { echo "-pprof did not mount /debug/pprof/"; exit 1; }
ct="$(curl -fsS -o /dev/null -w '%{content_type}' "http://$addr/metrics")"
[[ "$ct" == application/json* ]] \
  || { echo "/metrics JSON content-type: $ct"; exit 1; }
ct="$(curl -fsS -o /dev/null -w '%{content_type}' "http://$addr/metrics?format=prometheus")"
[[ "$ct" == "text/plain; version=0.0.4"* ]] \
  || { echo "/metrics prometheus content-type: $ct"; exit 1; }
code="$(curl -s -o "$tmpdir/badformat.json" -w '%{http_code}' "http://$addr/metrics?format=bogus")"
[[ "$code" == 400 ]] && grep -q '"bad_format"' "$tmpdir/badformat.json" \
  || { echo "/metrics?format=bogus: got $code $(cat "$tmpdir/badformat.json")"; exit 1; }
echo "metrics endpoint: OK"

echo "== similarity endpoint smoke (live /api/similar) =="
curl -fsS "http://$addr/api/similar" -d '{"graph":"mol3","k":3}' \
  | grep '"mol3"' >/dev/null \
  || { echo "/api/similar did not retrieve the query graph"; exit 1; }
curl -fsS "http://$addr/api/similar" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}],"k":3,"mode":"exact","verify":true}' \
  | grep '"matches"' >/dev/null \
  || { echo "/api/similar inline exact+verify query failed"; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/api/similar" -d '{"graph":"mol3","mode":"bogus"}')"
[[ "$code" == 400 ]] \
  || { echo "/api/similar bad mode: got $code, want 400"; exit 1; }
echo "similarity endpoint: OK"

echo "== query planner smoke (live /api/query?plan= modes) =="
# The retired decompose mode is an unknown mode like any other: 400 bad_plan.
code="$(curl -s -o "$tmpdir/badplan.json" -w '%{http_code}' "http://$addr/api/query?plan=decompose" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}')"
[[ "$code" == 400 ]] && grep -q '"bad_plan"' "$tmpdir/badplan.json" \
  || { echo "?plan=decompose: got $code $(cat "$tmpdir/badplan.json"), want 400 bad_plan"; exit 1; }
# The server runs -ann, so a forced ANN-first plan must report its
# strategy and the trace must show the shortlist and verify stages plus
# the search and facet layer spans.
plan_resp="$(curl -fsS "http://$addr/api/query?plan=ann" \
  -d '{"nodes":["C","C","C"],"edges":[{"u":0,"v":1,"label":"s"},{"u":1,"v":2,"label":"s"}]}')"
grep -q '"strategy":"ann"' <<<"$plan_resp" \
  || { echo "?plan=ann did not report the ann strategy: $plan_resp"; exit 1; }
grep -q '"plan.shortlist"' <<<"$plan_resp" \
  || { echo "?plan=ann trace missing the shortlist stage: $plan_resp"; exit 1; }
grep -q '"plan.verify"' <<<"$plan_resp" \
  || { echo "?plan=ann trace missing the verify stage: $plan_resp"; exit 1; }
grep -q '"gindex.search"' <<<"$plan_resp" \
  || { echo "?plan=ann trace missing the search span: $plan_resp"; exit 1; }
grep -q '"results.facets"' <<<"$plan_resp" \
  || { echo "?plan=ann trace missing the facets span: $plan_resp"; exit 1; }
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "query planner: OK"

echo "== benchmark smoke (D1 durability suite) =="
bench D1
grep -q '"compacted snapshot"' "$benchdir/BENCH_store.json" \
  || { echo "D1: BENCH_store.json missing the cold-boot variants"; exit 1; }

echo "== crash-recovery smoke (kill -9 mid-stream, restart, re-query) =="
datadir="$tmpdir/data"
start_durable() {
  "$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
    -data-dir "$datadir" -addr 127.0.0.1:0 >"$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$1" | head -1)"
    [[ -n "$addr" ]] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "durable vqiserve never became ready"; cat "$1"; exit 1
}
start_durable "$tmpdir/durable1.log"
update_resp="$(curl -fsS "http://$addr/admin/update" \
  -d '{"add":[{"name":"crash-added","nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}')"
grep -q '"seq":1' <<<"$update_resp" \
  || { echo "durable update not acknowledged at seq 1: $update_resp"; exit 1; }
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
start_durable "$tmpdir/durable2.log"
grep -q 'replaying 1 WAL batches' "$tmpdir/durable2.log" \
  || { echo "restart did not replay the acknowledged WAL batch"; cat "$tmpdir/durable2.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"crash-added"' \
  || { echo "restart lost the acknowledged update"; exit 1; }
echo "crash recovery: OK"

echo "== SIGINT graceful drain =="
kill -INT "$server_pid"
rc=0; wait "$server_pid" || rc=$?
[[ "$rc" == 0 ]] \
  || { echo "SIGINT exit code $rc, want 0"; cat "$tmpdir/durable2.log"; exit 1; }
grep -q 'drained cleanly' "$tmpdir/durable2.log" \
  || { echo "SIGINT did not drain cleanly"; cat "$tmpdir/durable2.log"; exit 1; }
server_pid=""
echo "SIGINT drain: OK"

echo "== benchmark smoke (M1 mmap capacity suite) =="
bench M1
grep -q '"contract_violations": 0' "$benchdir/BENCH_mmap.json" \
  || { echo "M1: mmap boot contract violated (sections not restored cleanly)"; exit 1; }

echo "== mmap crash-recovery smoke (kill -9 mid-stream, mmap restart, compact, section-restored boot) =="
mmapdir="$tmpdir/mmapdata"
start_mmap() {
  "$tmpdir/vqiserve" -spec "$tmpdir/vqi.json" -data "$tmpdir/corpus.lg" \
    -data-dir "$mmapdir" -mmap -addr 127.0.0.1:0 >"$1" 2>&1 &
  server_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/.*listening on \([0-9.:]*\)$/\1/p' "$1" | head -1)"
    [[ -n "$addr" ]] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "mmap vqiserve never became ready"; cat "$1"; exit 1
}
start_mmap "$tmpdir/mmap1.log"
update_resp="$(curl -fsS "http://$addr/admin/update" \
  -d '{"add":[{"name":"mmap-added","nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}]}')"
grep -q '"seq":1' <<<"$update_resp" \
  || { echo "mmap durable update not acknowledged at seq 1: $update_resp"; exit 1; }
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
start_mmap "$tmpdir/mmap2.log"
grep -q 'mapped lazy' "$tmpdir/mmap2.log" \
  || { echo "mmap restart did not use the mapped boot path"; cat "$tmpdir/mmap2.log"; exit 1; }
grep -q 'replaying 1 WAL batches' "$tmpdir/mmap2.log" \
  || { echo "mmap restart did not replay the acknowledged WAL batch"; cat "$tmpdir/mmap2.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"mmap-added"' \
  || { echo "mmap restart lost the acknowledged update"; exit 1; }
kill -INT "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
go run ./cmd/vqimaintain -compact -data-dir "$mmapdir" -mmap
start_mmap "$tmpdir/mmap3.log"
grep -Eq 'restored [0-9]+/[0-9]+ shards from persisted index sections \(0 rebuilt\)' "$tmpdir/mmap3.log" \
  || { echo "compacted mmap boot did not restore every shard from sections"; cat "$tmpdir/mmap3.log"; exit 1; }
curl -fsS "http://$addr/api/query" \
  -d '{"nodes":["C","C"],"edges":[{"u":0,"v":1,"label":"s"}]}' \
  | grep -q '"mmap-added"' \
  || { echo "section-restored boot lost the acknowledged update"; exit 1; }
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "mmap crash recovery: OK"

echo "verify: OK"
