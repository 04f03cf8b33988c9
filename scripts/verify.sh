#!/usr/bin/env bash
# Tiered verification ladder. Every CI job calls one rung of this script,
# so the exact commands CI enforces are runnable (and debuggable) locally:
#
#   scripts/verify.sh --level=unit          # gofmt + vet + build (incl. purego) + tests (incl. bench/) + bench smoke
#   scripts/verify.sh --level=race          # race detector over ./... + fuzz corpus
#   scripts/verify.sh --level=flake         # serving/runner packages under -race, 50 times over
#   scripts/verify.sh --level=kernels       # coding-kernel differential: default vs -tags purego
#   scripts/verify.sh --level=differential  # scenario-grid fast/slow scan + cell and chain fuzz + EXPERIMENTS.md bytes
#   scripts/verify.sh --level=smoke         # rxld HTTP serving-contract drill
#   scripts/verify.sh --level=metrics       # /metrics + trace contract + rxltop drill
#   scripts/verify.sh --level=fleet         # 3-daemon fleet + front byte-identity e2e
#   scripts/verify.sh --level=compose       # same drill via docker compose (skips w/o docker)
#   scripts/verify.sh --level=bench         # the host-independent speed floors (BenchmarkFloors)
#   scripts/verify.sh --level=e2e           # bench/run.sh -repeat 3 -> bench/out/result.json
#   scripts/verify.sh --level=all           # the whole ladder, bottom to top
set -euo pipefail
cd "$(dirname "$0")/.."

level=unit
for arg in "$@"; do
  case "$arg" in
    --level=*) level="${arg#--level=}" ;;
    *)
      echo "usage: $0 [--level=unit|race|flake|kernels|differential|smoke|metrics|fleet|compose|bench|e2e|all]" >&2
      exit 2
      ;;
  esac
done

run() {
  echo "+ $*" >&2
  "$@"
}

# Every daemon a rung boots is recorded in PIDS; stop_daemons ends them,
# and runs on any exit so a failed assertion leaves nothing behind.
PIDS=()
stop_daemons() {
  [ ${#PIDS[@]} -eq 0 ] || kill "${PIDS[@]}" 2>/dev/null || true
  PIDS=()
}
trap stop_daemons EXIT

# boot_daemon — build rxld and start one standalone daemon on a random
# port; sets ADDR once the daemon has written its address file.
boot_daemon() {
  run go build -o rxld ./cmd/rxld
  rm -f rxld.addr
  ./rxld -addr 127.0.0.1:0 -addr-file rxld.addr &
  PIDS+=($!)
  for _ in $(seq 50); do [ -s rxld.addr ] && break; sleep 0.2; done
  ADDR=$(cat rxld.addr)
  echo "daemon at $ADDR"
}

# wait_healthz URL... — poll each daemon's /v1/healthz until it answers.
wait_healthz() {
  local u
  for u in "$@"; do
    for _ in $(seq 50); do
      curl -fsS "$u/v1/healthz" >/dev/null 2>&1 && break
      sleep 0.2
    done
  done
}

# boot_fleet PORT [front flags...] — build rxld and start a 3-member
# consistent-hash fleet on PORT+1..PORT+3 with a front on PORT, as host
# processes; sets FRONT and MEMBERS (base URLs) once all four answer. The
# front starts only once the members answer: its first health probe runs
# at start, and a member not yet listening then stays unroutable until
# the next probe round, so the front would route around the key owners.
boot_fleet() {
  local port=$1 m peers
  shift
  run go build -o rxld ./cmd/rxld
  FRONT="http://127.0.0.1:$port"
  MEMBERS=("http://127.0.0.1:$((port + 1))" "http://127.0.0.1:$((port + 2))" "http://127.0.0.1:$((port + 3))")
  peers=$(IFS=,; echo "${MEMBERS[*]}")
  for m in "${MEMBERS[@]}"; do
    ./rxld -addr "${m#http://}" -fleet-self "$m" -fleet-peers "$peers" &
    PIDS+=($!)
  done
  wait_healthz "${MEMBERS[@]}"
  ./rxld -addr "${FRONT#http://}" -fleet "$peers" "$@" &
  PIDS+=($!)
  wait_healthz "$FRONT"
}

rung_unit() {
  # gofmt prints the tracked .go files it would rewrite; any name fails.
  echo "+ gofmt -l (tracked .go files)" >&2
  local unformatted
  unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
  [ -z "$unformatted" ] || { echo "gofmt -l: $unformatted" >&2; exit 1; }
  run go vet ./...
  run go build ./...
  # The purego build is the pinned reference for every SIMD-dispatched
  # kernel; it must always compile even when only the asm path changed.
  run go build -tags purego ./...
  run go test ./...
  # Benchmark smoke: one iteration of everything, so a benchmark that no
  # longer compiles or trips its own assertions fails fast here
  # (BenchmarkFloors judges no ratio whose legs ran this briefly).
  run go test -run '^$' -bench . -benchtime 1x ./...
  # bench/ is a module of its own (the BENCHMARK.json harness), so ./...
  # above does not reach it.
  (cd bench && run go vet ./... && run go test ./...)
}

rung_race() {
  run go test -race ./...
  # Fuzz seed corpora (replay parsing, JobSpec normalize, spill files,
  # the job-view envelope against the encoder, Prometheus text, the engine
  # against its single-heap reference; no long fuzzing).
  run go test -run 'Fuzz.*' ./internal/workload/ ./internal/service/ ./internal/obs/ ./internal/sim/
}

rung_flake() {
  # The concurrent packages — daemon, fleet, tracing, sharded runner —
  # under the race detector, fifty runs each: an interleaving that fails
  # once in fifty fails the rung.
  run go test -race -count=50 ./internal/service/ ./internal/fleet/ ./internal/obs/ ./internal/runner/
}

rung_kernels() {
  # Coding-kernel differential: the exact same test and fuzz-corpus suite
  # twice — once on the dispatched build (CLMUL CRC folding where the CPU
  # has it, the slicing-by-8 RS remainder kernel) and once under
  # -tags purego (the pinned byte-level reference). Every differential
  # test in these packages cross-checks fast against reference, so the
  # two runs together pin the asm and vectored paths bit-for-bit.
  run go test -count=1 ./internal/crc/ ./internal/rs/ ./internal/flit/
  run go test -count=1 -tags purego ./internal/crc/ ./internal/rs/ ./internal/flit/
  # Kernel fuzz corpora, replayed on both builds, with the error-schedule
  # walk's (Walk against a crossing-by-crossing Channel walk).
  run go test -count=1 -run 'Fuzz.*' ./internal/crc/ ./internal/rs/ ./internal/phy/
  run go test -count=1 -tags purego -run 'Fuzz.*' ./internal/crc/ ./internal/rs/ ./internal/phy/
  # A short live fuzz of the FEC kernel against its per-way reference, of
  # the schedule walk against its stepwise twin and of the event engine
  # against a single binary heap, on the default build; go runs one -fuzz
  # target per invocation.
  for target in rs:FuzzInterleavedEncode rs:FuzzReencodeIdentity rs:FuzzVerifyDecode \
    rs:FuzzDecodeMatchesReference phy:FuzzWalkMatchesStepwise sim:FuzzEngineMatchesReference; do
    run go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime=10s "./internal/${target%%:*}/"
  done
}

rung_differential() {
  # Sweep the built-in topology x workload x fault grid through the
  # fast-path/byte-level differential; any diverging cell (or
  # non-exactly-once RXL delivery) exits non-zero.
  # At the paper's 1e-6 clean flits dominate: payloads stay deferred end to end.
  run go run ./cmd/rxlsim -scan -scan-n 25 -ber 1e-6
  run go run ./cmd/rxlsim -scan -scan-n 25 -ber 1e-5
  # Again where retransmissions dominate: every replayed flit defers its
  # seal on the fast path, so these cells pin that against byte-level.
  run go run ./cmd/rxlsim -scan -scan-n 25 -ber 1e-4
  # Off the fixed grid: a live fuzz of small mesh/torus cells (any
  # workload, fault script, protocol, BER 1e-7..1e-3, burst, coalescing,
  # n <= 64), each run on both paths; a diverging cell fails the rung.
  run go test -run '^$' -fuzz '^FuzzCellFastMatchesReference$' -fuzztime=30s ./internal/core/
  # Its chain sibling: core.Experiment at levels 1-4 (any protocol, BER
  # 1e-7..1e-4, burst, coalescing, propagation, n <= 256, switch-internal
  # flips on RXL chains), each run on both paths.
  run go test -run '^$' -fuzz '^FuzzExperimentFastMatchesReference$' -fuzztime=30s ./internal/core/
  # The committed evaluation record: every output byte of the full sweep
  # must reproduce EXPERIMENTS.md.
  run go run ./cmd/sweep -rare | cmp - EXPERIMENTS.md
}

rung_smoke() {
  # Boot the real daemon on a random port, drive the HTTP API the way an
  # operator would, and assert the serving contract — the repeat of an
  # identical job must be a cache hit with a byte-identical result.
  boot_daemon

  curl -fsS "http://$ADDR/v1/healthz" | jq -e '.ok == true'

  SPEC='{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'
  FIRST=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  echo "$FIRST" | jq '{id, status, cached}'
  ID=$(echo "$FIRST" | jq -r .id)

  DONE=$(curl -fsS "http://$ADDR/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done

  SECOND=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  echo "$SECOND" | jq '{id, status, cached}'
  test "$(echo "$SECOND" | jq -r .cached)" = true
  test "$(echo "$SECOND" | jq -r .status)" = done

  # Byte-identical result documents between the computed first run and
  # the cached repeat.
  echo "$DONE" | jq -cS .result >r1.json
  echo "$SECOND" | jq -cS .result >r2.json
  cmp r1.json r2.json

  curl -fsS "http://$ADDR/v1/statsz" | tee statsz.json | jq .
  jq -e '.cache.hits >= 1 and .jobs_completed >= 2' statsz.json

  stop_daemons
}

rung_metrics() {
  # Observability contract: the daemon exposes valid Prometheus text with
  # the documented families and outcome-split latency histograms, a
  # client-sent request id resolves to a lifecycle trace, and rxltop
  # renders a 3-member fleet map from nothing but /metrics endpoints.
  BASE=$(mktemp -d)
  run go build -o "$BASE/rxltop" ./cmd/rxltop
  boot_daemon

  SPEC='{"kind":"grid","seed":11,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'
  RID=feedfacecafe0001
  FIRST=$(curl -fsS -X POST -H "X-Rxl-Request-Id: $RID" "http://$ADDR/v1/jobs" -d "$SPEC")
  ID=$(echo "$FIRST" | jq -r .id)
  test "$(echo "$FIRST" | jq -r .request_id)" = "$RID"
  DONE=$(curl -fsS "http://$ADDR/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done
  SECOND=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  test "$(echo "$SECOND" | jq -r .cached)" = true

  # Every documented family is present, and the outcome split advanced:
  # exactly one miss (the compute) and one hit (the repeat) so far.
  curl -fsS "http://$ADDR/metrics" >"$BASE/metrics.txt"
  for fam in rxld_uptime_seconds rxld_queue_depth rxld_shard_utilization \
             rxld_jobs_submitted_total rxld_jobs_completed_total \
             rxld_cache_entries rxld_cache_bytes rxld_cache_hits_total \
             rxld_request_seconds_bucket rxld_request_seconds_count; do
    grep -q "^$fam" "$BASE/metrics.txt" || { echo "missing family $fam" >&2; return 1; }
  done
  grep -q 'rxld_request_seconds_count{outcome="miss"} 1$' "$BASE/metrics.txt"
  grep -q 'rxld_request_seconds_count{outcome="hit"} 1$' "$BASE/metrics.txt"

  # The propagated request id resolves to the job's lifecycle trace.
  TRACE=$(curl -fsS "http://$ADDR/v1/jobs/$ID/trace")
  echo "$TRACE" | jq -e --arg rid "$RID" '.request_id == $rid'
  echo "$TRACE" | jq -e '[.spans[].name] | contains(["submit", "run", "finish"])'
  curl -fsS "http://$ADDR/v1/trace/$RID" | jq -e '.spans | length > 0'

  stop_daemons

  # 3-member fleet + front with active probing: the front's per-peer
  # families render, and rxltop folds the whole fleet into one map.
  boot_fleet 17090 -fleet-probe-interval 250ms
  curl -fsS -X POST "$FRONT/v1/jobs" -d "$SPEC" >/dev/null
  sleep 1 # let a probe round land
  # Into a file first: grep -q exits at its first match, and under
  # pipefail the write error curl then gets would fail the rung.
  curl -fsS "$FRONT/metrics" >"$BASE/front-metrics.txt"
  grep -q '^rxlfront_peer_up' "$BASE/front-metrics.txt"

  "$BASE/rxltop" -front "$FRONT" | tee "$BASE/top.txt"
  grep -q "FRONT $FRONT" "$BASE/top.txt"
  grep -q '^MEMBER' "$BASE/top.txt"
  for m in "${MEMBERS[@]}"; do
    grep "${m#http://}" "$BASE/top.txt" | grep -qv DOWN
  done

  stop_daemons
  rm -rf "$BASE"
}

# fleet_drill BASE FRONT D1 D2 D3 — the shared fleet serving-contract
# checks, parameterized on URLs so the process rung and the compose rung
# assert exactly the same things. BASE is a scratch directory for the
# result files.
fleet_drill() {
  local base=$1 front=$2 d1=$3 d2=$4 d3=$5

  SPEC='{"kind":"grid","seed":41,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'

  curl -fsS "$front/v1/healthz" | jq -e '.ok == true and .role == "front"'

  # Submit through the front, wait, repeat: the repeat must be answered
  # from the owner's cache, through the front, byte-identically.
  FIRST=$(curl -fsS -X POST "$front/v1/jobs" -d "$SPEC")
  ID=$(echo "$FIRST" | jq -r .id)
  echo "front issued job $ID"
  case "$ID" in p[0-9]*~*) ;; *) echo "front job id lacks peer prefix: $ID" >&2; return 1 ;; esac
  DONE=$(curl -fsS "$front/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done
  SECOND=$(curl -fsS -X POST "$front/v1/jobs" -d "$SPEC")
  test "$(echo "$SECOND" | jq -r .cached)" = true
  # Single-owner placement: both submissions went to the key's ring owner.
  SECOND_ID=$(echo "$SECOND" | jq -r .id)
  test "${ID%%~*}" = "${SECOND_ID%%~*}"
  echo "$DONE"   | jq -cS .result >"$base/front1.json"
  echo "$SECOND" | jq -cS .result >"$base/front2.json"
  cmp "$base/front1.json" "$base/front2.json"

  # Submit the same spec directly to every daemon: the non-owners must
  # peer-fetch the owner's bytes instead of recomputing, and all three
  # answers must be byte-identical.
  i=0
  for d in "$d1" "$d2" "$d3"; do
    i=$((i + 1))
    V=$(curl -fsS -X POST "$d/v1/jobs" -d "$SPEC")
    VID=$(echo "$V" | jq -r .id)
    curl -fsS "$d/v1/jobs/$VID?wait=60000" | jq -cS .result >"$base/direct$i.json"
    cmp "$base/front1.json" "$base/direct$i.json"
  done
  PEER_HITS=0
  for d in "$d1" "$d2" "$d3"; do
    ST=$(curl -fsS "$d/v1/statsz")
    echo "$ST" | jq -e '.fleet.ring_size > 0'
    PEER_HITS=$((PEER_HITS + $(echo "$ST" | jq '.fleet.peer_hits // 0')))
  done
  echo "fleet-wide peer_hits=$PEER_HITS"
  test "$PEER_HITS" -ge 2 # the two non-owners fetched instead of computing

  # Members answer before the front starts, so no forward ever failed over.
  curl -fsS "$front/v1/statsz" | jq -e '.forwards >= 2 and .failovers == 0 and .ring_size > 0'
}

rung_fleet() {
  # Boot a real 3-daemon fleet plus a front as separate processes, drive
  # the fleet serving contract, and diff every byte against a standalone
  # (fleet-less) daemon — routing must never change a result.
  BASE=$(mktemp -d)
  boot_fleet 17080
  boot_daemon

  fleet_drill "$BASE" "$FRONT" "${MEMBERS[@]}"

  # Differential leg: the same spec on a standalone daemon must produce
  # the exact bytes the fleet served (SPEC is the drill's).
  V=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  VID=$(echo "$V" | jq -r .id)
  curl -fsS "http://$ADDR/v1/jobs/$VID?wait=60000" | jq -cS .result >"$BASE/standalone.json"
  cmp "$BASE/front1.json" "$BASE/standalone.json"
  echo "fleet bytes == standalone bytes"

  stop_daemons
  rm -rf "$BASE"
}

rung_compose() {
  # The same drill against the docker-compose fleet fixture. Skips (exit
  # 0) when no usable docker daemon or compose plugin is present, so the
  # rung is safe in 'all' on docker-less dev boxes; CI runs it for real.
  if ! command -v docker >/dev/null || ! docker info >/dev/null 2>&1; then
    echo "verify: compose rung skipped (no docker daemon)" >&2
    return 0
  fi
  if ! docker compose version >/dev/null 2>&1; then
    echo "verify: compose rung skipped (no docker compose plugin)" >&2
    return 0
  fi
  BASE=$(mktemp -d)
  run docker compose up --build -d --wait
  trap 'docker compose down -v --remove-orphans >/dev/null 2>&1 || true' EXIT
  fleet_drill "$BASE" "http://127.0.0.1:17080" \
    "http://127.0.0.1:17081" "http://127.0.0.1:17082" "http://127.0.0.1:17083"
  run docker compose down -v --remove-orphans
  trap stop_daemons EXIT
  rm -rf "$BASE"
}

rung_bench() {
  # The host-independent speed floors (bench_test.go's floors table,
  # DESIGN.md §2): BenchmarkFloors runs each ratio's two legs, prints the
  # ratio and fails itself when one is under its minimum.
  run go test -run '^$' -bench '^BenchmarkFloors$' .
}

rung_e2e() {
  # The benchmark BENCHMARK.json declares, three full sets, into
  # bench/out/result.json.
  run bash bench/run.sh -repeat 3
}

case "$level" in
unit) rung_unit ;;
race) rung_race ;;
flake) rung_flake ;;
kernels) rung_kernels ;;
differential) rung_differential ;;
smoke) rung_smoke ;;
metrics) rung_metrics ;;
fleet) rung_fleet ;;
compose) rung_compose ;;
bench) rung_bench ;;
e2e) rung_e2e ;;
all)
  rung_unit
  rung_race
  rung_flake
  rung_kernels
  rung_differential
  rung_smoke
  rung_metrics
  rung_fleet
  rung_compose
  rung_bench
  rung_e2e
  ;;
*)
  echo "unknown level '$level' (want unit|race|flake|kernels|differential|smoke|metrics|fleet|compose|bench|e2e|all)" >&2
  exit 2
  ;;
esac

echo "verify: level '$level' passed" >&2
