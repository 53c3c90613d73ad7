#!/usr/bin/env bash
# smoke_fleet.sh — end-to-end fleet smoke (DESIGN.md §13): boot three
# manirankd replicas peered over loopback, POST one request to every node,
# then to every node again, and assert the ring behaved as a single sharded
# cache: the second pass answered from cache everywhere with one ranking,
# exactly one matrix build fleet-wide (per-ring single compute), and result
# peer hits recorded on /metricsz — whichever replicas the ring makes
# owners. Then kill the replica that built and assert the survivors still
# answer the same request with 200 — a dead peer can slow a request, never
# fail it. Used by CI's serve-smoke stage.
set -euo pipefail

cd "$(dirname "$0")/.."

go build -o /tmp/manirankd ./cmd/manirankd

BASE_PORT="${FLEET_SMOKE_PORT:-18180}"
PIDS=()
URLS=()
for i in 0 1 2; do
  URLS+=("http://127.0.0.1:$((BASE_PORT + i))")
done
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

for i in 0 1 2; do
  PEERS=""
  for j in 0 1 2; do
    [ "$j" = "$i" ] && continue
    PEERS="${PEERS:+$PEERS,}${URLS[$j]}"
  done
  /tmp/manirankd -addr "127.0.0.1:$((BASE_PORT + i))" \
    -fleet-self "${URLS[$i]}" -peers "$PEERS" \
    -fleet-probe-interval 100ms -log-level warn &
  PIDS+=($!)
done

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "replica $1 never became healthy" >&2
  exit 1
}
for url in "${URLS[@]}"; do wait_healthy "$url"; done
echo "3 replicas healthy"

REQ='{
  "method": "fair-kemeny",
  "profile": [
    [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19],
    [19,18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0],
    [1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14,17,16,19,18]
  ],
  "attributes": [{
    "name": "Gender",
    "values": ["M", "W"],
    "of": [0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1]
  }],
  "delta": 0.2
}'

ranking_of() { sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p'; }

# First pass: every replica sees the request once. Each either reads the
# result from a peer or solves it itself; all must agree on the ranking.
R1=""
for url in "${URLS[@]}"; do
  OUT="$(curl -sf -X POST "$url/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
  RN="$(echo "$OUT" | ranking_of)"
  [ -n "$RN" ] || { echo "$url: no ranking in response: $OUT" >&2; exit 1; }
  R1="${R1:-$RN}"
  [ "$R1" = "$RN" ] || { echo "$url served a different ranking" >&2; exit 1; }
done

# Second pass: every replica now holds the result and answers from cache.
for url in "${URLS[@]}"; do
  OUT="$(curl -sf -X POST "$url/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
  echo "$OUT" | grep -q '"cached":true' || { echo "$url recomputed a result it already served: $OUT" >&2; exit 1; }
  RN="$(echo "$OUT" | ranking_of)"
  [ "$R1" = "$RN" ] || { echo "$url served a different ranking on the second pass" >&2; exit 1; }
done

# Per-ring single compute: exactly one matrix build across all three
# replicas, and at least one peer hit moved between them.
BUILDS=0
PEER_HITS=0
BUILDER=""
for i in 0 1 2; do
  M="$(curl -sf "${URLS[$i]}/metricsz")"
  B="$(echo "$M" | awk '$1 == "manirank_matrix_builds_total" {print int($2)}')"
  P="$(echo "$M" | awk '$1 == "manirank_cache_peer_hits_total{tier=\"result\"}" {print int($2)}')"
  BUILDS=$((BUILDS + B))
  PEER_HITS=$((PEER_HITS + P))
  [ "$B" -gt 0 ] && BUILDER=$i
  STATZ="$(curl -sf "${URLS[$i]}/statz")"
  echo "$STATZ" | grep -q '"nodes":3' || { echo "node $i statz has no 3-node fleet section" >&2; exit 1; }
  echo "$STATZ" | grep -q '"alive":3' || { echo "node $i statz does not see the full ring alive" >&2; exit 1; }
done
[ "$BUILDS" = 1 ] || { echo "fleet-wide matrix builds = $BUILDS, want exactly 1" >&2; exit 1; }
[ "$PEER_HITS" -gt 0 ] || { echo "no result peer hits recorded anywhere in the ring" >&2; exit 1; }
[ -n "$BUILDER" ] || { echo "no replica reports the matrix build" >&2; exit 1; }
echo "fleet smoke ok: 1 build (node $BUILDER), $PEER_HITS peer hits"

# Kill the builder. The survivors own their local copies or recompute;
# either way every request must still answer 200.
kill "${PIDS[$BUILDER]}"; wait "${PIDS[$BUILDER]}" 2>/dev/null || true
sleep 0.5 # two probe periods: survivors mark the corpse dead
for i in 0 1 2; do
  [ "$i" = "$BUILDER" ] && continue
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "${URLS[$i]}/v1/aggregate" \
    -H 'Content-Type: application/json' -d "$REQ")"
  [ "$CODE" = 200 ] || { echo "survivor $i answered $CODE after the kill" >&2; exit 1; }
  STATZ="$(curl -sf "${URLS[$i]}/statz")"
  echo "$STATZ" | grep -q '"alive":2' || { echo "survivor $i never marked the corpse dead: $STATZ" >&2; exit 1; }
done
echo "degradation smoke ok: survivors answer with one replica dead"
echo "fleet smoke ok"
