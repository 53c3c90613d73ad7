#!/usr/bin/env bash
# demo_fleet.sh — guided three-node fleet session (DESIGN.md §13): boot
# three peered manirankd replicas, send one request to every node twice
# and show the second pass served cache-warm everywhere with one matrix
# build ring-wide, then kill the replica that built it and show the
# survivors still answering. See
# examples/serving/README.md ("Running a fleet") for the walkthrough.
set -euo pipefail

cd "$(dirname "$0")/../.."

go build -o /tmp/manirankd-demo ./cmd/manirankd

BASE_PORT="${DEMO_FLEET_PORT:-18095}"
PIDS=()
URLS=()
for i in 0 1 2; do
  URLS+=("http://127.0.0.1:$((BASE_PORT + i))")
done
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

echo "== 0. boot three replicas, each peered with the other two =="
for i in 0 1 2; do
  PEERS=""
  for j in 0 1 2; do
    [ "$j" = "$i" ] && continue
    PEERS="${PEERS:+$PEERS,}${URLS[$j]}"
  done
  echo "   manirankd -addr :$((BASE_PORT + i)) -fleet-self ${URLS[$i]} -peers $PEERS"
  /tmp/manirankd-demo -addr "127.0.0.1:$((BASE_PORT + i))" \
    -fleet-self "${URLS[$i]}" -peers "$PEERS" \
    -fleet-probe-interval 100ms -log-level warn &
  PIDS+=($!)
done

for url in "${URLS[@]}"; do
  for i in $(seq 1 50); do
    curl -sf "$url/healthz" >/dev/null 2>&1 && break
    [ "$i" = 50 ] && { echo "replica $url never became healthy" >&2; exit 1; }
    sleep 0.1
  done
done

# One 20-candidate profile with a binary protected attribute.
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

echo
echo "== 1. the request to every node once: each reads it from a peer or solves it =="
for i in 0 1 2; do
  curl -sf -X POST "${URLS[$i]}/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ"
  echo
done

echo
echo "== 2. the SAME request to every node again: cached:true everywhere, one ranking =="
for i in 0 1 2; do
  curl -sf -X POST "${URLS[$i]}/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ"
  echo
done

echo
echo "== 3. fleet-wide ledger: builds sum to 1, peer hits moved between nodes =="
BUILDER=""
for i in 0 1 2; do
  M="$(curl -sf "${URLS[$i]}/metricsz")"
  B="$(echo "$M" | awk '$1 == "manirank_matrix_builds_total" {print int($2)}')"
  P="$(echo "$M" | awk '$1 == "manirank_cache_peer_hits_total{tier=\"result\"}" {print int($2)}')"
  echo "   node $i: matrix builds $B, result peer hits $P"
  [ "$B" -gt 0 ] && BUILDER=$i
done
curl -sf "${URLS[0]}/statz" | grep -o '"fleet":{[^]]*][^}]*}' || true
echo

echo
echo "== 4. kill the replica that built (node $BUILDER); survivors keep answering =="
kill "${PIDS[$BUILDER]}"; wait "${PIDS[$BUILDER]}" 2>/dev/null || true
sleep 0.5 # two probe periods: survivors mark it dead
for i in 0 1 2; do
  [ "$i" = "$BUILDER" ] && continue
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "${URLS[$i]}/v1/aggregate" \
    -H 'Content-Type: application/json' -d "$REQ")"
  ALIVE="$(curl -sf "${URLS[$i]}/statz" | grep -o '"alive":[0-9]\+' | head -1)"
  echo "   node $i: HTTP $CODE, $ALIVE of 3 nodes"
done
echo
echo "fleet demo done: one build ring-wide, served from cache everywhere, graceful degradation"
