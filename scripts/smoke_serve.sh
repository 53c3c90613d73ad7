#!/usr/bin/env bash
# smoke_serve.sh — end-to-end serving smoke: build manirankd, start it, POST
# a 20-candidate profile, assert 200 + a valid ranking, assert the second
# identical request is served from the result cache, and assert a different
# method over the same profile skips the precedence-matrix build (the
# two-tier contract). Then the persistence contract: restart the daemon over
# the same -cache-dir and assert the first repeated request is a disk-warm
# hit (no solver run, no matrix build), that a session mutated before the
# restart left its post-mutation matrix on disk (a stateless request over
# that profile builds nothing), and that bumping -cache-engine-version
# invalidates everything persisted. First of all, a
# negative -queue, -deadline or -max-deadline must stop the daemon at
# startup with exit 2. Used by CI's serve-smoke stage.
set -euo pipefail

cd "$(dirname "$0")/.."

go build -o /tmp/manirankd ./cmd/manirankd

PORT="${SMOKE_PORT:-18080}"

# --- Config validation: a negative queue depth or deadline is a startup
# error (exit 2) raised before the daemon listens. timeout turns a
# regression that starts serving anyway into a fast failure, not a hung job.
for FLAGS in "-queue -1" "-deadline -1s" "-max-deadline -1s"; do
  CODE=0
  timeout 10 /tmp/manirankd -addr "127.0.0.1:${PORT}" $FLAGS 2>/dev/null || CODE=$?
  [ "$CODE" = 2 ] || { echo "manirankd $FLAGS exited $CODE, want 2" >&2; exit 1; }
done
echo "config-validation smoke ok"
CACHE_DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  # Let the daemon finish its shutdown flush before its cache dir goes.
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
  rm -rf "$CACHE_DIR"
}
trap cleanup EXIT

/tmp/manirankd -addr "127.0.0.1:${PORT}" &
SERVER_PID=$!

BASE="http://127.0.0.1:${PORT}"
wait_healthy() {
  for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "server never became healthy" >&2
  exit 1
}
wait_healthy
echo "healthz ok"

# 20 candidates, alternating binary Gender, three base rankings.
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

FIRST="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
echo "first response: $FIRST"
echo "$FIRST" | grep -q '"ranking":\[' || { echo "no ranking in response" >&2; exit 1; }
# A valid 20-candidate ranking has exactly 20 comma-separated entries.
COUNT="$(echo "$FIRST" | sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p' | tr ',' '\n' | wc -l)"
[ "$COUNT" = 20 ] || { echo "ranking has $COUNT entries, want 20" >&2; exit 1; }
echo "$FIRST" | grep -q '"cached":false' || { echo "first request claimed a cache hit" >&2; exit 1; }
echo "$FIRST" | grep -q '"partial":false' || { echo "first request was truncated" >&2; exit 1; }

SECOND="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
echo "$SECOND" | grep -q '"cached":true' || { echo "second identical request missed the cache: $SECOND" >&2; exit 1; }

# The two responses must carry the same consensus ranking.
R1="$(echo "$FIRST" | sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p')"
R2="$(echo "$SECOND" | sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p')"
[ "$R1" = "$R2" ] || { echo "cache returned a different ranking" >&2; exit 1; }

# A different method over the SAME profile: a result-cache miss that must
# reuse the stored precedence matrix (builds_skipped > 0 in /statz).
SCHULZE_REQ="$(echo "$REQ" | sed 's/"fair-kemeny"/"schulze"/')"
THIRD="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$SCHULZE_REQ")"
echo "$THIRD" | grep -q '"cached":false' || { echo "different method claimed a result-cache hit" >&2; exit 1; }
echo "$THIRD" | grep -q '"ranking":\[' || { echo "no ranking in schulze response" >&2; exit 1; }

STATZ="$(curl -sf "$BASE/statz")"
echo "statz: $STATZ"
echo "$STATZ" | grep -q '"hits":1' || { echo "statz did not record the result-cache hit" >&2; exit 1; }
# Precedence tier: one build (first request), one skip (schulze reused it).
echo "$STATZ" | grep -q '"builds":1' || { echo "statz did not show exactly one matrix build" >&2; exit 1; }
echo "$STATZ" | grep -q '"builds_skipped":1' || { echo "statz did not show the skipped matrix build" >&2; exit 1; }

# --- /metricsz: Prometheus text over the same registry as /statz ---
METRICS="$(curl -sf "$BASE/metricsz")"
# Every line must be exposition text: a comment, or `name{labels} value`.
BAD="$(echo "$METRICS" | grep -Ev '^[a-z_]+(\{[^}]*\})? [0-9.e+-]+$|^#' || true)"
[ -z "$BAD" ] || { echo "metricsz lines fail the exposition grammar:" >&2; echo "$BAD" >&2; exit 1; }
HITS_BEFORE="$(echo "$METRICS" | grep -F 'manirank_cache_hits_total{tier="result"}' | awk '{print $2}')"
[ -n "$HITS_BEFORE" ] || { echo "metricsz is missing the result-tier hit counter" >&2; exit 1; }
# Replaying the cached request must move the live counter between scrapes.
curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ" >/dev/null
HITS_AFTER="$(curl -sf "$BASE/metricsz" | grep -F 'manirank_cache_hits_total{tier="result"}' | awk '{print $2}')"
awk -v a="$HITS_BEFORE" -v b="$HITS_AFTER" 'BEGIN { exit !(b > a) }' \
  || { echo "manirank_cache_hits_total did not increase across a repeated request ($HITS_BEFORE -> $HITS_AFTER)" >&2; exit 1; }
echo "metricsz smoke ok"

echo "serve smoke ok"

# --- Streaming sessions: create, churn, and tear down a /v1/session ---
CREATED="$(curl -sf -X POST "$BASE/v1/session" -H 'Content-Type: application/json' -d "$REQ")"
echo "session create: $CREATED"
SID="$(echo "$CREATED" | sed -n 's/.*"session_id":"\([0-9a-f]*\)".*/\1/p')"
[ -n "$SID" ] || { echo "session create returned no session_id" >&2; exit 1; }
echo "$CREATED" | grep -q '"ranking":\[' || { echo "no ranking in session create" >&2; exit 1; }
echo "$CREATED" | grep -q '"version":0' || { echo "fresh session is not at version 0" >&2; exit 1; }

# A bare re-solve of the unchanged state must come out of the result cache.
RESOLVE="$(curl -sf -X POST "$BASE/v1/session/$SID" -H 'Content-Type: application/json' -d '{"op":"solve"}')"
echo "$RESOLVE" | grep -q '"cached":true' || { echo "session re-solve missed the result cache: $RESOLVE" >&2; exit 1; }

# A mutation patches the matrix in place (no new build), bumps the version,
# and the re-solve is warm-started off the previous consensus — never cached.
UPDATED="$(curl -sf -X POST "$BASE/v1/session/$SID" -H 'Content-Type: application/json' \
  -d '{"op":"update","index":0,"ranking":[19,18,17,16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0]}')"
echo "session update: $UPDATED"
echo "$UPDATED" | grep -q '"version":1' || { echo "update did not bump the session version" >&2; exit 1; }
echo "$UPDATED" | grep -q '"cached":false' || { echo "mutated state claimed a cache hit" >&2; exit 1; }
echo "$UPDATED" | grep -q '"warm_started":true' || { echo "post-mutation solve was not warm-started" >&2; exit 1; }
echo "$UPDATED" | grep -q '"ranking":\[' || { echo "no ranking after session update" >&2; exit 1; }

# Adding a ranking grows the profile; the churned session never re-paid the
# full matrix build (still exactly one build from the very first request).
ADDED="$(curl -sf -X POST "$BASE/v1/session/$SID" -H 'Content-Type: application/json' \
  -d '{"op":"add","ranking":[0,2,1,4,3,6,5,8,7,10,9,12,11,14,13,16,15,18,17,19]}')"
echo "$ADDED" | grep -q '"rankers":4' || { echo "add did not grow the session profile: $ADDED" >&2; exit 1; }
STATZ="$(curl -sf "$BASE/statz")"
echo "$STATZ" | grep -q '"builds":1' || { echo "session churn re-ran a matrix build" >&2; exit 1; }
echo "$STATZ" | grep -q '"active":1' || { echo "statz does not show the live session" >&2; exit 1; }

INFO="$(curl -sf "$BASE/v1/session/$SID")"
echo "$INFO" | grep -q '"version":2' || { echo "session info has wrong version: $INFO" >&2; exit 1; }
curl -sf -X DELETE "$BASE/v1/session/$SID" >/dev/null || { echo "session delete failed" >&2; exit 1; }
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/session/$SID")"
[ "$CODE" = 404 ] || { echo "deleted session still answers ($CODE)" >&2; exit 1; }
echo "session smoke ok"

# --- Persistence: warm restart over -cache-dir ---
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true

/tmp/manirankd -addr "127.0.0.1:${PORT}" -cache-dir "$CACHE_DIR" &
SERVER_PID=$!
wait_healthy
COLD="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
echo "$COLD" | grep -q '"cached":false' || { echo "first request against the fresh cache dir claimed a hit" >&2; exit 1; }
# A session over the same profile, mutated once: its add writes the patched
# matrix through to disk under the post-mutation profile digest.
ADD_ROW='[0,2,1,4,3,6,5,8,7,10,9,12,11,14,13,16,15,18,17,19]'
SID="$(curl -sf -X POST "$BASE/v1/session" -H 'Content-Type: application/json' -d "$REQ" \
  | sed -n 's/.*"session_id":"\([0-9a-f]*\)".*/\1/p')"
[ -n "$SID" ] || { echo "session create against the cache dir returned no session_id" >&2; exit 1; }
ADDED="$(curl -sf -X POST "$BASE/v1/session/$SID" -H 'Content-Type: application/json' -d "{\"op\":\"add\",\"ranking\":$ADD_ROW}")"
echo "$ADDED" | grep -q '"version":1' || { echo "session add did not bump the version: $ADDED" >&2; exit 1; }
# SIGTERM: the daemon's graceful shutdown flushes both tiers to disk.
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true

/tmp/manirankd -addr "127.0.0.1:${PORT}" -cache-dir "$CACHE_DIR" &
SERVER_PID=$!
wait_healthy
WARM="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
echo "$WARM" | grep -q '"cached":true' || { echo "restarted daemon did not serve from the persistent tier: $WARM" >&2; exit 1; }
RW="$(echo "$WARM" | sed -n 's/.*"ranking":\[\([0-9,]*\)\].*/\1/p')"
[ "$R1" = "$RW" ] || { echo "disk-restored ranking differs from the original" >&2; exit 1; }
STATZ="$(curl -sf "$BASE/statz")"
# Result tier: the hit came off disk, not memory, and no solve ran.
RESULT_TIER="$(echo "$STATZ" | sed -n 's/.*"cache":{\([^}]*\)}.*/\1/p')"
echo "$RESULT_TIER" | grep -q '"disk_hits":1' || { echo "statz did not record the result-tier disk hit: $RESULT_TIER" >&2; exit 1; }
# Matrix tier: nothing was rebuilt for a result-tier disk hit.
MATRIX_TIER="$(echo "$STATZ" | sed -n 's/.*"precedence_cache":{\([^}]*\)}.*/\1/p')"
echo "$MATRIX_TIER" | grep -q '"builds":0' || { echo "restart re-ran a matrix build: $MATRIX_TIER" >&2; exit 1; }

# A different method over the same profile misses the result tier but must
# restore the persisted matrix from disk instead of rebuilding it.
BORDA_REQ="$(echo "$REQ" | sed 's/"fair-kemeny"/"borda"/')"
curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$BORDA_REQ" >/dev/null
STATZ="$(curl -sf "$BASE/statz")"
MATRIX_TIER="$(echo "$STATZ" | sed -n 's/.*"precedence_cache":{\([^}]*\)}.*/\1/p')"
echo "$MATRIX_TIER" | grep -q '"disk_hits":1' || { echo "statz did not record the matrix-tier disk restore: $MATRIX_TIER" >&2; exit 1; }
echo "$MATRIX_TIER" | grep -q '"builds":0' || { echo "new method rebuilt the persisted matrix: $MATRIX_TIER" >&2; exit 1; }
echo "$MATRIX_TIER" | grep -q '"builds_skipped":1' || { echo "builds_skipped did not count the disk restore: $MATRIX_TIER" >&2; exit 1; }

# The session's post-mutation profile, asked statelessly under another
# method, must restore the session's patched matrix from disk: no build.
MUTATED_REQ="$(echo "$REQ" | sed "s/\[1,0,3,2,5,4,7,6,9,8,11,10,13,12,15,14,17,16,19,18\]/&,$ADD_ROW/; s/\"fair-kemeny\"/\"copeland\"/")"
MUTATED="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$MUTATED_REQ")"
echo "$MUTATED" | grep -q '"ranking":\[' || { echo "no ranking for the post-mutation profile: $MUTATED" >&2; exit 1; }
BUILDS="$(curl -sf "$BASE/metricsz" | awk '$1 == "manirank_matrix_builds_total" {print $2}')"
[ "$BUILDS" = 0 ] || { echo "post-mutation profile rebuilt its matrix after the restart (builds $BUILDS)" >&2; exit 1; }
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
echo "restart-warm smoke ok"

# --- Persistence: engine-version bump invalidates everything ---
/tmp/manirankd -addr "127.0.0.1:${PORT}" -cache-dir "$CACHE_DIR" -cache-engine-version 2 &
SERVER_PID=$!
wait_healthy
BUMPED="$(curl -sf -X POST "$BASE/v1/aggregate" -H 'Content-Type: application/json' -d "$REQ")"
echo "$BUMPED" | grep -q '"cached":false' || { echo "engine-version bump did not invalidate persisted entries" >&2; exit 1; }
STATZ="$(curl -sf "$BASE/statz")"
RESULT_TIER="$(echo "$STATZ" | sed -n 's/.*"cache":{\([^}]*\)}.*/\1/p')"
echo "$RESULT_TIER" | grep -q '"disk_hits":0' || { echo "post-bump request read the old version's entries: $RESULT_TIER" >&2; exit 1; }
echo "version-bump smoke ok"
