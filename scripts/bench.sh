#!/usr/bin/env bash
# bench.sh [N] — run the core Go micro-benchmarks and write BENCH_<N>.json
# (default N=1) in the repo root: every sample of every benchmark (ns/op,
# B/op, allocs/op) plus the machine it ran on. A single sample is not
# evidence; compare the sample arrays, not one number.
#
# Serving performance is not measured here: the gated, CPU-timed
# instrument is perfbench/ (BENCHMARK.json). BENCH_3..BENCH_10 also carry
# serving, restart, churn and fleet sections; the closed-loop harness that
# wrote them has since been retired, and those sections are records only.
#
# BENCHTIME (default 1s) sets -benchtime for the micro and Schulze sets.
set -euo pipefail

cd "$(dirname "$0")/.."
N="${1:-1}"
OUT="BENCH_${N}.json"
BENCHTIME="${BENCHTIME:-1s}"
COUNT=5

# BenchmarkEngineSolveAll vs BenchmarkPerCallSolveAll is the Engine API v2
# pair: all eight methods over one shared precedence matrix versus one
# Engine per method call, each rebuilding the matrix.
MICRO=(BenchmarkPrecedenceMatrix100x150 BenchmarkMakeMRFair90 BenchmarkMallowsSample90
  BenchmarkPlackettLuce100k BenchmarkAblationILSBordaInit BenchmarkHeuristicRestartsW1
  BenchmarkHeuristicRestartsW4 BenchmarkEngineSolveAll BenchmarkPerCallSolveAll)
SCHULZE=(BenchmarkSchulze500 BenchmarkSchulze500Dense)

# Fairness-scale macro-benchmarks: BenchmarkConstrainedDescent5k vs its
# full-recompute baseline is the incremental-auditor speedup; MakeMRFair and
# FairKemeny pin the fair methods at n = 5000 and 10^4. These stay at one
# iteration and one sample: ConstrainedDescentFullAudit5k alone runs ~35
# minutes, so -count 5 would turn a run into hours.
FAIR=(BenchmarkConstrainedDescent5k BenchmarkConstrainedDescentFullAudit5k
  BenchmarkMakeMRFair5k BenchmarkMakeMRFair10k BenchmarkFairKemeny5k BenchmarkFairKemeny10k)

# anchored joins names into one exact-match -bench pattern.
anchored() { local IFS='|'; echo "^($*)\$"; }

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# One go test per line: with pipefail, a failing run aborts the script.
go test -run '^$' -bench "$(anchored "${MICRO[@]}")" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . | tee -a "$RAW"
go test -run '^$' -bench "$(anchored "${SCHULZE[@]}")" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem ./internal/aggregate | tee -a "$RAW"
go test -run '^$' -bench "$(anchored "${FAIR[@]}")" -benchtime 1x -benchmem -timeout 120m . | tee -a "$RAW"

for name in "${MICRO[@]}" "${SCHULZE[@]}" "${FAIR[@]}"; do
  if ! grep -qE "^${name}(-[0-9]+)?[[:space:]]" "$RAW"; then
    echo "bench.sh: $name produced no sample" >&2
    exit 1
  fi
done

CPU="$(sed -n 's/^cpu: //p' "$RAW" | head -n 1)"
{
  echo '{'
  echo "  \"pr\": ${N},"
  echo "  \"goos\": \"$(go env GOOS)\","
  echo "  \"goarch\": \"$(go env GOARCH)\","
  echo "  \"go_version\": \"$(go env GOVERSION)\","
  echo "  \"nproc\": $(nproc),"
  echo "  \"cpu\": \"${CPU//\"/\\\"}\","
  echo '  "benchmarks": {'
  awk '
    /^Benchmark/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      if (!(name in ns)) order[++count] = name
      for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns[name] = ns[name] sep(ns[name]) $(i-1)
        if ($i == "B/op") by[name] = by[name] sep(by[name]) $(i-1)
        if ($i == "allocs/op") al[name] = al[name] sep(al[name]) $(i-1)
      }
    }
    function sep(s) { return s == "" ? "" : ", " }
    END {
      for (i = 1; i <= count; i++) {
        n = order[i]
        printf "    \"%s\": {\"ns_per_op\": [%s], \"bytes_per_op\": [%s], \"allocs_per_op\": [%s]}%s\n",
          n, ns[n], by[n], al[n], (i < count ? "," : "")
      }
    }' "$RAW"
  echo '  }'
  echo '}'
} > "$OUT"

echo "wrote $OUT"
