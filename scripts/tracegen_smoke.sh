#!/usr/bin/env bash
# A/B the trace-generation pipeline on one build: run table3_tlp_selection
# and fig9_factor_sweep alternating CATT_TRACE_THREADS=1 and =4
# (interleaved rounds, same binary, caches off so every launch simulates),
# require the CSVs byte-identical between the two worker counts, and emit
# a BENCH_tracegen.json report. Every leg runs under CATT_PROFILE=1 and
# the summed per-launch `trace_gen_ms=` (wall time of the generation
# stage: the serial producer's accumulator, or pipeline start -> last
# block offered when sharded) is reported beside the whole-bench wall —
# that split is the acceptance metric, since timing replay overlaps
# generation and dilutes the end-to-end ratio. A single-threaded micro leg
# isolates the SIMD render (CATT_NO_AVX2=1 vs default) separately from the
# sharding win, at trace_threads=1 so the only variable is the knob under
# test.
#
# usage: tracegen_smoke.sh BENCH_DIR OUT_JSON [ROUNDS]
set -euo pipefail

bench_dir=$1
out_json=$2
rounds=${3:-2}
benches="table3_tlp_selection fig9_factor_sweep"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# No disk cache: a warm cache would answer launches without simulating
# and the comparison would measure nothing.
unset CATT_CACHE_DIR CATT_SERVE_SOCKET

declare -A wall_1 wall_4 wall_noavx2
declare -A gen_1 gen_4 gen_noavx2
for b in $benches; do
  wall_1[$b]=""; wall_4[$b]=""; wall_noavx2[$b]=""
  gen_1[$b]=""; gen_4[$b]=""; gen_noavx2[$b]=""
done

run_one() { # bench results_dir env... -> "wall_ms gen_ms" on stdout
  local bench=$1 results=$2
  shift 2
  local t0 t1 log="$work/profile.log"
  t0=$(date +%s%N)
  env "$@" CATT_SIM_THREADS=1 CATT_PROFILE=1 CATT_RESULTS_DIR="$results" \
    "$bench_dir/$bench" > /dev/null 2> "$log"
  t1=$(date +%s%N)
  local wall gen
  wall=$(( (t1 - t0) / 1000000 ))
  gen=$(awk 'match($0, /trace_gen_ms=[0-9.]+/) {
               s += substr($0, RSTART + 13, RLENGTH - 13) }
             END { printf "%d", s }' "$log")
  echo "$wall $gen"
}

for round in $(seq 1 "$rounds"); do
  for b in $benches; do
    # Interleave within the round so drift hits both sides equally. The
    # micro leg runs serial trace generation with the AVX2 paths disabled;
    # its CSVs join the same determinism diff below.
    read -r w1 g1 < <(run_one "$b" "$work/tw1" CATT_TRACE_THREADS=1)
    read -r w4 g4 < <(run_one "$b" "$work/tw4" CATT_TRACE_THREADS=4)
    read -r wv gv < <(run_one "$b" "$work/noavx2" CATT_TRACE_THREADS=1 CATT_NO_AVX2=1)
    echo "round $round $b wall/gen ms: 1-worker $w1/$g1 4-worker $w4/$g4 no-avx2 $wv/$gv" >&2
    wall_1[$b]+="${wall_1[$b]:+, }$w1";       gen_1[$b]+="${gen_1[$b]:+, }$g1"
    wall_4[$b]+="${wall_4[$b]:+, }$w4";       gen_4[$b]+="${gen_4[$b]:+, }$g4"
    wall_noavx2[$b]+="${wall_noavx2[$b]:+, }$wv";   gen_noavx2[$b]+="${gen_noavx2[$b]:+, }$gv"
  done
done

# Determinism gate: every CSV the three configurations wrote must match.
diff -r "$work/tw1" "$work/tw4" >&2
diff -r "$work/tw1" "$work/noavx2" >&2
echo "CSVs byte-identical across trace_threads={1,4}, CATT_NO_AVX2=1" >&2

mean() { # comma-separated list -> integer mean
  echo "$1" | tr ',' '\n' | awk '{s+=$1; n++} END {printf "%d", s/n}'
}
ratio() { # a b -> a/b to 2 places
  awk -v a="$1" -v b="$2" 'BEGIN {printf "%.2f", a / b}'
}

# Sharded workers time-slice a single core instead of running beside each
# other, so the 4-worker/1-worker ratio carries no signal on a 1-core
# host. The determinism gate above is host-independent and has already
# passed; mark the timing advisory.
host_cores=$(nproc)
speedup_advisory=false
if [ "$host_cores" -lt 2 ]; then
  speedup_advisory=true
  echo "WARNING: host has $host_cores core(s); speedup ratios are advisory (no parallel hardware)" >&2
fi

{
  echo '{'
  echo '  "description": "Trace-generation A/B: same binary, table3_tlp_selection and fig9_factor_sweep at CATT_TRACE_THREADS=1 vs 4 (sim_threads=1, caches off, interleaved rounds, CATT_PROFILE=1), plus a serial micro leg with CATT_NO_AVX2=1; all CSVs verified byte-identical across configurations. gen_ms = summed per-launch trace_gen_ms profile split (generation-stage wall time), the metric trace-worker sharding targets; wall_ms = whole-bench wall-clock.",'
  echo "  \"date\": \"$(date +%F)\","
  echo "  \"rounds\": $rounds,"
  echo "  \"host_cores\": $host_cores,"
  echo "  \"speedup_advisory\": $speedup_advisory,"
  sep=""
  for b in $benches; do
    mw1=$(mean "${wall_1[$b]}");       mg1=$(mean "${gen_1[$b]}")
    mw4=$(mean "${wall_4[$b]}");       mg4=$(mean "${gen_4[$b]}")
    mwv=$(mean "${wall_noavx2[$b]}");  mgv=$(mean "${gen_noavx2[$b]}")
    printf '%s  "%s": {\n' "$sep" "$b"
    printf '    "one_worker": {"wall_ms_runs": [%s], "gen_ms_runs": [%s], "wall_ms_mean": %s, "gen_ms_mean": %s},\n' \
      "${wall_1[$b]}" "${gen_1[$b]}" "$mw1" "$mg1"
    printf '    "four_worker": {"wall_ms_runs": [%s], "gen_ms_runs": [%s], "wall_ms_mean": %s, "gen_ms_mean": %s},\n' \
      "${wall_4[$b]}" "${gen_4[$b]}" "$mw4" "$mg4"
    printf '    "no_avx2": {"wall_ms_runs": [%s], "gen_ms_runs": [%s], "wall_ms_mean": %s, "gen_ms_mean": %s},\n' \
      "${wall_noavx2[$b]}" "${gen_noavx2[$b]}" "$mwv" "$mgv"
    printf '    "worker_gen_speedup": %s,\n' "$(ratio "$mg1" "$mg4")"
    printf '    "worker_wall_speedup": %s,\n' "$(ratio "$mw1" "$mw4")"
    printf '    "simd_micro_gen_speedup": %s\n' "$(ratio "$mgv" "$mg1")"
    printf '  }'
    sep=$',\n'
  done
  printf '\n}\n'
} > "$out_json"
cat "$out_json" >&2
