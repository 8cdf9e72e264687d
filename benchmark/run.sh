#!/usr/bin/env bash
# The repository's one measuring stick. Builds the standalone benchmark
# package (release, offline) and runs each workload as its own
# single-threaded process.
#
#   benchmark/run.sh                      every workload: end-to-end, then traced
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace 0|1]
#                                         one run; the last line of standard
#                                         output is the result object
#   benchmark/run.sh --check              the whole set twice on one build: host
#                                         metrics must agree within their bound,
#                                         simulated metrics and counts exactly
#   benchmark/run.sh --spread             ten seeds per workload: the spread of
#                                         every end-to-end metric against its bound
#
# --seed and --seconds apply to every run of a set as well. Result files go
# to benchmark/out/ (BENCH_<workload>.json, LAYERS_<workload>.json,
# TRACE_<workload>.json). Exits non-zero if a check fails or a build does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# No `cd`: the driver passes a CARGO_TARGET_DIR relative to where it stands.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/hydranet-benchmark"

mode=set
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --check) mode=check; shift ;;
    --spread) mode=spread; shift ;;
    --workload) mode=one; pass+=("$1" "$2"); shift 2 ;;
    *) pass+=("$1" "${2:?"$1 needs a value"}"); shift 2 ;;
  esac
done

workloads=(bulk_1k tiny_16 flows_3k flows_20k failover)

# One set: every workload end-to-end and traced, each in its own process.
run_set() { # <out dir> <args...>
  local out="$1"; shift
  local w
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --trace 0 --out "$out" "$@"
    "$bin" --workload "$w" --trace 1 --out "$out" "$@"
  done
}

case "$mode" in
  one)
    exec "$bin" --out "$here/out" "${pass[@]}"
    ;;
  set)
    run_set "$here/out" "${pass[@]}"
    ;;
  check)
    run_set "$here/out/check_a" "${pass[@]}" >/dev/null
    run_set "$here/out/check_b" "${pass[@]}" >/dev/null
    "$bin" compare "$here/out/check_a" "$here/out/check_b"
    ;;
  spread)
    for i in 1 2 3 4 5 6 7 8 9 10; do
      for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --trace 0 --seed $((1000 * i + 7)) \
          --out "$here/out/spread/$(printf %02d "$i")" "${pass[@]}" >/dev/null
      done
    done
    "$bin" spread "$here/out/spread"
    ;;
esac
