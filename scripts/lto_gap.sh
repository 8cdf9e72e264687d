#!/usr/bin/env bash
# How much of `benchmark/`'s wall time the default release build leaves to
# cross-unit inlining: the measuring stick built from the current tree with
# cargo's default release settings against the same tree built with fat LTO
# and one codegen unit.
#
#   scripts/lto_gap.sh PAIRS WORKLOAD...
#
# Builds `hydranet-benchmark` twice, into separate target directories under
# $LTO_GAP_TARGET (default: target/lto_gap): `default/`, and `fat/` with
# CARGO_PROFILE_RELEASE_LTO=fat and CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
# set in the environment of that one build. No file is edited. Prints each
# binary's `size`, then runs scripts/bench_pairs.sh with the default build
# as "parent" and the fat-LTO build as "change": a negative delta is the
# share of the metric the default build leaves on the table. Per-layer
# rungs: run each binary once with `--trace 1` and compare the two
# LAYERS_<workload>.json files.
# Run from the repository root. Needs python3 and binutils' `size`.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '7p' "$0" >&2
  exit 2
fi
root="${LTO_GAP_TARGET:-target/lto_gap}"

build() { # <target dir> [VAR=value...]
  local dir="$1"; shift
  env -u CARGO_PROFILE_RELEASE_LTO -u CARGO_PROFILE_RELEASE_CODEGEN_UNITS "$@" \
    CARGO_TARGET_DIR="$dir" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
}

build "$root/default"
build "$root/fat" CARGO_PROFILE_RELEASE_LTO=fat CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
default_bin="$root/default/release/hydranet-benchmark"
fat_bin="$root/fat/release/hydranet-benchmark"
size "$default_bin" "$fat_bin"

exec bash scripts/bench_pairs.sh "$default_bin" "$fat_bin" "$@"
