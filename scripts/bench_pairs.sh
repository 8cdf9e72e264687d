#!/usr/bin/env bash
# Alternating A/B pairs of two built `hydranet-benchmark` binaries, summed
# up by the rule a performance claim must meet.
#
#   scripts/bench_pairs.sh PARENT_BIN CHANGE_BIN PAIRS WORKLOAD...
#
# Pair i runs the parent first when i is odd and the change first when it
# is even, each run a fresh `--trace 0` process writing into its own
# directory under $BENCH_PAIRS_OUT (default: a new temporary directory),
# at the harness's own run length. Then, per workload and for every
# end-to-end metric BENCHMARK.json declares, it prints:
#
#   - the parent's median [q1, q3] and the change's median,
#   - the change in the median, relative to the parent's,
#   - in how many pairs the change read lower ("lower k/n"; ties count
#     for neither side),
#   - the parent's quartile distance q3 - q1 ("iqr"),
#   - a verdict: "worse" when the change's median is worse than the
#     parent's by more than the metric's bound, "better" when the change
#     wins at least nine tenths of the pairs and the medians differ by more
#     than the parent's quartile distance, else "unresolved"; "same" when
#     every run of both sides reads one value,
#
# then every run's value in pair order, parent before change, and the
# operations each side failed out of those it attempted. Quartiles use the
# harness's own method (Python's `statistics.quantiles`, exclusive).
# Run from the repository root. Needs python3.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '5p' "$0" >&2
  exit 2
fi
parent="$1" change="$2" pairs="$3"
shift 3
workloads=("$@")
out="${BENCH_PAIRS_OUT:-$(mktemp -d)}"

for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      if [ "$side" = parent ]; then bin="$parent"; else bin="$change"; fi
      "$bin" --workload "$w" --trace 0 \
        --out "$out/$w/$(printf %02d "$i")/$side" >/dev/null
    done
  done
done
echo "runs in $out"

python3 - "$out" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(w, i, side):
    return json.load(open(f"{out}/{w}/{i:02d}/{side}/BENCH_{w}.json"))

for w in workloads:
    runs = {s: [load(w, i, s) for i in range(1, pairs + 1)] for s in ("parent", "change")}
    seconds = sorted({r["meta"]["seconds"] for s in runs for r in runs[s]})
    print(f"\n{w}  ({pairs} pairs, seconds {' '.join(f'{x:g}' for x in seconds)})")
    print(f"  {'metric':<17} {'parent median [q1, q3]':>34} {'change':>12} {'delta':>8}"
          f" {'lower':>6} {'iqr':>10}  verdict")
    listing = []
    for m in metrics:
        name, bound, lower_better = m["name"], m["bound"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        q1, med_a, q3 = statistics.quantiles(a, n=4) if pairs > 1 else (a[0],) * 3
        med_b = statistics.median(b)
        delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
        lower = sum(y < x for x, y in zip(a, b))
        wins = lower if lower_better else sum(y > x for x, y in zip(a, b))
        worse = delta > bound if lower_better else delta < -bound
        if len(set(a + b)) == 1:
            verdict = "same"
        elif worse:
            verdict = "worse"
        elif wins * 10 >= pairs * 9 and abs(med_b - med_a) > q3 - q1:
            verdict = "better"
        else:
            verdict = "unresolved"
        print(f"  {name:<17} {med_a:>12.6g} [{q1:.6g}, {q3:.6g}] {med_b:>12.6g}"
              f" {delta:>+8.2%} {lower:>3}/{pairs:<2} {q3 - q1:>10.4g}  {verdict}")
        listing.append(f"  {name}: " + " ".join(f"{v:.6g}" for v in a)
                       + " -> " + " ".join(f"{v:.6g}" for v in b))
    print("\n".join(listing))
    for s in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[s])
        attempted = sum(r["attempted"] for r in runs[s])
        print(f"  {s}: {failed} failed of {attempted} attempted over {pairs} runs")
EOF
