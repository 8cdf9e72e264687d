#!/usr/bin/env bash
# Checks that EXPERIMENTS.md quotes the five paper tables the bench
# binaries print: a data row is a line between a table's dashed separator
# and the next blank line, and each must appear in EXPERIMENTS.md verbatim.
# Run from the repository root; exits 1 at the first binary with a missing
# row.
for b in fig4 detector_sweep failover_latency chain_scaling ackchan_loss; do
  cargo run --release -q -p hydranet-bench --bin "$b" |
    awk -v bin="$b" 'NR == FNR { doc[$0]; next }
      /^-+$/ { rows = 1; next }
      /^$/ { rows = 0 }
      rows { n++; if (!($0 in doc)) { print bin ": row not in EXPERIMENTS.md: " $0; bad = 1 } }
      END { if (!n) { print bin ": printed no data rows"; bad = 1 }; exit bad }' EXPERIMENTS.md - || exit 1
done
echo "paper tables match"
