#!/usr/bin/env bash
# Time the ablation matrix (cells: crates/bench/src/matrix.rs) and append
# one JSON line per cell to BENCH_ablation.json, tagged with the run label
# and the host CPU count (medians above 1 thread need more than 1 CPU):
#
#   ./scripts/bench.sh [label]    # label defaults to "current"
#
# Compare medians per (group, bench) pair. BENCH_pr*.json are read-only
# history of the benches the matrix replaced; their pairs are cells.
set -euo pipefail
cd "$(dirname "$0")/.."

label=${1:-current}
out=BENCH_ablation.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

echo "==> cargo bench -p nsql-bench --bench matrix  (host: $(nproc) CPU(s))"
NSQL_BENCH_JSON="$tmp" cargo bench -p nsql-bench --bench matrix --offline
sed "s/^{/{\"label\":\"$label\",\"ncpu\":$(nproc),/" "$tmp" >> "$out"
echo "appended $(wc -l < "$tmp") results to $out (label: $label)"
