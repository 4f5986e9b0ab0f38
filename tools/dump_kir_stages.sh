#!/usr/bin/env bash
# Prints `cgra-tool kir --unroll 2 --cse` (the IR after every frontend
# stage) for each bundled kernel and each examples/kernels/*.kir, every
# dump under a `#### <kernel>` header. Its output is the per-stage IR
# golden tests/golden/kir_stages_unroll2_cse.txt. Usage:
#   tools/dump_kir_stages.sh <cgra-tool> [repo-dir]
set -euo pipefail
export LC_ALL=C

tool="$1"
repo="${2:-$(cd "$(dirname "$0")/.." && pwd)}"

for k in $("$tool" list | awk '/^kernels:/ {on = 1; next} /^[a-z]/ {on = 0}
                               on {print $1}'); do
  echo "#### $k"
  "$tool" kir --kernel "$k" --unroll 2 --cse 2>&1
done
for f in "$repo"/examples/kernels/*.kir; do
  echo "#### $(basename "$f")"
  "$tool" kir --kernel-file "$f" --unroll 2 --cse 2>&1
done
