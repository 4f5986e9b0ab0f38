#!/usr/bin/env bash
# Regenerates every checked-in golden from the current scheduler output:
#   tests/golden/sweep_stable_seed.json        (--stable sweep metrics)
#   tests/golden/explore_stable_seed.json      (--stable explore front)
#   tests/golden/explore_domain_seed.json      (EXPERIMENTS domain search)
#   tests/golden/explain_adpcm_mesh9.txt       (decision transcript)
#   tests/golden/explain_gcd_irregularD.txt    (decision transcript)
#   tests/golden/random_kernel_fingerprints.txt (60-seed schedule corpus)
#   tests/golden/kir_vm_accumulate.txt         (per-stage frontend IR dump)
#   tests/golden/kir_stages_unroll2_cse.txt    (every kernel's stages, -u2 cse)
#   tests/golden/kernel_suite_fingerprints.txt (examples/kernels schedules)
#   tests/golden/artifact_digests.txt          (bundled artifact bytes)
#   tests/golden/bytecode_baseline.txt         (bundled kernels' bytecode)
#
# Run ONLY when a commit intentionally changes scheduler behavior, and
# regenerate in that same commit (note it in CHANGES.md). Usage:
#   tools/regen_goldens.sh [build-dir]   # default: build
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
tool="$build/tools/cgra-tool"
pipeline_test="$build/tests/test_pass_pipeline"
golden="$repo/tests/golden"

[ -x "$tool" ] || { echo "error: $tool not built" >&2; exit 1; }
[ -x "$pipeline_test" ] || { echo "error: $pipeline_test not built" >&2; exit 1; }

echo "== stable sweep metrics"
"$tool" sweep --comps mesh4,mesh9,mesh12 --kernels gcd,dotprod,fir \
  --threads 2 --stable --metrics "$golden/sweep_stable_seed.json" >/dev/null

echo "== stable explore front"
"$tool" explore --kernels dotprod,gcd --strategy genetic --seed 42 \
  --budget 12 --population 4 --threads 2 --stable \
  --out "$golden/explore_stable_seed.json" >/dev/null

echo "== explore domain search"
"$tool" explore --kernels adpcm,fir,ewma --strategy genetic --seed 42 \
  --budget 48 --population 8 --threads 2 --stable \
  --out "$golden/explore_domain_seed.json" >/dev/null

echo "== explain transcripts"
"$tool" explain --comp mesh9 --kernel adpcm \
  > "$golden/explain_adpcm_mesh9.txt" 2>&1
"$tool" explain --comp D --kernel gcd \
  > "$golden/explain_gcd_irregularD.txt" 2>&1

echo "== random-kernel fingerprint corpus"
CGRA_REGEN_GOLDENS=1 "$pipeline_test" \
  --gtest_filter='PassPipeline.RandomKernelFingerprintsMatchGolden' \
  >/dev/null

echo "== frontend per-stage IR dump"
"$tool" kir --kernel-file "$repo/examples/kernels/vm_accumulate.kir" \
  > "$golden/kir_vm_accumulate.txt" 2>&1
"$repo/tools/dump_kir_stages.sh" "$tool" "$repo" \
  > "$golden/kir_stages_unroll2_cse.txt"

echo "== kernel-suite fingerprints"
suite_test="$build/tests/test_kernel_suite"
[ -x "$suite_test" ] || { echo "error: $suite_test not built" >&2; exit 1; }
CGRA_REGEN_GOLDENS=1 "$suite_test" \
  --gtest_filter='KernelSuiteIndex.FingerprintsMatchGolden' >/dev/null

echo "== bundled artifact digests"
artifact_test="$build/tests/test_artifact"
[ -x "$artifact_test" ] || { echo "error: $artifact_test not built" >&2; exit 1; }
CGRA_REGEN_GOLDENS=1 "$artifact_test" \
  --gtest_filter='Artifact.BundledArtifactBytesMatchGolden' >/dev/null

echo "== bundled kernel bytecode"
host_test="$build/tests/test_host"
[ -x "$host_test" ] || { echo "error: $host_test not built" >&2; exit 1; }
CGRA_REGEN_GOLDENS=1 "$host_test" \
  --gtest_filter='TokenMachine.BundledKernelBytecodeMatchesGolden' >/dev/null

echo "regenerated goldens in $golden:"
git -C "$repo" status --short -- tests/golden
