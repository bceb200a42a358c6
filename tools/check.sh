#!/usr/bin/env bash
# Secret-hygiene entry point: medlint + clang-tidy + sanitizer build/test.
#
# Usage: tools/check.sh
#   medlint lints src/ and the two key-handling CLI tools with the same
#   arguments as the ctest medlint_check and CI's static-analysis job.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

echo "== medlint =="
cmake -B "$repo/build" -S "$repo" >/dev/null
cmake --build "$repo/build" --target medlint -j "$(nproc)" >/dev/null
"$repo/build/tools/medlint/medlint" \
  --src "$repo/src" \
  --src "$repo/tools/medcrypt_cli.cpp" \
  --src "$repo/tools/gen_params.cpp" \
  --allowlist "$repo/tools/medlint/allowlist.txt" \
  --baseline "$repo/tools/medlint/baseline.txt" \
  --extern-allowlist "$repo/tools/medlint/extern_calls.txt" \
  --stats

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B "$repo/build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Sources only; headers are covered via HeaderFilterRegex in .clang-tidy.
  find "$repo/src" "$repo/tools/medlint" -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p "$repo/build" --quiet
else
  echo "clang-tidy not found; skipping (install LLVM tools to enable)"
fi

echo "== sanitizer build (address,undefined) =="
cmake -B "$repo/build-asan" -S "$repo" \
  -DMEDCRYPT_SANITIZE=address,undefined >/dev/null
cmake --build "$repo/build-asan" -j "$(nproc)" >/dev/null
ctest --test-dir "$repo/build-asan" --output-on-failure -j "$(nproc)"

echo "== all checks passed =="
