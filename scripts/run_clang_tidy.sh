#!/usr/bin/env sh
# clang-tidy over the hot layers (src/core, src/network, src/vmpi,
# src/obsv — including the profiling/attribution sources profile.cpp
# and attrib.cpp, and the telemetry layer hostprof.cpp and
# telemetry.cpp — and src/lustre, whose chunk coroutines
# ride the same engine hot path, and src/cache, whose fingerprint/store
# sit on the sweep probe path, all picked up by the glob below) with
# the repo's .clang-tidy profile (performance-*, bugprone-*).
#
# Usage: scripts/run_clang_tidy.sh [build-dir]
#
# Needs a compile_commands.json; configure the build dir with
#   cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
# Exits 0 with a notice when clang-tidy is not installed, so callers
# can gate on it unconditionally.
set -eu

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "run_clang_tidy: clang-tidy not installed; skipping" >&2
    exit 0
fi

if [ ! -f "$repo_root/$build_dir/compile_commands.json" ] &&
   [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "run_clang_tidy: no compile_commands.json in $build_dir —" \
         "reconfigure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON" >&2
    exit 1
fi

cd "$repo_root"
# Sources only; headers are pulled in via HeaderFilterRegex.
files=$(find src/core src/network src/vmpi src/obsv src/lustre src/cache -name '*.cpp' | sort)
echo "run_clang_tidy: checking:"
echo "$files" | sed 's/^/  /'
# shellcheck disable=SC2086
exec clang-tidy -p "$build_dir" $files
