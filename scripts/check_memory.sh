#!/usr/bin/env bash
# Memory-safety gate: AddressSanitizer (with LeakSanitizer) plus
# UndefinedBehaviorSanitizer over the unit suites.
#
# Configures an ASan+UBSan build (-DXTSIM_SAN=address,undefined),
# builds everything, and runs every ctest except the labels
# determinism, golden and perf-smoke: those are full bench runs and
# host-time budgets, slow under ASan and meaningless as timings there.
# A leak, an invalid access or any UBSan report fails the test that hit
# it, and the script exits nonzero.
#
# Known failure: Task.DeepChainDoesNotOverflowStack overflows the
# stack under ASan, whose larger frames and disabled sibling-call
# optimisation defeat the test's deep-chain guarantee.  It is reported
# like any other failure (never skipped), so this script exits nonzero
# until that test's guarantee holds under ASan too.
#
# Usage: scripts/check_memory.sh [build-dir]   # default: build-asan
set -euo pipefail
build="${1:-build-asan}"

cmake -B "$build" -S . -DXTSIM_SAN=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j"$(nproc)"
ASAN_OPTIONS="detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$build" -LE "determinism|golden|perf-smoke" \
  -j"$(nproc)" --output-on-failure
echo "check_memory: OK: unit suites clean under ASan+UBSan"
