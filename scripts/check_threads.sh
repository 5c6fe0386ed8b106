#!/usr/bin/env bash
# Race-detection gate for the threaded paths.
#
# Configures a ThreadSanitizer build (-DXTSIM_SAN=thread), builds the
# threaded unit suites, and runs every test carrying the tsan_smoke
# label:
#   - test_runner_sweep: the parallel sweep runner (worker pools,
#     concurrent shard recording, the absorb merge);
#   - test_obsv_telemetry: the sharded HostProfile accumulators
#     (fold-while-timing) and the telemetry sampler thread against a
#     running World;
#   - test_lustre: the Lustre model's detached chunk fan-out, bounded
#     OST queue grants, and IoSummary recording through the shard
#     absorb path (sweep workers run whole filesystems concurrently);
#   - test_cache: the scenario-result store (memo map + on-disk
#     entries), hit concurrently by sweep worker threads.
# Any data race aborts the run (TSAN_OPTIONS halt_on_error), failing
# the gate.  (The jobs=1-vs-jobs=8 bench determinism ctests stay in
# the regular build: two full bench runs per test are too slow under
# TSan's ~10x slowdown.)
#
# Usage: scripts/check_threads.sh [build-dir]   # default: build-tsan
set -euo pipefail
build="${1:-build-tsan}"

cmake -B "$build" -S . -DXTSIM_SAN=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j"$(nproc)" \
  --target test_runner_sweep test_obsv_telemetry test_lustre test_cache
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir "$build" -L tsan_smoke \
  --output-on-failure
echo "check_threads: OK: tsan_smoke suite clean under ThreadSanitizer"
