#!/usr/bin/env python3
"""Host-cost budgets of the simulator, run as ctests.

  check_budgets.py rss <bench_alltoall_scale>
      One World's bytes/rank (`--build-only --rss`, one process per rank
      count) must stay at or below RSS_MAX_RATIO x RSS_REFERENCE.
  check_budgets.py obsv <bench>...
      Each bench at --quick --jobs=1 with --metrics, --trace= and
      --profile= may take ARMED_RATIO x its plain wall + ARMED_FIXED_S
      (session setup); the ratio catches per-span work in the hot path.
  check_budgets.py cache <bench_fig08_11_global>
      The scenario-cache entries that `--quick --metrics --cache-dir=`
      writes may total at most CACHE_MAX_RATIO x CACHE_REFERENCE bytes.
      Entry bytes are deterministic, so this budget has no timing noise.

rss and obsv carry the perf-smoke label; cache is a tier-1 ctest.

RSS_REFERENCE was measured from Python, as here: the bench's ru_maxrss
baseline then holds the launcher's resident set (a shell reads higher).
"""

import os
import subprocess
import sys
import tempfile
import time

RSS_REFERENCE = {65536: 357.2, 262144: 470.7}  # bytes/rank
RSS_MAX_RATIO = 1.25
ARMED_RATIO = 3.0
ARMED_FIXED_S = 1.5
# The 28 figs 8-11 --quick entries, in bytes, once snapshots stopped
# storing the trace-only class series (format version 2; 5740017 before).
CACHE_REFERENCE = 883073
CACHE_MAX_RATIO = 1.25


def fail(msg):
    print("check_budgets: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def check_rss(bench):
    for ranks, ref in RSS_REFERENCE.items():
        out = run([bench, f"--ranks={ranks}", "--build-only", "--rss"])
        lines = [ln for ln in out.splitlines()
                 if ln.startswith(f"rss: ranks={ranks} ")]
        if not lines:
            fail(f"no rss: line for ranks={ranks}")
        got = float(lines[0].split("bytes_per_rank=")[1])
        ceiling = RSS_MAX_RATIO * ref
        print(f"rss: ranks={ranks} bytes/rank={got:.1f} "
              f"(ceiling {ceiling:.1f})")
        if got > ceiling:
            fail(f"ranks={ranks}: {got:.1f} bytes/rank > {ceiling:.1f}")


def check_obsv(benches):
    with tempfile.TemporaryDirectory() as tmp:
        for bench in benches:
            stem = os.path.join(tmp, os.path.basename(bench))
            armed = ["--metrics", f"--trace={stem}.trace.json",
                     f"--profile={stem}.prof.json"]
            secs = []
            for extra in ([], armed):
                t0 = time.perf_counter()
                run([bench, "--quick", "--jobs=1"] + extra)
                secs.append(time.perf_counter() - t0)
            budget = ARMED_RATIO * secs[0] + ARMED_FIXED_S
            print(f"obsv: {os.path.basename(bench)}: plain {secs[0]:.3f}s, "
                  f"armed {secs[1]:.3f}s (budget {budget:.3f}s)")
            if secs[1] > budget:
                fail(f"{bench}: armed run exceeds its budget")


def check_cache(bench):
    with tempfile.TemporaryDirectory() as tmp:
        run([bench, "--quick", "--metrics", f"--cache-dir={tmp}"])
        sizes = [os.path.getsize(os.path.join(tmp, f))
                 for f in os.listdir(tmp) if f.endswith(".xtsc")]
    if not sizes:
        fail("the bench wrote no cache entries")
    ceiling = CACHE_MAX_RATIO * CACHE_REFERENCE
    print(f"cache: {len(sizes)} entries, {sum(sizes)} bytes "
          f"(ceiling {ceiling:.0f})")
    if sum(sizes) > ceiling:
        fail(f"cache entries total {sum(sizes)} bytes > {ceiling:.0f}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["rss"] and len(sys.argv) == 3:
        check_rss(sys.argv[2])
    elif sys.argv[1:2] == ["obsv"] and len(sys.argv) > 2:
        check_obsv(sys.argv[2:])
    elif sys.argv[1:2] == ["cache"] and len(sys.argv) == 3:
        check_cache(sys.argv[2])
    else:
        sys.exit(__doc__)
    print(f"check_budgets: OK: {sys.argv[1]}")
