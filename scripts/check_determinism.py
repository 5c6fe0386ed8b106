#!/usr/bin/env python3
"""Serial-vs-parallel determinism gate.

Runs a bench binary twice with identical arguments except for one
varied axis, and requires:

  1. stdout byte-identical (tables, CSV blocks, closing notes);
  2. the --metrics tables (appended to stdout at exit) identical, since
     the run adds --metrics to both invocations;
  3. the --trace= Chrome-trace JSON byte-identical after stripping the
     wall-clock fields that legitimately vary;
  4. the --profile= attribution JSON, scrubbed the same way, identical.

Three axes, selected with --vary:

  --vary jobs           (default) --jobs=1 vs --jobs=N: the sweep
                        parallelism — independent Worlds on host cores.
  --vary heartbeat      off vs --heartbeat=0.02 --telemetry=<tmp>: the
                        runtime telemetry layer, which promises to
                        stay strictly out-of-band — arming it must not
                        change a single simulated byte.
  --vary cache          three runs — cache off, cold (fresh
                        --cache-dir), warm (same dir again) — must all
                        produce identical simulated bytes: a replayed
                        sweep point is indistinguishable from a live
                        one.  This axis omits --trace (tracing runs
                        bypass the scenario cache by design).  The cold
                        leg's cache counters must show it wrote each
                        stored .xtsc entry, the warm leg's that it hit
                        each one and missed, wrote and corrupted none.

The "== host resources ==" block (getrusage gauges appended by
--metrics) and the "== scenario cache ==" block (hit/miss counters of
the host's cache directory) are scrubbed from stdout before comparison
in every mode: both report host facts, not simulation outputs.

Usage:
  check_determinism.py --run <bench> [bench args...]
  check_determinism.py --run <bench> --vary heartbeat -- --quick
  check_determinism.py --run <bench> --jobs-parallel 4 -- --quick
"""

import json
import os
import subprocess
import sys
import tempfile

# Wall-clock-derived keys that may differ between runs of the same
# simulation; everything else in the artifacts must match byte-for-byte.
VOLATILE_KEYS = {"generated_wall_s", "wall_clock_s", "host"}


def fail(msg):
    print("check_determinism: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def scrub(obj):
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in sorted(obj.items())
                if k not in VOLATILE_KEYS}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


# Stdout blocks reporting host facts rather than simulation outputs;
# each runs from its header line to the next blank line.
HOST_BLOCKS = ("== host resources ==", "== scenario cache ==")


def scrub_stdout(text):
    """Drop host-fact blocks: getrusage values and cache-directory
    hit/miss counts vary run-to-run (and cold-vs-warm) by nature."""
    lines = text.splitlines(keepends=True)
    out, skipping = [], False
    for line in lines:
        if line.rstrip("\n") in HOST_BLOCKS:
            skipping = True
            # The header is preceded by a blank separator; drop it too
            # so the scrub leaves no trailing gap.
            if out and out[-1].strip() == "":
                out.pop()
            continue
        if skipping:
            if line.strip() == "":
                skipping = False
            continue
        out.append(line)
    return "".join(out)


def run_once(bench, args, axis_flags, trace_path, profile_path):
    cmd = [bench] + axis_flags + ["--metrics", f"--profile={profile_path}"]
    if trace_path is not None:
        cmd.append(f"--trace={trace_path}")
    cmd += args
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def check_cache_counters(label, text, want):
    """Compare the cache.scenario counters of a --metrics stdout."""
    head = "== scenario cache ==\n"
    if head not in text:
        fail(f"{label}: no '== scenario cache ==' block in the output")
    block = text.split(head, 1)[1].split("\n\n", 1)[0]
    got = {f[1]: float(f[3]) for f in map(str.split, block.splitlines())
           if len(f) >= 4 and f[0] == "cache.scenario"
           and f[2] == "counter"}
    bad = [f"{k}={got.get(k)} (want {v})" for k, v in want.items()
           if got.get(k) != v]
    if bad:
        fail(f"{label} leg counters: {', '.join(bad)}")


def load_scrubbed(path, what):
    try:
        with open(path) as f:
            return scrub(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        fail(f"could not load {what} artifact {path}: {e}")


def check_cache(bench, rest):
    """Cache axis: cache-off vs cold vs warm must be byte-identical.

    Three runs instead of two, sharing one cache directory between the
    cold and warm legs.  No --trace: tracing sweeps bypass the scenario
    cache by design, so a traced warm run would never replay.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "cache")
        legs = [
            ("cache off", []),
            ("cold cache", [f"--cache-dir={cache_dir}"]),
            ("warm cache", [f"--cache-dir={cache_dir}"]),
        ]
        outs = []
        profiles = []
        for i, (label, flags) in enumerate(legs):
            profile = os.path.join(tmp, f"profile_{i}.json")
            out = run_once(bench, rest, flags, None, profile)
            outs.append(scrub_stdout(out))
            profiles.append(load_scrubbed(profile, label))
            if label == "cold cache":
                entries = [f for f in os.listdir(cache_dir)
                           if f.endswith(".xtsc")]
                if not entries:
                    fail("cold run stored no cache entries — the bench "
                         "is not keying its sweep points")
                check_cache_counters(label, out,
                                     {"writes": len(entries), "hits": 0})
            elif label == "warm cache":
                check_cache_counters(label, out,
                                     {"hits": len(entries), "misses": 0,
                                      "writes": 0, "corrupt": 0})

        for i in (1, 2):
            if outs[i] != outs[0]:
                import difflib
                diff = "\n".join(difflib.unified_diff(
                    outs[0].splitlines(), outs[i].splitlines(),
                    legs[0][0], legs[i][0], lineterm=""))
                fail(f"stdout differs between {legs[0][0]} and "
                     f"{legs[i][0]}:\n{diff[:4000]}")
            if profiles[i] != profiles[0]:
                fail(f"--profile= artifacts differ between {legs[0][0]} "
                     f"and {legs[i][0]}")

    name = os.path.basename(bench)
    print(f"check_determinism: OK: {name} {' '.join(rest)} is "
          f"byte-identical with cache off, cold and warm "
          f"(stdout + metrics + profile); {len(entries)} entries written "
          f"cold and hit warm")
    return 0


def main(argv):
    if len(argv) < 2 or argv[0] != "--run":
        print(__doc__)
        return 2
    bench = argv[1]
    rest = argv[2:]
    parallel_n = 8
    vary = "jobs"
    while rest and rest[0] in ("--jobs-parallel", "--vary"):
        if rest[0] == "--jobs-parallel":
            parallel_n = int(rest[1])
        else:
            vary = rest[1]
            if vary not in ("jobs", "heartbeat", "cache"):
                fail(f"--vary must be 'jobs', 'heartbeat' or 'cache', "
                     f"got {vary}")
        rest = rest[2:]
    if rest and rest[0] == "--":
        rest = rest[1:]

    if vary == "cache":
        return check_cache(bench, rest)

    with tempfile.TemporaryDirectory() as tmp:
        if vary == "jobs":
            serial_flags = ["--jobs=1"]
            parallel_flags = [f"--jobs={parallel_n}"]
        else:  # heartbeat: telemetry off vs armed, fast beat to a tmp file
            serial_flags = []
            parallel_flags = ["--heartbeat=0.02",
                              "--telemetry=" + os.path.join(tmp, "hb.jsonl")]
        label1 = " ".join(serial_flags) or "telemetry off"
        labeln = " ".join(parallel_flags)

        t1 = os.path.join(tmp, "serial_trace.json")
        tn = os.path.join(tmp, "parallel_trace.json")
        p1 = os.path.join(tmp, "serial_profile.json")
        pn = os.path.join(tmp, "parallel_profile.json")
        out1 = scrub_stdout(run_once(bench, rest, serial_flags, t1, p1))
        outn = scrub_stdout(run_once(bench, rest, parallel_flags, tn, pn))

        if out1 != outn:
            import difflib
            diff = "\n".join(difflib.unified_diff(
                out1.splitlines(), outn.splitlines(),
                label1, labeln, lineterm=""))
            fail(f"stdout differs between {label1} and {labeln}:\n"
                 f"{diff[:4000]}")

        if load_scrubbed(t1, "trace") != load_scrubbed(tn, "trace"):
            fail(f"--trace= artifacts differ between {label1} and {labeln}")
        if load_scrubbed(p1, "profile") != load_scrubbed(pn, "profile"):
            fail(f"--profile= artifacts differ between {label1} and {labeln}")

    name = os.path.basename(bench)
    print(f"check_determinism: OK: {name} {' '.join(rest)} is byte-identical "
          f"at {label1} and {labeln} (stdout + metrics + trace + profile)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
