#!/usr/bin/env python3
"""Serial-vs-parallel determinism gate.

Runs a bench binary twice with identical arguments except for one
varied axis, and requires:

  1. stdout byte-identical (tables, CSV blocks, closing notes);
  2. the --metrics tables (appended to stdout at exit) identical, since
     the run adds --metrics to both invocations;
  3. the --trace= Chrome-trace JSON byte-identical;
  4. the --profile= attribution JSON byte-identical.

The artifacts are compared as raw bytes, in chunks; a mismatch reports
the first differing byte offset and the line holding it in each file.

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

The "== host resources ==" block (getrusage facts appended by
--metrics) and the "== scenario cache ==" block (hit/miss counters of
the host's cache directory) are scrubbed from stdout before comparison
in every mode: both report host facts, not simulation outputs.

Usage:
  check_determinism.py --run <bench> [bench args...]
  check_determinism.py --run <bench> --vary heartbeat -- --quick
  check_determinism.py --run <bench> --jobs-parallel 4 -- --quick
"""

import os
import subprocess
import sys
import tempfile

CHUNK = 1 << 20  # bytes read per compare step


def fail(msg):
    print("check_determinism: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


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


def first_difference(path_a, path_b):
    """Offset of the first byte at which two files differ (a length
    difference counts at the shorter file's end), or None if equal."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        offset = 0
        while True:
            a, b = fa.read(CHUNK), fb.read(CHUNK)
            if a != b:
                n = min(len(a), len(b))
                return offset + next(
                    (i for i in range(n) if a[i] != b[i]), n)
            if not a:
                return None
            offset += len(a)


def line_at(path, offset):
    """1-based number and text (up to 200 bytes) of the line holding
    byte `offset` of `path`."""
    with open(path, "rb") as f:
        lineno, start, pos = 1, 0, 0
        while pos < offset:
            chunk = f.read(min(CHUNK, offset - pos))
            if not chunk:
                break
            newlines = chunk.count(b"\n")
            if newlines:
                lineno += newlines
                start = pos + chunk.rindex(b"\n") + 1
            pos += len(chunk)
        f.seek(start)
        line = f.readline().rstrip(b"\n")
    return lineno, line[:200].decode(errors="replace")


def compare_artifacts(what, path_a, label_a, path_b, label_b):
    """Fail unless the two artifact files are byte-identical."""
    try:
        at = first_difference(path_a, path_b)
    except OSError as e:
        fail(f"could not read {what} artifact: {e}")
    if at is None:
        return
    lines = []
    for label, path in ((label_a, path_a), (label_b, path_b)):
        lineno, text = line_at(path, at)
        lines.append(f"  {label}: line {lineno}: {text}")
    fail(f"{what} artifacts differ between {label_a} and {label_b} "
         f"from byte {at}:\n" + "\n".join(lines))


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
            profiles.append(profile)
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
            compare_artifacts("--profile=", profiles[0], legs[0][0],
                              profiles[i], legs[i][0])

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

        compare_artifacts("--trace=", t1, label1, tn, labeln)
        compare_artifacts("--profile=", p1, label1, pn, labeln)

    name = os.path.basename(bench)
    print(f"check_determinism: OK: {name} {' '.join(rest)} is byte-identical "
          f"at {label1} and {labeln} (stdout + metrics + trace + profile)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
