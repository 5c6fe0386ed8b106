#!/usr/bin/env python3
"""Run the simulator-core microbenchmarks and track events/sec over PRs.

Runs build/bench/bench_simulator_native with JSON output, extracts
items_per_second for every benchmark, and records the numbers in
results/BENCH_simcore.json next to the frozen pre-optimization baseline:

    {
      "schema": 1,
      "baseline":  {"label": ..., "metrics": {name: items_per_second}},
      "current":   {"label": ..., "metrics": {...}},
      "reference": {...},          # best "current" seen so far
      "speedup_vs_baseline": {name: current/baseline}
    }

The benches run with no obsv session, so every span/metrics/profiling
hook in the hot path is in its disabled (single null/bool check) state;
the --check ratio gates double as the "observability off costs nothing
measurable" regression test for the engine-throughput and flow-churn
benches (ISSUE: profiling layer must be free when off).

The file also carries a "sweep-wallclock" series (--sweep): wall-clock
of the figs 8-11 sweep bench at --jobs=1 vs --jobs=N (the parallel
sweep runner), appended per run so the serial/parallel ratio is
tracked over PRs alongside the events/sec metrics.

--rss measures the per-rank memory footprint of one World: it runs
bench_alltoall_scale --build-only --rss once per rank count (a fresh
process each time — peak RSS is a process high-water mark), parses the
rss: lines, and records bytes/rank under "rss" in the tracked JSON.
With --check it enforces the memory-diet acceptance gate: current
bytes/rank must sit at or below (1 - RSS_DROP) x the frozen pre-diet
baseline, and must not regress above RSS_MAX_RATIO x the best
(reference) value seen.

--io records the I/O benches' wall-clock under "io-wallclock":
bench_ior and bench_checkpoint each run --quick twice, once plain
(every obsv hook in its disarmed null-check state) and once fully
armed (--metrics plus --trace= and --profile= to scratch files), and
the armed/plain ratio is stored per bench.  With --check it enforces
the observability-overhead gate: the armed run may cost at most
IO_OBSV_MAX_RATIO x the plain run plus an IO_OBSV_FIXED_S allowance
for the session's run-size-independent setup (the session, its
shards and the exporters; trace rings grow only as spans arrive).

--cache records the scenario-result cache payoff under "cache": the
figs 8-11 sweep bench runs twice against one fresh --cache-dir — cold
(every point executes and is stored) then warm (every point replays) —
and the warm/cold wall-clock ratio is tracked.  With --check it
enforces the acceptance gate: the warm run must cost at most
CACHE_MAX_WARM_RATIO x the cold run, and the cache directory must
actually hold entries after the cold leg.

--host-profile records where host time goes: it runs the figs 8-11
sweep bench once with --telemetry= to a scratch file, reads the
breakdown record the telemetry layer appends at exit (per-subsystem
seconds and share-of-wall: engine, net.rates, obsv.export, telemetry,
other), and stores it under "host-profile" in the tracked JSON.  When
a PR slows a bench down, this is the first diff to read — it names
the subsystem that grew.  With --check it fails unless the shares
sum to ~1 of measured wall (the breakdown must tile the run).

Every JSON write goes through an atomic rename: the document is
written to "<out>.tmp" (covered by the results/*.tmp gitignore rule,
so an interrupted run never leaves a half-written tracked file or an
untracked stray; the write path removes the temp on failure too) and
os.replace()d into place.

Modes:
  (default)        full run, update "current"/"reference", write JSON
  --smoke          quick subset (small args, min benchmark time); writes
                   <build-dir>/BENCH_simcore.smoke.json instead of the
                   tracked file (build output, never a stray in results/)
                   and fails if any benchmark errors; with --check, also
                   fails if a metric collapses below SMOKE_MIN_RATIO x
                   reference — used by the `check-perf` target and the
                   perf-smoke ctest label
  --sweep          time build/bench/bench_fig08_11_global (--quick by
                   default, SWEEP_ARGS to override) at --jobs=1 and
                   --jobs=N and append to the "sweep-wallclock" series
  --rss            record World bytes/rank at RSS_COUNTS rank counts;
                   with --check, enforce the drop/regression gates
  --io             record bench_ior/bench_checkpoint wall-clock plain
                   vs obsv-armed; with --check, gate the overhead ratio
  --cache          record cold-vs-warm wall-clock of the sweep bench
                   against one --cache-dir under "cache"; with --check,
                   gate warm <= CACHE_MAX_WARM_RATIO x cold
  --host-profile   record the per-subsystem host-time breakdown of the
                   sweep bench under "host-profile"; with --check,
                   require the shares to sum to ~1 of wall
  --save-baseline  overwrite the stored baseline with this run
  --check          additionally fail (exit 1) if any metric drops below
                   MIN_RATIO x its reference value
"""

import argparse
import json
import os
import subprocess
import sys
import time

MIN_RATIO = 0.70  # --check: tolerated fraction of the reference number
# Smoke runs are short and often share the box with other work, so the
# gate only catches collapse-level regressions, not noise.
SMOKE_MIN_RATIO = 0.35
SMOKE_FILTER = "BM_EngineEvents/10000|BM_EngineThroughput/100000|" \
    "BM_FlowNetworkTransfers/1000|BM_FlowChurn/256|" \
    "BM_VmpiAllreduce/64|BM_VmpiAlltoall/64"


def run_bench(binary, smoke):
    cmd = [binary, "--benchmark_format=json"]
    if smoke:
        cmd += ["--benchmark_filter=" + SMOKE_FILTER,
                "--benchmark_min_time=0.01"]
    else:
        cmd += ["--benchmark_min_time=0.05"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    report = json.loads(proc.stdout)
    metrics = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ips = b.get("items_per_second")
        if ips is not None:
            metrics[b["name"]] = ips
    if not metrics:
        raise RuntimeError("benchmark produced no items_per_second metrics")
    return metrics


SWEEP_BENCH = "bench_fig08_11_global"
SWEEP_ARGS = ["--quick"]
SWEEP_HISTORY = 50  # entries kept in the wallclock series

RSS_BENCH = "bench_alltoall_scale"
RSS_COUNTS = [65536, 262144]
RSS_DROP = 0.30      # --check: required drop of current vs baseline
RSS_MAX_RATIO = 1.25  # --check: tolerated growth over the reference


def write_json_atomic(path, doc):
    """Write doc to path via a same-directory temp file + atomic rename.

    The temp name ends in .tmp so an interrupted run leaves only a file
    the results/*.tmp gitignore rule already covers.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        # A failed dump/replace must not leave the stray behind — the
        # gitignore rule hides it, but the next run would clobber it
        # silently and debugging gets confusing.
        if os.path.exists(tmp):
            os.remove(tmp)


def time_bench(cmd):
    t0 = time.perf_counter()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def run_sweep_wallclock(build_dir, label):
    """Time the figs 8-11 sweep at --jobs=1 vs --jobs=N (host cores)."""
    binary = os.path.join(build_dir, "bench", SWEEP_BENCH)
    if not os.path.exists(binary):
        sys.exit(f"sweep bench not found: {binary} (build {SWEEP_BENCH})")
    jobs = os.cpu_count() or 1
    serial = time_bench([binary, "--jobs=1"] + SWEEP_ARGS)
    parallel = time_bench([binary, f"--jobs={jobs}"] + SWEEP_ARGS)
    return {
        "label": label,
        "bench": SWEEP_BENCH,
        "args": SWEEP_ARGS,
        "host_cores": jobs,
        "jobs1_s": round(serial, 4),
        "jobsN_s": round(parallel, 4),
        "speedup": round(serial / parallel, 3) if parallel > 0 else None,
    }


def measure_rss(build_dir):
    """World bytes/rank by count, one fresh process per measurement."""
    binary = os.path.join(build_dir, "bench", RSS_BENCH)
    if not os.path.exists(binary):
        sys.exit(f"bench not found: {binary} (build {RSS_BENCH})")
    per_rank = {}
    for n in RSS_COUNTS:
        cmd = [binary, f"--ranks={n}", "--build-only", "--rss"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                              text=True)
        for line in proc.stdout.splitlines():
            if not line.startswith("rss: "):
                continue
            fields = dict(kv.split("=", 1) for kv in line[5:].split())
            if int(fields["ranks"]) == n:
                per_rank[str(n)] = float(fields["bytes_per_rank"])
        if str(n) not in per_rank:
            sys.exit(f"no rss: line for ranks={n} in {' '.join(cmd)} output")
    return per_rank


def run_rss(repo_root, build_dir, args):
    tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
    doc = {"schema": 1}
    if os.path.exists(tracked):
        with open(tracked) as f:
            doc = json.load(f)

    label = args.label or git_label(repo_root)
    per_rank = measure_rss(build_dir)
    run = {"label": label, "bench": RSS_BENCH, "bytes_per_rank": per_rank}

    rss = doc.setdefault("rss", {})
    if args.save_baseline or "baseline" not in rss:
        rss["baseline"] = run
    rss["current"] = run

    ref = dict(rss.get("reference", {}).get("bytes_per_rank", {}))
    for count, val in per_rank.items():
        if count not in ref or val < ref[count]:
            ref[count] = val
    rss["reference"] = {"label": label, "bytes_per_rank": ref}

    base = rss["baseline"].get("bytes_per_rank", {})
    rss["drop_vs_baseline"] = {
        count: round(1.0 - val / base[count], 4)
        for count, val in per_rank.items()
        if isinstance(base.get(count), (int, float)) and base[count] > 0
    }

    write_json_atomic(tracked, doc)
    for count in sorted(per_rank, key=int):
        drop = rss["drop_vs_baseline"].get(count)
        drop_s = f"{100 * drop:+.1f}% vs baseline" if drop is not None \
            else "no measured baseline"
        print(f"rss: ranks={count} bytes/rank={per_rank[count]:.1f} "
              f"({drop_s})")
    print(f"wrote {os.path.relpath(tracked, repo_root)}")

    if args.check:
        bad = []
        for count, val in per_rank.items():
            b = base.get(count)
            if isinstance(b, (int, float)) and b > 0 \
                    and val > (1.0 - RSS_DROP) * b:
                bad.append(f"ranks={count}: {val:.1f} bytes/rank > "
                           f"{1.0 - RSS_DROP:.2f} x baseline {b:.1f}")
            r = rss["reference"]["bytes_per_rank"].get(count)
            if r and val > RSS_MAX_RATIO * r:
                bad.append(f"ranks={count}: {val:.1f} bytes/rank > "
                           f"{RSS_MAX_RATIO} x reference {r:.1f}")
        if bad:
            for msg in bad:
                print("REGRESSION:", msg, file=sys.stderr)
            sys.exit(1)
        print(f"check ok: bytes/rank down >= {100 * RSS_DROP:.0f}% vs "
              f"baseline and within {RSS_MAX_RATIO} x reference")


IO_BENCHES = ["bench_ior", "bench_checkpoint"]
IO_ARGS = ["--quick", "--jobs=1"]
# Gate: armed_s <= RATIO x plain_s + FIXED_S.  The fixed allowance
# covers session setup that doesn't scale with the run (the session,
# its shards and the exporters; trace rings grow only as spans
# arrive); the ratio term catches accidental per-span or per-chunk
# work creeping into the armed hot path.
IO_OBSV_MAX_RATIO = 3.0
IO_OBSV_FIXED_S = 1.5


def run_io_wallclock(repo_root, build_dir, args):
    """Record plain vs obsv-armed wall-clock of the I/O benches."""
    import tempfile

    label = args.label or git_label(repo_root)
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for bench in IO_BENCHES:
            binary = os.path.join(build_dir, "bench", bench)
            if not os.path.exists(binary):
                sys.exit(f"bench not found: {binary} (build {bench})")
            plain = time_bench([binary] + IO_ARGS)
            armed = time_bench(
                [binary] + IO_ARGS
                + ["--metrics",
                   f"--trace={os.path.join(tmp, bench)}.trace.json",
                   f"--profile={os.path.join(tmp, bench)}.prof.json"])
            entries[bench] = {
                "plain_s": round(plain, 4),
                "armed_s": round(armed, 4),
                "obsv_ratio": round(armed / plain, 3) if plain > 0 else None,
            }

    tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
    doc = {"schema": 1}
    if os.path.exists(tracked):
        with open(tracked) as f:
            doc = json.load(f)
    doc["io-wallclock"] = {"label": label, "args": IO_ARGS,
                           "benches": entries}
    write_json_atomic(tracked, doc)

    for bench, e in entries.items():
        print(f"io-wallclock: {bench}: plain {e['plain_s']:.2f}s, "
              f"armed {e['armed_s']:.2f}s ({e['obsv_ratio']}x)")
    print(f"wrote {os.path.relpath(tracked, repo_root)}")

    if args.check:
        bad = []
        for b, e in entries.items():
            budget = IO_OBSV_MAX_RATIO * e["plain_s"] + IO_OBSV_FIXED_S
            if e["armed_s"] > budget:
                bad.append((b, e["armed_s"], budget))
        if bad:
            for b, a, budget in bad:
                print(f"REGRESSION: {b}: obsv-armed run {a:.2f}s exceeds "
                      f"budget {budget:.2f}s ({IO_OBSV_MAX_RATIO}x plain "
                      f"+ {IO_OBSV_FIXED_S}s setup)", file=sys.stderr)
            sys.exit(1)
        print(f"check ok: obsv overhead within {IO_OBSV_MAX_RATIO}x plain "
              f"+ {IO_OBSV_FIXED_S}s on {len(entries)} bench(es)")


CACHE_BENCH = "bench_fig08_11_global"
CACHE_ARGS = ["--quick", "--jobs=1"]  # jobs=1: measure replay, not the pool
# Acceptance gate (ISSUE 10): a warm sweep — every point replayed from
# the store — must cost at most this fraction of the cold run.
CACHE_MAX_WARM_RATIO = 0.20


def run_cache_wallclock(repo_root, build_dir, args):
    """Record cold-vs-warm sweep wall-clock against one cache dir."""
    import tempfile

    binary = os.path.join(build_dir, "bench", CACHE_BENCH)
    if not os.path.exists(binary):
        sys.exit(f"bench not found: {binary} (build {CACHE_BENCH})")

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "cache")
        cmd = [binary] + CACHE_ARGS + [f"--cache-dir={cache_dir}"]
        cold = time_bench(cmd)
        n_entries = len([f for f in os.listdir(cache_dir)
                         if f.endswith(".xtsc")])
        warm = time_bench(cmd)

    label = args.label or git_label(repo_root)
    entry = {
        "label": label,
        "bench": CACHE_BENCH,
        "args": CACHE_ARGS,
        "entries": n_entries,
        "cold_s": round(cold, 4),
        "warm_s": round(warm, 4),
        "warm_ratio": round(warm / cold, 3) if cold > 0 else None,
    }

    tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
    doc = {"schema": 1}
    if os.path.exists(tracked):
        with open(tracked) as f:
            doc = json.load(f)
    doc["cache"] = entry
    write_json_atomic(tracked, doc)

    print(f"cache: {CACHE_BENCH} {' '.join(CACHE_ARGS)}: "
          f"cold {entry['cold_s']:.2f}s ({n_entries} entries stored), "
          f"warm {entry['warm_s']:.2f}s ({entry['warm_ratio']}x)")
    print(f"wrote {os.path.relpath(tracked, repo_root)}")

    if args.check:
        if n_entries == 0:
            sys.exit("REGRESSION: cold run stored no cache entries — "
                     "the sweep is not keying its points")
        if entry["warm_ratio"] is None \
                or entry["warm_ratio"] > CACHE_MAX_WARM_RATIO:
            sys.exit(f"REGRESSION: warm run {entry['warm_s']:.2f}s is "
                     f"{entry['warm_ratio']}x cold {entry['cold_s']:.2f}s "
                     f"> {CACHE_MAX_WARM_RATIO}x — cache replay is not "
                     f"paying off")
        print(f"check ok: warm sweep at {entry['warm_ratio']}x cold "
              f"(<= {CACHE_MAX_WARM_RATIO}x, {n_entries} entries)")


HOSTPROF_BENCH = "bench_fig08_11_global"
HOSTPROF_ARGS = ["--quick", "--jobs=1"]
HOSTPROF_SHARE_TOL = 0.02  # --check: tracked+other must reach 1 - tol


def run_host_profile(repo_root, build_dir, args):
    """Record the telemetry breakdown of one sweep run in the tracked JSON."""
    import tempfile

    binary = os.path.join(build_dir, "bench", HOSTPROF_BENCH)
    if not os.path.exists(binary):
        sys.exit(f"bench not found: {binary} (build {HOSTPROF_BENCH})")

    breakdown = None
    with tempfile.TemporaryDirectory() as tmp:
        stream = os.path.join(tmp, "telemetry.jsonl")
        cmd = [binary] + HOSTPROF_ARGS + [f"--telemetry={stream}"]
        subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
        with open(stream) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("kind") == "breakdown":
                    breakdown = rec
    if breakdown is None:
        sys.exit(f"no breakdown record in telemetry stream of "
                 f"{' '.join(cmd)}")

    label = args.label or git_label(repo_root)
    entry = {
        "label": label,
        "bench": HOSTPROF_BENCH,
        "args": HOSTPROF_ARGS,
        "wall_s": breakdown["wall_s"],
        "subsystems": breakdown["subsystems"],
    }

    tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
    doc = {"schema": 1}
    if os.path.exists(tracked):
        with open(tracked) as f:
            doc = json.load(f)
    doc["host-profile"] = entry
    write_json_atomic(tracked, doc)

    share_sum = 0.0
    for name in sorted(entry["subsystems"],
                       key=lambda n: -entry["subsystems"][n]["s"]):
        sub = entry["subsystems"][name]
        share_sum += sub["share"]
        print(f"host-profile: {name:<12} {sub['s']:8.4f}s "
              f"{100 * sub['share']:5.1f}%")
    print(f"host-profile: wall {entry['wall_s']:.4f}s; wrote "
          f"{os.path.relpath(tracked, repo_root)}")

    if args.check:
        if share_sum < 1.0 - HOSTPROF_SHARE_TOL:
            sys.exit(f"REGRESSION: breakdown shares sum to {share_sum:.4f} "
                     f"< {1.0 - HOSTPROF_SHARE_TOL} — the subsystem timers "
                     f"no longer tile the wall")
        print(f"check ok: shares sum to {share_sum:.4f} (~1 of wall)")


def git_label(repo_root):
    try:
        rev = subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.decode().strip()
        return rev
    except Exception:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default=None,
                    help="output JSON (default results/BENCH_simcore.json, "
                         "or <build-dir>/BENCH_simcore.smoke.json with "
                         "--smoke)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--sweep", action="store_true",
                    help="append a sweep-wallclock entry (jobs=1 vs jobs=N)")
    ap.add_argument("--rss", action="store_true",
                    help="record World bytes/rank at 64k and 256k ranks; "
                         "with --check, gate the memory-diet drop")
    ap.add_argument("--io", action="store_true", dest="io",
                    help="record I/O bench wall-clock plain vs obsv-armed; "
                         "with --check, gate the overhead ratio")
    ap.add_argument("--cache", action="store_true", dest="cache",
                    help="record cold-vs-warm sweep wall-clock against "
                         "one --cache-dir; with --check, gate the ratio")
    ap.add_argument("--host-profile", action="store_true", dest="hostprof",
                    help="record the telemetry host-time breakdown of the "
                         "sweep bench; with --check, require shares ~1")
    ap.add_argument("--save-baseline", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--label", default=None,
                    help="label for this run (default: git short rev)")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(repo_root, build_dir)

    if args.rss:
        run_rss(repo_root, build_dir, args)
        return

    if args.io:
        run_io_wallclock(repo_root, build_dir, args)
        return

    if args.cache:
        run_cache_wallclock(repo_root, build_dir, args)
        return

    if args.hostprof:
        run_host_profile(repo_root, build_dir, args)
        return

    if args.sweep:
        tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
        entry = run_sweep_wallclock(build_dir,
                                    args.label or git_label(repo_root))
        doc = {"schema": 1}
        if os.path.exists(tracked):
            with open(tracked) as f:
                doc = json.load(f)
        series = doc.setdefault("sweep-wallclock", [])
        series.append(entry)
        del series[:-SWEEP_HISTORY]
        write_json_atomic(tracked, doc)
        print(f"sweep-wallclock: {entry['bench']} "
              f"{' '.join(entry['args'])}: jobs=1 {entry['jobs1_s']:.2f}s, "
              f"jobs={entry['host_cores']} {entry['jobsN_s']:.2f}s "
              f"({entry['speedup']}x)")
        print(f"wrote {os.path.relpath(tracked, repo_root)}")
        return

    binary = os.path.join(build_dir, "bench", "bench_simulator_native")
    if not os.path.exists(binary):
        sys.exit(f"bench binary not found: {binary} (build the "
                 f"bench_simulator_native target first)")

    tracked = os.path.join(repo_root, "results", "BENCH_simcore.json")
    # Smoke output is build scratch, not a result: keep it in the build
    # tree so an aborted CI run never leaves results/BENCH_simcore.tmp
    # sitting next to the tracked file.
    out = args.out or (os.path.join(build_dir, "BENCH_simcore.smoke.json")
                       if args.smoke else tracked)

    metrics = run_bench(binary, args.smoke)
    label = args.label or git_label(repo_root)
    # The bench binary never starts an obsv session: these numbers are
    # the tracing/profiling-disabled fast path, and the ratio checks
    # below gate its overhead.
    run = {"label": label, "obsv": "disabled", "metrics": metrics}

    doc = {"schema": 1}
    if os.path.exists(tracked):
        with open(tracked) as f:
            doc = json.load(f)

    if args.smoke:
        # Smoke mode proves the benches still run (and, with --check,
        # that nothing collapsed); don't touch the tracked file.
        write_json_atomic(out, {"schema": 1, "smoke": run})
        print(f"perf smoke ok: {len(metrics)} benchmarks ran "
              f"(wrote {os.path.relpath(out, repo_root)})")
        if args.check:
            ref = doc.get("reference", {}).get("metrics", {})
            bad = [(n, v, ref[n]) for n, v in metrics.items()
                   if n in ref and v < SMOKE_MIN_RATIO * ref[n]]
            if bad:
                for n, v, r in bad:
                    print(f"REGRESSION: {n}: {v:.3e} < {SMOKE_MIN_RATIO} x "
                          f"reference {r:.3e}", file=sys.stderr)
                sys.exit(1)
            print(f"check ok: no metric below {SMOKE_MIN_RATIO} x reference")
        return

    if args.save_baseline or "baseline" not in doc:
        doc["baseline"] = run
    doc["current"] = run

    ref = doc.get("reference", {}).get("metrics", {})
    new_ref = dict(ref)
    for name, val in metrics.items():
        if val >= ref.get(name, 0.0):
            new_ref[name] = val
    doc["reference"] = {"label": label, "metrics": new_ref}

    base = doc["baseline"]["metrics"]
    doc["speedup_vs_baseline"] = {
        name: round(val / base[name], 3)
        for name, val in metrics.items() if base.get(name)
    }

    write_json_atomic(out, doc)

    width = max(len(n) for n in metrics)
    print(f"{'benchmark':<{width}}  {'items/sec':>12}  vs baseline")
    for name, val in metrics.items():
        spd = doc["speedup_vs_baseline"].get(name)
        spd_s = f"{spd:.2f}x" if spd else "--"
        print(f"{name:<{width}}  {val:12.3e}  {spd_s}")
    print(f"wrote {os.path.relpath(out, repo_root)}")

    if args.check:
        bad = [(n, v, ref[n]) for n, v in metrics.items()
               if n in ref and v < MIN_RATIO * ref[n]]
        if bad:
            for n, v, r in bad:
                print(f"REGRESSION: {n}: {v:.3e} < {MIN_RATIO} x "
                      f"reference {r:.3e}", file=sys.stderr)
            sys.exit(1)
        print("check ok: no metric below "
              f"{MIN_RATIO} x reference")


if __name__ == "__main__":
    main()
