#!/usr/bin/env python3
"""Validate a Chrome trace (--trace=), an xtsim profile (--profile=)
or a telemetry stream (--telemetry=).

Trace checks:
  1. The file is well-formed JSON with a traceEvents array and the
     xtsim summary block.
  2. For every traced message (async "b"/"e" pairs sharing an id), the
     per-segment durations (tx wait, tx overhead, rendezvous, hops,
     flow, rx wait, rx/copy) are gapless and sum to the simulated
     delivery window (last end - first begin) within 1e-9 s.
  3. Per-world link byte conservation: the bytes attributed to ejection
     links equal FlowNetwork's total delivered bytes.

Profile checks ("xtsim_profile" JSON, detected automatically):
  1. Schema: marker, worlds[], per-rank buckets, matrix, phases,
     critical_path, attribution with scores summing to ~1.
  2. Each rank's exclusive bucket sums tile the world's wall window to
     1e-9 s; phase bucket totals partition total rank time.
  3. Critical path: length <= wall window, its bucket breakdown sums to
     its length, step chain is contiguous in time.
  4. Matrix totals match the world's message/byte counts.

Telemetry checks (JSONL stream, detected by the xtsim_telemetry start
marker on the first line):
  1. Schema: every line parses as one JSON object; the stream opens
     with the start record and ends with exactly one breakdown record;
     every heartbeat carries the full field set.
  2. Heartbeat trajectory: wall_s and events are nondecreasing, gauges
     are nonnegative, at least one (final) heartbeat exists.
  3. Breakdown: per-subsystem seconds >= 0 and the shares (tracked
     subsystems + derived "other") sum to ~1 of measured wall.

Usage:
  check_trace.py file.json                          # kind auto-detected
  check_trace.py --run <bench> [args...]            # runs with --trace
  check_trace.py --run-profile <bench> [args...]    # runs with --profile
  check_trace.py --run-telemetry <bench> [args...]  # runs with --telemetry
"""

import json
import subprocess
import sys
import tempfile
import os
from collections import defaultdict

TOL_US = 1e-3  # 1e-9 s, in trace microseconds


def fail(msg):
    print("check_trace: FAIL:", msg, file=sys.stderr)
    sys.exit(1)


TOL_S = 1e-9  # profile times are plain seconds

BUCKETS = ("compute", "tx", "tx.wait", "rendezvous", "flow", "rx",
           "rx.wait", "io.xfer", "io.queue", "io.mds", "blocked",
           "collective", "idle")
VERDICTS = ("compute-bound", "injection-bound", "contention-bound",
            "wait-bound", "io-bound", "io-metadata-bound",
            "io-stripe-bound")
IO_SPAN_NAMES = {"io.create", "io.mds.wait", "io.rpc", "io.stripe",
                 "io.ost.queue", "io.ost.xfer"}


def check_buckets(where, b):
    if not isinstance(b, dict) or set(b) != set(BUCKETS):
        fail("%s: bucket dict keys mismatch: %r" % (where, sorted(b)))
    for name, v in b.items():
        if not isinstance(v, (int, float)) or v < -TOL_S:
            fail("%s: bucket %s is %r" % (where, name, v))
    return sum(b.values())


def check_attribution(where, a):
    if a["verdict"] not in VERDICTS:
        fail("%s: unknown verdict %r" % (where, a["verdict"]))
    scores = [a[k] for k in ("compute_score", "injection_score",
                             "contention_score", "wait_score",
                             "io_score")]
    if any(s < -1e-12 or s > 1 + 1e-12 for s in scores):
        fail("%s: attribution score out of [0,1]: %r" % (where, scores))
    total = sum(scores)
    if total > 0 and abs(total - 1.0) > 1e-6:
        fail("%s: attribution scores sum to %.9g, not 1" % (where, total))


def check_io_block(where, io):
    mds = io["mds"]
    if mds["ops"] != mds["creates"] + mds["commits"]:
        fail("%s io: mds ops %d != creates %d + commits %d"
             % (where, mds["ops"], mds["creates"], mds["commits"]))
    for k in ("busy_time", "wait_time"):
        if mds[k] < -TOL_S:
            fail("%s io: mds %s negative: %r" % (where, k, mds[k]))
    for k in ("bytes_written", "bytes_read", "lock_wait_time",
              "stripe_imbalance_max"):
        if io[k] < 0:
            fail("%s io: %s negative: %r" % (where, k, io[k]))
    # Every byte written or read moved through exactly one OST.
    moved = io["bytes_written"] + io["bytes_read"]
    ost_bytes = sum(o["bytes"] for o in io["osts"])
    if abs(ost_bytes - moved) > 1e-6 * max(1.0, moved):
        fail("%s io: per-OST bytes %.9g != written+read %.9g"
             % (where, ost_bytes, moved))
    for o in io["osts"]:
        if (o["bytes"] < 0 or o["busy_time"] < -TOL_S
                or o["contended_time"] < -TOL_S or o["peak_queue"] < 0
                or o["chunks"] < 1):
            fail("%s io: bad OST entry %r" % (where, o))
    for o in io["oss_links"]:
        if o["bytes"] < 0 or o["busy_time"] < -TOL_S:
            fail("%s io: bad OSS link entry %r" % (where, o))


def check_profile(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("xtsim_profile") != 1:
        fail("%s: missing/unknown xtsim_profile version" % path)
    worlds = doc.get("worlds")
    if not isinstance(worlds, list) or not worlds:
        fail("%s: profile lists no worlds" % path)

    ranks_checked = 0
    worst = 0.0
    for w in worlds:
        where = "world %s" % w["world"]
        wall = w["wall"]
        if wall < 0 or abs((w["t_end"] - w["t_start"]) - wall) > TOL_S:
            fail("%s: wall %r inconsistent with window [%r, %r]"
                 % (where, wall, w["t_start"], w["t_end"]))
        if len(w["ranks"]) != w["nranks"]:
            fail("%s: %d rank profiles for %d ranks"
                 % (where, len(w["ranks"]), w["nranks"]))

        # Per-rank exclusive buckets tile the wall window.
        for r in w["ranks"]:
            total = check_buckets("%s rank %s" % (where, r["rank"]),
                                  r["buckets"])
            err = abs(total - wall)
            worst = max(worst, err)
            if err > TOL_S:
                fail("%s rank %s: buckets sum to %.12g but wall is %.12g "
                     "(err %.3g s)" % (where, r["rank"], total, wall, err))
            ranks_checked += 1

        # Phase totals partition total rank time (each instant of each
        # rank belongs to exactly one innermost phase, "" outside).
        check_attribution(where, w["attribution"])
        phase_total = 0.0
        for ph in w["phases"]:
            phase_total += check_buckets(
                "%s phase %r" % (where, ph["name"]), ph["buckets"])
            check_attribution("%s phase %r" % (where, ph["name"]),
                              ph["attribution"])
        budget = wall * w["nranks"]
        if w["phases"] and abs(phase_total - budget) > TOL_S * max(
                1, w["nranks"]):
            fail("%s: phase totals sum to %.12g but nranks*wall is %.12g"
                 % (where, phase_total, budget))

        # Matrix totals.
        msgs = sum(m["messages"] for m in w["matrix"])
        byts = sum(m["bytes"] for m in w["matrix"])
        if msgs != w["messages"]:
            fail("%s: matrix msgs %d != total %d"
                 % (where, msgs, w["messages"]))
        if abs(byts - w["bytes"]) > 1e-6 * max(1.0, abs(w["bytes"])):
            fail("%s: matrix bytes %.9g != total %.9g"
                 % (where, byts, w["bytes"]))
        for m in w["matrix"]:
            if m["src"] == m["dst"]:
                fail("%s: self-pair %d in matrix" % (where, m["src"]))
            if m["messages"] < 1 or m["bytes"] < 0 or m["mean_latency"] < 0:
                fail("%s: bad matrix cell %r" % (where, m))

        # Critical path: bounded by the wall window, internally tiled.
        cp = w["critical_path"]
        if cp["length"] > wall + TOL_S:
            fail("%s: critical path %.12g exceeds wall %.12g"
                 % (where, cp["length"], wall))
        if cp["length"] < -TOL_S:
            fail("%s: negative critical path" % where)
        cp_sum = check_buckets("%s critpath" % where, cp["buckets"])
        if abs(cp_sum - cp["length"]) > TOL_S:
            fail("%s: critical-path buckets sum to %.12g, length %.12g"
                 % (where, cp_sum, cp["length"]))
        steps = cp["steps"]
        for a, b in zip(steps, steps[1:]):
            if abs(b["t0"] - a["t1"]) > TOL_S:
                fail("%s: critical-path gap between steps at %.12g -> %.12g"
                     % (where, a["t1"], b["t0"]))
        if steps:
            span = steps[-1]["t1"] - steps[0]["t0"]
            if abs(span - cp["length"]) > TOL_S:
                fail("%s: steps span %.12g != path length %.12g"
                     % (where, span, cp["length"]))

        # Optional per-world Lustre I/O summary.
        if "io" in w:
            check_io_block(where, w["io"])

    print("check_trace: OK: profile with %d worlds, %d rank profiles "
          "tiled (worst error %.3g s), critical paths bounded"
          % (len(worlds), ranks_checked, worst))
    return doc


HEARTBEAT_KEYS = {"kind", "seq", "wall_s", "sim_s", "events",
                  "events_per_s", "sim_rate", "queue_depth", "flows",
                  "rss_bytes"}
SUBSYSTEMS = {"engine", "net.rates", "obsv.export", "telemetry", "other"}


def check_telemetry(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as e:
                fail("%s line %d: not a JSON object: %s" % (path, i + 1, e))
    if not records or records[0].get("xtsim_telemetry") != 1:
        fail("%s: missing xtsim_telemetry start record" % path)
    if records[0].get("kind") != "start" or "schema" not in records[0]:
        fail("%s: malformed start record %r" % (path, records[0]))

    beats = [r for r in records if r.get("kind") == "heartbeat"]
    downs = [r for r in records if r.get("kind") == "breakdown"]
    if not beats:
        fail("%s: no heartbeat records (stop() emits a final one even "
             "for sub-period runs)" % path)
    if len(downs) != 1 or records[-1] is not downs[0]:
        fail("%s: expected exactly one trailing breakdown record, got %d"
             % (path, len(downs)))

    prev_wall, prev_events = -1.0, -1
    for b in beats:
        missing = HEARTBEAT_KEYS - set(b)
        if missing:
            fail("heartbeat %r missing keys %s" % (b.get("seq"),
                                                   sorted(missing)))
        if b["wall_s"] < prev_wall:
            fail("heartbeat wall_s went backwards: %r -> %r"
                 % (prev_wall, b["wall_s"]))
        if b["events"] < prev_events:
            fail("heartbeat events went backwards: %r -> %r"
                 % (prev_events, b["events"]))
        for k in ("sim_s", "events_per_s", "queue_depth", "flows",
                  "rss_bytes"):
            if b[k] < 0:
                fail("heartbeat %r: %s is negative" % (b["seq"], k))
        prev_wall, prev_events = b["wall_s"], b["events"]
    if not beats[-1].get("final"):
        fail("last heartbeat is not marked final")

    bd = downs[0]
    subs = bd.get("subsystems", {})
    if set(subs) != SUBSYSTEMS:
        fail("breakdown subsystems %s != expected %s"
             % (sorted(subs), sorted(SUBSYSTEMS)))
    if bd.get("wall_s", -1.0) <= 0.0:
        fail("breakdown wall_s %r not positive" % bd.get("wall_s"))
    share_sum = 0.0
    for name, v in subs.items():
        if v["s"] < 0 or v["share"] < 0:
            fail("breakdown %s negative: %r" % (name, v))
        share_sum += v["share"]
    # Tracked + derived-other shares tile the wall on one thread;
    # overlapping threads (sampler, sweep workers) can only push the
    # sum *up*, so the check is one-sided-tight below, loose above.
    if not 0.98 <= share_sum <= 1.5:
        fail("breakdown shares sum to %.6g, expected ~1" % share_sum)
    host = bd.get("host")
    if not isinstance(host, dict) or host.get("peak_rss_bytes", 0) <= 0:
        fail("breakdown host section malformed: %r" % host)

    print("check_trace: OK: telemetry stream with %d heartbeat(s), "
          "breakdown shares sum %.4g over %.4g s wall"
          % (len(beats), share_sum, bd["wall_s"]))


def sniff_telemetry(path):
    """True if the first line alone parses as the telemetry start
    record (a Chrome trace / profile JSON first line does not)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            first = json.loads(f.readline())
        return isinstance(first, dict) and first.get("xtsim_telemetry") == 1
    except (OSError, ValueError):
        return False


def check(path):
    if sniff_telemetry(path):
        return check_telemetry(path)
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict) and "xtsim_profile" in doc:
        # --profile= output: validate the profile schema instead.
        return check_profile(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("no traceEvents in %s" % path)
    summary = doc.get("xtsim")
    if not isinstance(summary, dict):
        fail("missing xtsim summary block")

    # --- per-message span breakdown ----------------------------------
    # Segments of one message share (pid, id); each "b" is immediately
    # followed by its "e" in emission order.
    open_b = {}
    segs = defaultdict(list)  # (pid, id) -> [(t0, t1, name)]
    for e in events:
        ph = e.get("ph")
        if ph not in ("b", "e"):
            continue
        key = (e["pid"], e["id"], e["name"])
        if ph == "b":
            if key in open_b:
                fail("nested begin for %r" % (key,))
            open_b[key] = e["ts"]
        else:
            if key not in open_b:
                fail("end without begin for %r" % (key,))
            t0 = open_b.pop(key)
            if e["ts"] < t0 - TOL_US:
                fail("negative duration for %r" % (key,))
            segs[(e["pid"], e["id"])].append((t0, e["ts"], e["name"]))
    if open_b:
        fail("%d unmatched begin events" % len(open_b))

    checked = 0
    worst = 0.0
    for (pid, mid), parts in segs.items():
        parts.sort()
        total = sum(t1 - t0 for t0, t1, _ in parts)
        window = parts[-1][1] - parts[0][0]
        err = abs(total - window)
        worst = max(worst, err)
        if err > TOL_US:
            names = [p[2] for p in parts]
            fail(
                "message %s in world %s: segments %s sum to %.9g us "
                "but the delivery window is %.9g us (err %.3g us)"
                % (mid, pid, names, total, window, err)
            )
        # Segments must be gapless: each starts where the previous ended.
        for (a0, a1, an), (b0, b1, bn) in zip(parts, parts[1:]):
            if abs(b0 - a1) > TOL_US:
                fail(
                    "message %s in world %s: gap between %s and %s "
                    "(%.9g us)" % (mid, pid, an, bn, b0 - a1)
                )
        checked += 1
    if checked == 0:
        fail("no traced messages found")

    # --- link byte conservation --------------------------------------
    worlds = summary.get("worlds", [])
    if not worlds:
        fail("xtsim block lists no worlds")
    for w in worlds:
        ej = w["ejection_bytes"]
        delivered = w["net_delivered"]
        tol = 1e-6 * max(1.0, abs(delivered))
        if abs(ej - delivered) > tol:
            fail(
                "world %s: ejection-link bytes %.9g != network delivered "
                "%.9g" % (w["world"], ej, delivered)
            )
        link_sum = sum(l["bytes"] for l in w["links"] if l["cls"] == "ej")
        if abs(link_sum - ej) > tol:
            fail(
                "world %s: per-link ejection sum %.9g != summary %.9g"
                % (w["world"], link_sum, ej)
            )

    print(
        "check_trace: OK: %d messages span-checked (worst error %.3g us), "
        "%d worlds byte-conserved, %d events"
        % (checked, worst, len(worlds), len(events))
    )


RUN_FLAGS = {"--run": "--trace=", "--run-profile": "--profile=",
             "--run-telemetry": "--telemetry="}


def check_io_run(trace_path, profile_path):
    """--run-io: the bench ran with both --trace= and --profile=.  On
    top of the generic checks, require the io.* span vocabulary in the
    trace and at least one world whose profile carries an io summary
    with nonzero io bucket time."""
    check(trace_path)
    doc = check_profile(profile_path)

    with open(trace_path, "r", encoding="utf-8") as f:
        trace = json.load(f)
    seen = {e["name"] for e in trace["traceEvents"]
            if e.get("ph") in ("b", "e")
            and str(e.get("name", "")).startswith("io.")}
    missing = IO_SPAN_NAMES - seen
    if missing:
        fail("trace has no %s spans (io names seen: %s)"
             % (sorted(missing), sorted(seen)))

    io_worlds = 0
    for w in doc["worlds"]:
        if "io" not in w:
            continue
        io_time = sum(sum(r["buckets"][b] for b in
                          ("io.xfer", "io.queue", "io.mds"))
                      for r in w["ranks"])
        if io_time <= 0:
            fail("world %s has an io summary but zero io bucket time"
                 % w["world"])
        io_worlds += 1
    if io_worlds == 0:
        fail("profile has no world with an io summary")
    print("check_trace: OK: io run: %d io span name(s) present, "
          "%d world(s) with io summaries and io bucket time"
          % (len(seen), io_worlds))


def main(argv):
    if len(argv) >= 2 and argv[1] == "--run-io":
        if len(argv) < 3:
            fail("--run-io needs a command")
        fd, tpath = tempfile.mkstemp(suffix=".json", prefix="xtstrace_")
        os.close(fd)
        fd, ppath = tempfile.mkstemp(suffix=".json", prefix="xtsprof_")
        os.close(fd)
        try:
            cmd = argv[2:] + ["--trace=" + tpath, "--profile=" + ppath]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                fail("bench exited with %d" % proc.returncode)
            check_io_run(tpath, ppath)
        finally:
            os.unlink(tpath)
            os.unlink(ppath)
        return
    if len(argv) >= 2 and argv[1] in RUN_FLAGS:
        if len(argv) < 3:
            fail("%s needs a command" % argv[1])
        flag = RUN_FLAGS[argv[1]]
        fd, path = tempfile.mkstemp(suffix=".json", prefix="xtstrace_")
        os.close(fd)
        try:
            cmd = argv[2:] + [flag + path]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                fail("bench exited with %d" % proc.returncode)
            check(path)
        finally:
            os.unlink(path)
    elif len(argv) == 2:
        check(argv[1])
    else:
        print(__doc__, file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main(sys.argv)
