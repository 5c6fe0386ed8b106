#!/usr/bin/env python3
"""CLI contract test for tools/xtstrace.

Usage: xtstrace_cli_test.py <python> <xtstrace> <bench>

Runs <bench> --quick once each with --trace, --profile and
--telemetry, then checks that every subcommand works on the right file
kind and that the tool exits nonzero (with a diagnostic) on unknown
subcommands, missing files, malformed JSON, and files of the wrong
kind.  A --cache-dir run then checks the cache subcommand: every entry
the bench wrote parses as ok, a truncated entry reads as corrupt, an
entry of another schema reads as stale, an intact entry copied to
another key's file name reads as a corrupt key mismatch, and an empty
directory is an error.  The tool's CACHE_SCHEMA_VERSION must equal
cache::kSchemaVersion.
"""

import os
import re
import subprocess
import sys
import tempfile

failures = []


def run(args, **kw):
    return subprocess.run(args, capture_output=True, text=True, **kw)


def expect(name, proc, rc_ok, needle=None, stream="stdout"):
    ok = (proc.returncode == 0) if rc_ok else (proc.returncode != 0)
    text = proc.stdout if stream == "stdout" else proc.stderr
    if ok and needle is not None and needle not in text:
        ok = False
        why = "missing %r in %s" % (needle, stream)
    else:
        why = "exit code %d" % proc.returncode
    status = "ok" if ok else "FAIL"
    print("%-38s %s (%s)" % (name, status, why))
    if not ok:
        failures.append(name)
        sys.stderr.write(proc.stdout + proc.stderr)


def check_schema_constant(xtstrace):
    """The tool's stale test compares against a copy of kSchemaVersion."""
    def grab(path, pattern):
        with open(path, encoding="utf-8") as f:
            m = re.search(pattern, f.read(), re.M)
        return int(m.group(1)) if m else None
    hpp = os.path.join(os.path.dirname(os.path.abspath(xtstrace)), os.pardir,
                       "src", "cache", "fingerprint.hpp")
    want = grab(hpp, r"kSchemaVersion\s*=\s*(\d+)\s*;")
    got = grab(xtstrace, r"^CACHE_SCHEMA_VERSION\s*=\s*(\d+)")
    ok = want is not None and got == want
    print("%-38s %s (kSchemaVersion %s, tool %s)"
          % ("cache schema constant", "ok" if ok else "FAIL", want, got))
    if not ok:
        failures.append("cache schema constant")


def main():
    if len(sys.argv) != 4:
        sys.exit("usage: xtstrace_cli_test.py <python> <xtstrace> <bench>")
    python, xtstrace, bench = sys.argv[1:4]
    xts = [python, xtstrace]
    check_schema_constant(xtstrace)

    with tempfile.TemporaryDirectory(prefix="xtstrace_cli_") as tmp:
        trace = os.path.join(tmp, "trace.json")
        profile = os.path.join(tmp, "profile.json")
        telemetry = os.path.join(tmp, "telemetry.jsonl")
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write("{not json")
        for flag, path in (("--trace=", trace), ("--profile=", profile),
                           ("--telemetry=", telemetry)):
            proc = run([bench, "--quick", flag + path])
            if proc.returncode != 0:
                sys.exit("bench failed with %s: %s"
                         % (flag, proc.stderr[-500:]))

        # Right subcommand on the right file kind.
        expect("summary on trace", run(xts + ["summary", trace]), True,
               "worlds:")
        expect("top-links on trace", run(xts + ["top-links", trace]),
               True, "cls")
        expect("profile on profile", run(xts + ["profile", profile]), True,
               "scores:")
        expect("critpath on profile", run(xts + ["critpath", profile]),
               True, "critical path")
        expect("matrix on profile", run(xts + ["matrix", profile]), True,
               "src")
        expect("telemetry on telemetry",
               run(xts + ["telemetry", telemetry]), True, "breakdown")

        # Error contract: nonzero exit plus a diagnostic.
        expect("unknown subcommand", run(xts + ["frobnicate", trace]),
               False)
        expect("no arguments", run(xts), False)
        expect("missing file",
               run(xts + ["summary", os.path.join(tmp, "nope.json")]),
               False)
        expect("malformed json", run(xts + ["profile", bad]), False)
        expect("profile cmd on trace file", run(xts + ["profile", trace]),
               False)
        expect("trace cmd on profile file", run(xts + ["summary", profile]),
               False)
        expect("telemetry cmd on trace file",
               run(xts + ["telemetry", trace]), False)
        expect("trace cmd on telemetry file",
               run(xts + ["summary", telemetry]), False)
        expect("telemetry cmd missing file",
               run(xts + ["telemetry", os.path.join(tmp, "nope.jsonl")]),
               False)

    with tempfile.TemporaryDirectory(prefix="xtstrace_cache_") as tmp:
        store = os.path.join(tmp, "store")
        proc = run([bench, "--quick", "--cache-dir=" + store])
        if proc.returncode != 0:
            sys.exit("bench failed with --cache-dir=: %s" % proc.stderr[-500:])
        entries = sorted(n for n in os.listdir(store) if n.endswith(".xtsc"))
        if not entries:
            sys.exit("bench wrote no cache entries under %s" % store)
        n = len(entries)
        expect("cache on fresh store", run(xts + ["cache", store]), True,
               "%d ok, 0 stale, 0 corrupt" % n)
        victim = os.path.join(store, entries[0])
        with open(victim, "rb") as f:
            raw = f.read()
        with open(victim, "wb") as f:
            f.write(raw[:len(raw) - 1])
        expect("cache on truncated entry", run(xts + ["cache", store]), True,
               "%d ok, 0 stale, 1 corrupt" % (n - 1))
        if n < 3:
            sys.exit("bench wrote %d cache entries; the checks below need 3"
                     % n)
        # Byte 8 is the low byte of the header's schema version.
        stale = os.path.join(store, entries[1])
        with open(stale, "r+b") as f:
            f.seek(8)
            f.write(b"\xff")
        expect("cache on stale-schema entry", run(xts + ["cache", store]),
               True, "%d ok, 1 stale, 1 corrupt" % (n - 2))
        # cache::Store reads an entry whose header key is not its file
        # name as corrupt, so an intact copy under another name is too.
        moved = os.path.join(store, "0" * 32 + ".xtsc")
        if os.path.exists(moved):
            sys.exit("bench wrote an entry named %s" % moved)
        with open(os.path.join(store, entries[-1]), "rb") as f:
            raw = f.read()
        with open(moved, "wb") as f:
            f.write(raw)
        proc = run(xts + ["cache", store])
        expect("cache on copied entry", proc, True,
               "%d ok, 1 stale, 2 corrupt" % (n - 2))
        expect("cache names the key mismatch", proc, True, "key mismatch")
        empty = os.path.join(tmp, "empty")
        os.mkdir(empty)
        expect("cache on empty dir", run(xts + ["cache", empty]), False)

    if failures:
        sys.exit("xtstrace_cli_test: %d check(s) failed: %s"
                 % (len(failures), ", ".join(failures)))
    print("xtstrace_cli_test: OK")


if __name__ == "__main__":
    main()
