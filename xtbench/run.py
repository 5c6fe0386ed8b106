#!/usr/bin/env python3
"""The simulator's benchmark: build xtbench from source, run one workload,
print one JSON result line.

    python3 xtbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 xtbench/run.py --self-test

Run from the repository root.  The C++ program (xtbench/*.cpp) is built
into .bench_build/xtbench on first use.  With --trace 0 the result holds
every end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric; the traced run also writes its spans to
.bench_build/xtbench/spans-<workload>-<seed>.json.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the lines before
it are informational (host and build stamp, output digest, fail ratio,
tail percentile, and in the traced run self time per layer and the
tracing overhead).  See xtbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xtbench")
BINARY = os.path.join(BUILD, "xtbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("xtbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure (once) and build the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to %s" % HERE, 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed: " + " ".join(cmd), 2)


def host_stamp(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    commit = "unknown"
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if p.returncode == 0:
            commit = p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if commit == "unknown":
        commit = "src-sha256:" + source_digest()[:12]
    return ("stamp: cpu=%s nproc=%d compiler=gcc-%s build=%s optimized=%s "
            "commit=%s" % (cpu, nproc, build_info["compiler"],
                           build_info["type"], build_info["optimized"],
                           commit))


def source_digest():
    """Digest of the simulator sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "xtbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_program(workload, seed, seconds, trace, tiny=False):
    """Run the built program once; returns its parsed JSON object."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--work-dir", work]
    if trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (workload, seed))]
    if tiny:
        cmd.append("--tiny")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("xtbench exceeded %d s on %s" % (RUN_TIMEOUT_S, workload))
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        fail("xtbench failed on %s (exit %d)" % (workload, p.returncode))
    out = json.loads(lines[-1])
    out["info"] = lines[:-1]
    return out


def result(out, wanted):
    """The benchmark's result object for the metrics named in `wanted`."""
    metrics = {}
    missing = []
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"] or got["value"] is None
                or not math.isfinite(got["value"])):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = out["failed"] == 0 and not missing
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}, missing


def measure(args):
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, names), 2)
    build()
    out = run_program(args.workload, args.seed, args.seconds, args.trace)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    res, missing = result(out, wanted)
    print(host_stamp(out["build"]))
    if not out["build"]["optimized"]:
        print("warning: xtbench was built without optimisation; "
              "timings are not comparable", file=sys.stderr)
    print("digest %s seed=%d: %s" % (args.workload, args.seed, out["digest"]))
    print("fail_ratio: %d/%d" % (out["failed"], out["attempted"]))
    for line in out["info"]:
        print(line)
    for f in out["failures"]:
        print("check failed: " + f)
    for name in missing:
        print("metric missing or malformed: " + name)
    print(json.dumps(res))


def self_test():
    """Tiny-size checks of the benchmark itself; exit status 0 = pass."""
    manifest = load_manifest()
    build()
    problems = []
    digests = {}
    for w in [w["name"] for w in manifest["workloads"]]:
        for trace, wanted in ((0, manifest["end_to_end"]),
                              (1, manifest["per_layer"])):
            out = run_program(w, 1, 1, trace, tiny=True)
            res, missing = result(out, wanted)
            problems += ["%s trace=%d: %s not printed with its unit"
                         % (w, trace, m) for m in missing]
            if res["failed"]:
                problems.append("%s trace=%d: fail_ratio %d/%d: %s" % (
                    w, trace, res["failed"], res["attempted"],
                    out["failures"][:2]))
            if trace == 0:
                digests[w] = out["digest"]
        again = run_program(w, 1, 1, 0, tiny=True)["digest"]
        if again != digests[w]:
            problems.append("%s: seed 1 gave digests %s and %s"
                            % (w, digests[w], again))
    other = run_program("alltoall_1k", 2, 1, 0, tiny=True)["digest"]
    if other == digests["alltoall_1k"]:
        problems.append("alltoall_1k: seeds 1 and 2 gave the same digest")
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark itself at tiny sizes")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    measure(args)


if __name__ == "__main__":
    main()
