#!/usr/bin/env python3
"""Golden-output gate: a bench's stdout must match a checked-in file
byte for byte.

The golden pins the simulated answers, not host facts, so run the
bench without --profile/--trace (those write files).  --metrics
appends its tables to stdout, some of them host facts; with
--scrub-host the host-fact blocks are dropped before the comparison
(the same scrub as scripts/check_determinism.py).  Any difference
prints a unified diff and fails.

--digest ties the goldens to the cache schema: it hashes tests/golden/
(sorted file names and their bytes) and compares the hash with the one
recorded below for the current cache::kSchemaVersion, read from
src/cache/fingerprint.hpp.  A golden therefore cannot change unless
kSchemaVersion is bumped (so stored cache entries of the old answers
stop hitting) and the new digest is recorded in GOLDEN_DIGESTS.

Usage:
  check_golden.py --golden tests/golden/<bench>.quick.txt \\
      -- <bench binary> --quick --jobs=2
  check_golden.py --scrub-host \\
      --golden tests/golden/<bench>.metrics.quick.txt \\
      -- <bench binary> --quick --jobs=2 --metrics
  check_golden.py --digest tests/golden src/cache/fingerprint.hpp

To regenerate a golden after a deliberate model change, run the same
command line with stdout redirected to the golden file and update
EXPERIMENTS.md and results/ in the same change.
"""

import difflib
import hashlib
import os
import re
import subprocess
import sys

from check_determinism import scrub_stdout

# cache::kSchemaVersion -> SHA-256 of tests/golden/ (golden_digest).
GOLDEN_DIGESTS = {
    1: "de88065af6c80b17d5bc53a55955219df4e70f07b5afec9aaad90a08b3b38844",
}


def golden_digest(golden_dir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(golden_dir)):
        with open(os.path.join(golden_dir, name), "rb") as f:
            data = f.read()
        h.update(b"%s\0%d\0" % (name.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def check_digest(golden_dir, fingerprint_hpp):
    with open(fingerprint_hpp, encoding="utf-8") as f:
        m = re.search(r"kSchemaVersion\s*=\s*(\d+)\s*;", f.read())
    if m is None:
        print(f"check_golden: FAIL: no kSchemaVersion in {fingerprint_hpp}",
              file=sys.stderr)
        return 1
    schema = int(m.group(1))
    got = golden_digest(golden_dir)
    want = GOLDEN_DIGESTS.get(schema)
    if got == want:
        print(f"check_golden: OK: {golden_dir} matches kSchemaVersion "
              f"{schema} ({got})")
        return 0
    if want is None:
        print(f"check_golden: FAIL: kSchemaVersion {schema} has no recorded "
              f"golden digest; record {got} in GOLDEN_DIGESTS.",
              file=sys.stderr)
    else:
        print(f"check_golden: FAIL: {golden_dir} hashes to {got}, but "
              f"kSchemaVersion {schema} records {want}.  A golden changed: "
              "bump kSchemaVersion and record the new digest in "
              "GOLDEN_DIGESTS.", file=sys.stderr)
    return 1


def main(argv):
    if argv[:1] == ["--digest"] and len(argv) == 3:
        return check_digest(argv[1], argv[2])
    scrub_host = argv[:1] == ["--scrub-host"]
    if scrub_host:
        argv = argv[1:]
    if len(argv) < 4 or argv[0] != "--golden" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    golden_path, cmd = argv[1], argv[3:]
    with open(golden_path, "rb") as f:
        want = f.read()
    run = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
    if run.returncode != 0:
        print(f"check_golden: FAIL: {cmd[0]} exited {run.returncode}",
              file=sys.stderr)
        return 1
    got = run.stdout
    if scrub_host:
        got = scrub_stdout(got.decode()).encode()
    if got == want:
        print(f"check_golden: OK: {golden_path} ({len(want)} bytes)")
        return 0
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path, tofile="stdout")
    sys.stdout.writelines(diff)
    print(f"check_golden: FAIL: stdout differs from {golden_path}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
