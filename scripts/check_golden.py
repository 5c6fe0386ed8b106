#!/usr/bin/env python3
"""Golden-output gate: a bench's stdout must match a checked-in file
byte for byte.

The golden pins the simulated answers, not host facts, so run the
bench without --profile/--trace (those write files).  --metrics
appends its tables to stdout, some of them host facts; with
--scrub-host the host-fact blocks are dropped before the comparison
(the same scrub as scripts/check_determinism.py).  Any difference
prints a unified diff and fails.

Usage:
  check_golden.py --golden tests/golden/<bench>.quick.txt \\
      -- <bench binary> --quick --jobs=2
  check_golden.py --scrub-host \\
      --golden tests/golden/<bench>.metrics.quick.txt \\
      -- <bench binary> --quick --jobs=2 --metrics

To regenerate a golden after a deliberate model change, run the same
command line with stdout redirected to the golden file and update
EXPERIMENTS.md and results/ in the same change.
"""

import difflib
import subprocess
import sys

from check_determinism import scrub_stdout


def main(argv):
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
