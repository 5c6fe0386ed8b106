#!/usr/bin/env python3
"""Golden-output gate: a bench's stdout must match a checked-in file
byte for byte.

The golden pins the simulated answers, not host facts, so run the
bench without --metrics/--profile/--trace (those append host-dependent
blocks or write files).  Any difference prints a unified diff and
fails.

Usage:
  check_golden.py --golden tests/golden/<bench>.quick.txt \\
      -- <bench binary> --quick --jobs=2

To regenerate a golden after a deliberate model change, run the same
command line with stdout redirected to the golden file and update
EXPERIMENTS.md and results/ in the same change.
"""

import difflib
import subprocess
import sys


def main(argv):
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
    if run.stdout == want:
        print(f"check_golden: OK: {golden_path} ({len(want)} bytes)")
        return 0
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        run.stdout.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path, tofile="stdout")
    sys.stdout.writelines(diff)
    print(f"check_golden: FAIL: stdout differs from {golden_path}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
