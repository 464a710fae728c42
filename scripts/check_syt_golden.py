#!/usr/bin/env python3
"""Compare the characters of both modes with a golden file, byte for byte.

    python scripts/check_syt_golden.py tests/golden/syt6_reduced.txt

The golden holds pairs of lines: ``syt [b2, ..., bn]`` and the ``str`` of
the reduced rational function of ``superpoly_jm([b2, ..., bn])``.  That
string does not depend on the mode, so every pair is checked against the
tableau sum and against the residue sum.  Prints one line per character
and mode with its time, and exits 1 on a mismatch.  The 6-box golden
takes seconds, so CI runs it through this script rather than in the
tier-1 suite.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from knotmf.localization import superpoly_jm


def main(path: str) -> int:
    lines = Path(path).read_text().splitlines()
    status = 0
    for head, want in zip(lines[::2], lines[1::2]):
        jm = json.loads(head.removeprefix("syt "))
        for mode in ("syt", "residue"):
            start = time.perf_counter()
            ok = str(superpoly_jm(jm, mode=mode).reduced) == want
            status |= not ok
            print(f"{head} {mode}: {'ok' if ok else 'MISMATCH'} "
                  f"({time.perf_counter() - start:.2f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
