#!/usr/bin/env python3
"""Compare tableau-mode characters with a golden file, byte for byte.

    python scripts/check_syt_golden.py tests/golden/syt6_reduced.txt

The golden holds pairs of lines: ``syt [b2, ..., bn]`` and the ``str`` of
the reduced rational function of ``superpoly_jm([b2, ..., bn], "syt")``.
Prints one line per character with its time and exits 1 on a mismatch.
The 6-box golden takes seconds, so CI runs it through this script
rather than in the tier-1 suite.
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
        start = time.perf_counter()
        got = str(superpoly_jm(jm, mode="syt").reduced)
        ok = got == want
        status |= not ok
        print(f"{head}: {'ok' if ok else 'MISMATCH'} "
              f"({time.perf_counter() - start:.2f} s)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
