"""Count the rigidity readings on valid graphs at the ends of the float range.

    python -W error tests/float_range_counts.py [--n 300]

Draws ``builders.float_range_graph(default_rng(5))`` until ``--n`` valid
graphs are in hand, and runs ``run_all`` and the seven rigidity checkers on
each, in process.  It prints one row per theorem: how many reports read
``consistent: false``, ``null`` and ``true``, how many calls raise
``NotApplicable``, and how many of the theorem's ``run_all`` certificates
read ``FailsAt`` (the two corollaries have no certificate of their own).

It exits 2 when some report reads ``consistent: false`` or some certificate
``FailsAt``: theorems the paper proves, read wrongly near the float range's
ends.  Any other exception escapes, and the interpreter exits 1 with its
traceback; under ``-W error`` so does any warning.  Otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphspec.comparisons import run_all  # noqa: E402
from graphspec.graph import NotApplicable  # noqa: E402
from graphspec.rigidity import ALL_RIGIDITY  # noqa: E402

from builders import float_range_graph  # noqa: E402

COLUMNS = ("consistent: false", "null", "true", "NotApplicable", "FailsAt")
_READING = {False: "consistent: false", None: "null", True: "true"}


def count(n: int) -> tuple[dict, int]:
    """Per theorem, the count of each of ``COLUMNS`` on the first ``n`` valid
    draws, and the number of draws that took."""
    counts = {theorem: Counter() for theorem in ALL_RIGIDITY}
    rng = np.random.default_rng(5)
    valid = draws = 0
    while valid < n:
        graph = float_range_graph(rng)
        draws += 1
        if graph is None:
            continue
        valid += 1
        for cert in run_all(graph):
            counts[cert.theorem_id]["FailsAt"] += not cert.holds
        for theorem, check in ALL_RIGIDITY.items():
            try:
                counts[theorem][_READING[check(graph).consistent]] += 1
            except NotApplicable:
                counts[theorem]["NotApplicable"] += 1
    return counts, draws


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=300, help="valid graphs to draw (300)")
    args = parser.parse_args(argv)
    counts, draws = count(args.n)
    print(f"the first {args.n} valid graphs of float_range_graph(default_rng(5)) "
          f"took {draws} draws")
    print("| theorem | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for theorem, counter in counts.items():
        print(f"| {theorem} | " + " | ".join(str(counter[c]) for c in COLUMNS) + " |")
    wrong = sum(c["consistent: false"] + c["FailsAt"] for c in counts.values())
    return 2 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
