#!/usr/bin/env python3
"""Run the extremal theorem checks over a grid of (n, k) classes and print
one line per check.

    python scripts/verify_extremal.py --pairs 6:2,7:2,8:2,8:3,9:3

Exits 0 when every check passes, 1 when one fails, and 2 on a malformed or
infeasible pair.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.extremal import verify_theorems


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """The n:k pairs of text; a malformed pair, or one with no cactus (n < 1,
    k < 0 or 2k + 1 > n), is an argparse error, before any census is built."""
    pairs = []
    for chunk in text.split(","):
        try:
            n, k = map(int, chunk.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed pair {chunk!r}; expected n:k") from None
        if n < 1 or k < 0 or 2 * k + 1 > n:
            raise argparse.ArgumentTypeError(f"no cacti with n={n} and k={k}")
        pairs.append((n, k))
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs",
        type=parse_pairs,
        default=[(5, 2), (6, 2), (7, 2), (8, 2), (7, 3), (8, 3), (9, 3)],
        help="comma-separated n:k pairs",
    )
    args = parser.parse_args()

    failed = 0
    for n, k in args.pairs:
        report = verify_theorems(n, k)
        for check in report.checks:
            if not check.applicable:
                status = "SKIP"
            elif check.passed:
                status = "PASS"
            else:
                status = "FAIL"
                failed += 1
            print(f"({n},{k}) {status:4s} {check.name}: {check.detail}")
    print(f"{'all checks passed' if not failed else f'{failed} checks FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
