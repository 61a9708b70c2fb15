#!/usr/bin/env python3
"""Print how many cactus isomorphism classes exist per (n, k), plus the
subpath-number range over each class.

    python scripts/census_table.py --n-max 9

Exits 2 when --n-max is below 1.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.census import census_rows, row_rings
from cactuspaths.counting import ring_path_count


def positive(text: str) -> int:
    """text as an integer of at least 1, else an argparse error."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one vertex, got {n}")
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=positive, default=9)
    args = parser.parse_args()

    print(f"{'n':>3} {'k':>3} {'classes':>8} {'pn min':>8} {'pn max':>8}")
    for n in range(1, args.n_max + 1):
        for k in range((n - 1) // 2 + 1):
            values = [ring_path_count(n, row_rings(n, row)) for row in census_rows(n, k)]
            print(f"{n:>3} {k:>3} {len(values):>8} {min(values):>8} {max(values):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
