#!/usr/bin/env python3
"""Print how many cactus isomorphism classes exist per (n, k), plus the
subpath-number range over each class.

    python scripts/census_table.py --n-max 9
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.census import census_in_generation_order
from cactuspaths.counting import cactus_path_count
from cactuspaths.graphs import validate_cactus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=9)
    args = parser.parse_args()

    print(f"{'n':>3} {'k':>3} {'classes':>8} {'pn min':>8} {'pn max':>8}")
    for n in range(1, args.n_max + 1):
        for k in range((n - 1) // 2 + 1):
            census = census_in_generation_order(n, k)
            values = [cactus_path_count(validate_cactus(g)) for g in census]
            print(f"{n:>3} {k:>3} {len(census):>8} {min(values):>8} {max(values):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
