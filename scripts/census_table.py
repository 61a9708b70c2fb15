#!/usr/bin/env python3
"""Print how many cactus isomorphism classes exist per (n, k), plus the
subpath-number range over each class.

    python scripts/census_table.py --n-max 9
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.census import census_with_rings, centred_rings
from cactuspaths.counting import ring_path_count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=9)
    args = parser.parse_args()

    print(f"{'n':>3} {'k':>3} {'classes':>8} {'pn min':>8} {'pn max':>8}")
    for n in range(1, args.n_max + 1):
        for k in range((n - 1) // 2 + 1):
            _, rings = census_with_rings(n, k)
            values = [ring_path_count(n, centred_rings(n, r)) for r in rings]
            print(f"{n:>3} {k:>3} {len(values):>8} {min(values):>8} {max(values):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
