#!/usr/bin/env python3
"""Print the PTC reconciliation table: exhaustive count vs. the two closed
forms, over a parameter grid.

    python scripts/reconcile_ptc.py --n-max 14 --k-max 5

Exits 1 if the count and the summation form disagree anywhere, and 2 when
the grid holds no PTC(n, k), which needs k >= 2 and n >= 2k + 1.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.formulas import RECONCILIATION_COLUMNS, reconciliation_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=14)
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=5)
    args = parser.parse_args()
    k_low = max(args.k_min, 2)
    if k_low > args.k_max or args.n_max < max(args.n_min, 2 * k_low + 1):
        parser.error("the grid holds no PTC(n, k): it needs k >= 2 and n >= 2k + 1")

    rows = reconciliation_rows(
        range(args.n_min, args.n_max + 1), range(args.k_min, args.k_max + 1)
    )
    writer = csv.DictWriter(
        sys.stdout, fieldnames=list(RECONCILIATION_COLUMNS), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    mismatches = [r for r in rows if r["oracle"] != r["summation"]]
    print(
        f"# {len(rows)} rows; oracle == summation on {len(rows) - len(mismatches)}",
        file=sys.stderr,
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
