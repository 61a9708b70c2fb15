#!/usr/bin/env python3
"""Run both fixpoint drivers on seeded, relabelled random cacti and print one
JSON line per graph.

Each line checks the paper's two characterizations far beyond the census:
maximizing ends at a cactus chain with pn equal to ptc_summation(n, k), and
minimizing ends at an end-triangle cactus with pn equal to
min_cactus_path_count(n, k).  k is drawn from 2..(n - 1) // 2.  The exit
code is 1 if any check fails, and 2 on --n below 5 or --count below 1.

    python scripts/verify_rewrites.py --n 1000 --count 50 --seed 1
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cactuspaths.census import random_cactus
from cactuspaths.counting import cactus_path_count
from cactuspaths.extremal import is_end_triangle_cactus
from cactuspaths.formulas import min_cactus_path_count, ptc_summation
from cactuspaths.graphs import is_cactus_chain, validate_cactus
from cactuspaths.transforms import maximize_to_fixpoint, minimize_to_fixpoint


def run(driver, g):
    start = time.perf_counter()
    final, history = driver(g)
    seconds = time.perf_counter() - start
    profile = validate_cactus(final)
    return profile, cactus_path_count(profile), len(history), seconds


def positive(text: str) -> int:
    """text as an integer of at least 1, else an argparse error."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least one cactus, got {count}")
    return count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000, help="vertices per cactus (at least 5)")
    parser.add_argument("--count", type=positive, default=50, help="number of cacti")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.n < 5:
        parser.error("--n must be at least 5, so that k = 2 fits")

    rng = random.Random(args.seed)
    failed = 0
    for i in range(args.count):
        n = args.n
        k = rng.randrange(2, (n - 1) // 2 + 1)
        g = random_cactus(n, k, rng).relabel(rng.sample(range(n), n))
        top, top_pn, top_steps, top_s = run(maximize_to_fixpoint, g)
        low, low_pn, low_steps, low_s = run(minimize_to_fixpoint, g)
        checks = {
            "max_pn_is_ptc_summation": top_pn == ptc_summation(n, k),
            "max_is_chain": is_cactus_chain(top),
            "min_pn_is_min_cactus_path_count": low_pn == min_cactus_path_count(n, k),
            "min_is_end_triangle_cactus": is_end_triangle_cactus(low),
        }
        failed += not all(checks.values())
        print(
            json.dumps(
                {
                    "graph": i,
                    "n": n,
                    "k": k,
                    **checks,
                    "max_steps": top_steps,
                    "max_s": round(top_s, 3),
                    "min_steps": low_steps,
                    "min_s": round(low_s, 3),
                }
            ),
            flush=True,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
