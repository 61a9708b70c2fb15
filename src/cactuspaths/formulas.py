"""Closed-form subpath counts for trees, cycles, unicyclic graphs, connected
graphs, and the extremal cactus families.

Two evaluators exist for the pseudo-triangle-chain maximum.  The summation
over pairs of cycles, in closed form (ptc_summation), agrees with exhaustive
path enumeration and is the value used throughout the package.  The fully
simplified expression as printed (ptc_printed) does not: it overshoots by 16
for odd n and by 33/2 for even n, from two misprinted constants.  It is kept,
as an exact rational, only for the reconciliation report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial


def tree_path_count(n: int) -> int:
    """Subpath number of any tree on n vertices: C(n+1, 2)."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    return comb(n + 1, 2)


def cycle_path_count(n: int) -> int:
    """Subpath number of the cycle C_n: n^2."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return n * n


def unicyclic_path_count(n: int, parts: list[int]) -> int:
    """Subpath number of a unicyclic graph from its cycle-deletion profile.

    parts lists, per cycle vertex, the size of the component left after all
    cycle edges are removed; the value is n + 2*C(n,2) - sum C(part, 2).
    """
    if len(parts) < 3:
        raise ValueError("the cycle must have at least three vertices")
    if any(p < 1 for p in parts):
        raise ValueError("every component contains its cycle vertex")
    if sum(parts) != n:
        raise ValueError(f"components must cover all {n} vertices")
    return n + 2 * comb(n, 2) - sum(comb(p, 2) for p in parts)


def connected_graph_bounds(n: int) -> tuple[int, int]:
    """Attained bounds for the subpath number of connected graphs on n
    vertices: trees give the minimum C(n+1,2) and K_n the maximum.

    With length-0 paths included the tree value is C(n,2) + n, which is the
    lower bound this package asserts; C(n,2) alone is a valid but unattained
    bound under this convention.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    lower = comb(n + 1, 2)
    total = sum(factorial(n) // factorial(i) for i in range(n)) + n
    if total % 2:
        raise AssertionError("complete-graph path count must be an integer")
    return lower, total // 2


@dataclass(frozen=True)
class PtcShape:
    """End-cycle lengths of the pseudo triangle chain PTC(n, k)."""

    n: int
    k: int
    n1: int
    n2: int


def ptc_shape(n: int, k: int) -> PtcShape:
    if k < 2:
        raise ValueError("PTC needs at least two cycles")
    if n < 2 * k + 1:
        raise ValueError(f"PTC({n},{k}) needs n >= {2 * k + 1}")
    rest = n - 2 * k + 5
    n1 = (rest + 1) // 2
    n2 = rest // 2
    assert n1 + n2 == rest and n1 - n2 in (0, 1) and n2 >= 3
    return PtcShape(n, k, n1, n2)


def ptc_summation(n: int, k: int) -> int:
    """Subpath number of PTC(n, k), in O(1) big-integer operations.

    Pairs in cycles i..j contribute 2^(j-i+1) paths each.  Grouped by how
    far apart the two cycles sit, those terms are geometric sums, which
    with P = 2^k and the end-cycle lengths n1, n2 total

        (n1-1)(n2-1)P + 2(n1+n2-2)(P-4) + 4P - 16k + 16 + n1^2 + n2^2 + 8k - 17.

    The function keeps the name and signature it had when it added the terms
    one by one; the tests keep that sum as its oracle.
    """
    shape = ptc_shape(n, k)
    n1, n2 = shape.n1, shape.n2
    p = 2**k
    return (
        (n1 - 1) * (n2 - 1) * p
        + 2 * (n1 + n2 - 2) * (p - 4)
        + 4 * p - 16 * k + 16
        + n1 * n1 + n2 * n2 + 8 * k - 17
    )


def ptc_delta(n: int, k: int) -> int:
    """Parity correction used by the printed PTC expression."""
    if k < 2:
        raise ValueError("delta is defined for k >= 2")
    return 0 if n % 2 else 1 - 2 ** (k - 2)


def ptc_printed(n: int, k: int) -> Fraction:
    """The fully simplified PTC expression, exactly as printed.

    Returned as an exact rational because the value is half-integral for
    even n; see the module docstring.  For reconciliation only - use
    ptc_summation for the real count.
    """
    ptc_shape(n, k)  # validate the domain
    head = (n * n - 4 * k * n + 14 * n + 4 * k * k - 28 * k + 49) * 2 ** (k - 2)
    tail = Fraction(n * n - 4 * k * n - 6 * n + 4 * k * k - 4 * k + 7, 2)
    return head + tail + ptc_delta(n, k)


def min_cactus_path_count(n: int, k: int) -> int:
    """Minimum subpath number over cacti with n vertices and k cycles:
    2k^2 + 2kn - 5k + (n^2 + n)/2, attained exactly by the end-triangle
    cacti."""
    if k < 0:
        raise ValueError("cycle count must be non-negative")
    if n < 2 * k + 1:
        raise ValueError(f"n={n} is too small for {k} vertex-disjoint triangles")
    return 2 * k * k + 2 * k * n - 5 * k + (n * n + n) // 2


def cactus_path_bounds(n: int, k: int) -> tuple[int, int]:
    """(min, max) subpath number over cacti with n vertices and k >= 2
    cycles; the maximum uses the oracle-backed summation form."""
    if k < 2:
        raise ValueError("bounds are stated for k >= 2")
    return min_cactus_path_count(n, k), ptc_summation(n, k)


RECONCILIATION_COLUMNS = ("n", "k", "oracle", "summation", "printed", "printed_minus_summation")


def reconciliation_rows(
    n_range, k_range, budget: int | None = None
) -> list[dict[str, str]]:
    """Rows comparing the oracle, the summation form, and the printed form
    of the PTC count over a parameter grid.  Values are decimal strings
    (rationals as 'p/q')."""
    from .counting import count_paths
    from .families import pseudo_triangle_chain

    rows = []
    for n in n_range:
        for k in k_range:
            if k < 2 or n < 2 * k + 1:
                continue
            oracle = count_paths(pseudo_triangle_chain(n, k), budget=budget)
            summation = ptc_summation(n, k)
            printed = ptc_printed(n, k)
            rows.append(
                {
                    "n": str(n),
                    "k": str(k),
                    "oracle": str(oracle),
                    "summation": str(summation),
                    "printed": str(printed),
                    "printed_minus_summation": str(printed - summation),
                }
            )
    return rows
