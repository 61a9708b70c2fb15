"""Extremal sweeps over cactus censuses and the theorem checks built on
them: which graphs attain the min / max of the subpath number, the Wiener
index, and the subtree number in each class."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ._record import Record
from .census import _RowGraphs, canonical_key, census_rows, checked_rings, keyed_census
from .families import (
    balanced_saw,
    cycle_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
)
from .formulas import min_cactus_path_count, ptc_summation, tree_path_count
from .graphs import CactusProfile, Graph, Rings, validate_cactus
from .indices import ring_counters

INVARIANTS = tuple(ring_counters())


def _known(invariants: tuple[str, ...]) -> tuple[str, ...]:
    """The named invariants, each once and in the order first named; raises
    ValueError on an unknown name, before any census is built."""
    for invariant in invariants:
        if invariant not in INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}; choose from {INVARIANTS}")
    return tuple(dict.fromkeys(invariants))


def _evaluate(
    n: int, k: int, rows: Iterable[bytes], passes: dict[str, Callable[[int, Rings], int]]
) -> dict[str, list[int]]:
    """Every pass of passes (a ring counter, or _end_triangle) over every
    census class, by name, each class read once from its census row as hung
    rings (checked_rings), with no graph and no block-cut tree built."""
    values: dict[str, list[int]] = {name: [] for name in passes}
    for rings in checked_rings(n, k, rows):
        for name, run in passes.items():
            values[name].append(run(n, rings))
    return values


class ArgEntry(Record):
    key: bytes
    graph: Graph


class ExtremalReport(Record):
    n: int
    k: int
    invariant: str
    min_value: int
    max_value: int
    argmin: tuple[ArgEntry, ...]
    argmax: tuple[ArgEntry, ...]
    census: Sequence[Graph]  # _RowGraphs
    values: tuple[int, ...]  # values[i] is the invariant of census[i]
    keys: tuple[bytes, ...]  # keys[i] is canonical_key(census[i])

    @property
    def census_size(self) -> int:
        return len(self.census)

    @property
    def argmin_keys(self) -> frozenset[bytes]:
        return frozenset(e.key for e in self.argmin)

    @property
    def argmax_keys(self) -> frozenset[bytes]:
        return frozenset(e.key for e in self.argmax)


def extremal_sweep(
    n: int,
    k: int,
    invariant: str,
    guard: int | None = None,
) -> ExtremalReport:
    """Evaluate one invariant over the whole census of cacti with n vertices
    and k cycles and report the extremes with their complete argmin/argmax
    sets."""
    _known((invariant,))
    keys, rows = keyed_census(n, k, guard)  # in enumerate_cacti's order
    census = _RowGraphs(n, rows)
    values = _evaluate(n, k, rows, {invariant: ring_counters()[invariant]})[invariant]
    lo, hi = min(values), max(values)
    argmin, argmax = (
        tuple(ArgEntry(keys[i], census[i]) for i, v in enumerate(values) if v == extreme)
        for extreme in (lo, hi)
    )
    return ExtremalReport(n, k, invariant, lo, hi, argmin, argmax, census, tuple(values), keys)


def sweep_rows(report: ExtremalReport) -> list[dict[str, str]]:
    """CSV rows for one sweep: every census class with its value and
    argmin/argmax membership."""
    rows = []
    for g, value, key in zip(report.census, report.values, report.keys):
        rows.append(
            {
                "canonical_key": key.hex(),
                "value": str(value),
                "is_argmin": str(value == report.min_value).lower(),
                "is_argmax": str(value == report.max_value).lower(),
                "representative_edges": ";".join(f"{u}-{v}" for u, v in g.sorted_edges),
            }
        )
    return rows


SWEEP_COLUMNS = ("canonical_key", "value", "is_argmin", "is_argmax", "representative_edges")


def is_end_triangle_cactus(profile: CactusProfile) -> bool:
    """Every cycle is a triangle with at most one vertex of degree > 2."""
    return _end_triangle(profile.graph.n, [b.vertices for b in profile.tree.blocks])


def _end_triangle(n: int, rings: Sequence[Sequence[int]]) -> bool:
    """is_end_triangle_cactus of the cactus on vertices 0..n-1 whose blocks
    are rings: every cycle ring is a triangle with at most one vertex that
    lies on two or more rings, which on a cactus are the vertices of degree
    > 2 on a cycle."""
    on = [0] * n  # the rings each vertex lies on
    for ring in rings:
        for v in ring:
            on[v] += 1
    return all(
        len(ring) == 3 and sum(on[v] > 1 for v in ring) <= 1 for ring in rings if len(ring) > 2
    )


class Check(Record):
    name: str
    applicable: bool
    passed: bool | None
    detail: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "applicable": self.applicable,
            "passed": self.passed,
            "detail": self.detail,
        }


class VerificationReport(Record):
    n: int
    k: int
    checks: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "checks": [c.to_json() for c in self.checks],
            "all_passed": self.all_passed,
        }


def _pfg_and_ties(n: int, k: int, invariant, key) -> tuple[set[bytes], str]:
    """The keys, computed by key, of the classes expected at PFG(n, k)'s
    extreme of an invariant, and a detail suffix naming any tie: at k = 1
    the cycle C_n joins when it is another class with PFG(n, 1)'s value (the
    Wiener index at n = 4, 5, the subtree number at n = 4)."""
    pfg = pseudo_friendship(n, k)
    keys = {key(pfg)}
    if k == 1:
        cycle = cycle_graph(n)
        ck = key(cycle)
        cycle_value, pfg_value = (
            invariant(n, validate_cactus(g).tree.rooted.rings) for g in (cycle, pfg)
        )
        if ck not in keys and cycle_value == pfg_value:
            return keys | {ck}, f"; C_{n} ties PFG({n}, 1)"
    return keys, ""


def verify_theorems(
    n: int,
    k: int,
    invariants: tuple[str, ...] = INVARIANTS,
    guard: int | None = None,
) -> VerificationReport:
    """Check the extremal characterizations on the (n, k) census.

    pn: unique max is PTC (k >= 2) or the cycle (k = 1); the min is attained
    exactly by the end-triangle cacti at the closed-form value.
    wiener / subtrees: PFG is the unique min / max, with the cycle beside it
    at k = 1 where the two tie; BSG, when it exists (k >= 2 and
    n >= 2k + 2), is the unique max / min.  Plus the
    non-correlation facts: the pn maximizer differs from the Wiener
    maximizer and the pn minimizers strictly contain the Wiener minimizer.
    """
    checks: list[Check] = []
    invariants = _known(invariants)
    # the checks compare sets of classes, so the census need not be sorted;
    # a census holds one row per class, so two sets of its classes compare
    # by census index, and a class is built and keyed only where it is
    # compared with a named family
    census = _RowGraphs(n, census_rows(n, k, guard=guard) if invariants else ())
    counters = ring_counters()
    passes = {inv: counters[inv] for inv in invariants}
    if "pn" in invariants and k >= 1:  # the pn minimum is compared with these
        passes["end_triangle"] = _end_triangle
    values = _evaluate(n, k, census.rows, passes)
    keys: dict[Graph, bytes] = {}

    def key(g: Graph) -> bytes:
        """canonical_key(g), computed once per call for each graph compared,
        a census class or a named family alike."""
        if g not in keys:
            keys[g] = canonical_key(g)
        return keys[g]

    def keys_at(at: list[int]) -> set[bytes]:
        return {key(census[i]) for i in at}

    def side(inv: str, name: str) -> tuple[int, list[int], str]:
        """One side ("min" or "max") of an invariant: its value, the census
        indices of the classes that attain it, and a detail naming both."""
        value = min(values[inv]) if name == "min" else max(values[inv])
        at = [i for i, v in enumerate(values[inv]) if v == value]
        return value, at, f"{name} {value} attained by {len(at)} class(es)"

    bsg_defined = k >= 2 and n >= 2 * k + 2

    if "pn" in invariants and k == 0:
        value = tree_path_count(n)
        constant = min(values["pn"]) == max(values["pn"]) == value
        checks.append(
            Check("pn_trees_constant", True, constant, f"all {len(census)} trees have pn {value}")
        )
    if "pn" in invariants and k >= 1:
        top, at, detail = side("pn", "max")
        if k == 1:
            name, ok = "pn_max_is_cycle", keys_at(at) == {key(cycle_graph(n))}
        else:
            name = "pn_max_is_ptc"
            ok = keys_at(at) == {key(pseudo_triangle_chain(n, k))} and top == ptc_summation(n, k)
        checks.append(Check(name, True, ok, detail))
        end_triangle = [i for i, flag in enumerate(values["end_triangle"]) if flag]
        low, at, detail = side("pn", "min")
        ok = at == end_triangle and low == min_cactus_path_count(n, k)
        detail += f"; {len(end_triangle)} end-triangle class(es)"
        checks.append(Check("pn_min_is_end_triangle_family", True, ok, detail))

    # PFG and BSG sit at opposite extremes of the Wiener index and of the subtree number
    for inv, pfg_side, bsg_side in (("wiener", "min", "max"), ("subtrees", "max", "min")):
        if inv not in invariants:
            continue
        _, at, detail = side(inv, pfg_side)
        pfg_ok, tie = None, ""
        if k >= 1:
            expected, tie = _pfg_and_ties(n, k, counters[inv], key)
            pfg_ok = keys_at(at) == expected
        checks.append(Check(f"{inv}_{pfg_side}_is_pfg", k >= 1, pfg_ok, detail + tie))
        _, at, detail = side(inv, bsg_side)
        bsg_ok = keys_at(at) == {key(balanced_saw(n, k))} if bsg_defined else None
        checks.append(Check(f"{inv}_{bsg_side}_is_bsg", bsg_defined, bsg_ok, detail))

    if "pn" in invariants:
        distinct = contains = None
        if bsg_defined:
            distinct = key(pseudo_triangle_chain(n, k)) != key(balanced_saw(n, k))
            _, at, _ = side("pn", "min")
            contains = key(pseudo_friendship(n, k)) in keys_at(at) and len(at) > 1
        for name, ok, detail in (
            ("pn_max_differs_from_wiener_max", distinct, "PTC and BSG are non-isomorphic"),
            ("pn_min_strictly_contains_wiener_min", contains, "PFG minimizes pn but not uniquely"),
        ):
            checks.append(Check(name, bsg_defined, ok, detail if ok else ""))

    return VerificationReport(n, k, tuple(checks))
