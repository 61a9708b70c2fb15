"""Extremal sweeps over cactus censuses and the theorem checks built on
them: which graphs attain the min / max of the subpath number, the Wiener
index, and the subtree number in each class."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .census import Rings, canonical_key, census_with_rings, centred_rings, enumerate_cacti
from .families import (
    balanced_saw,
    cycle_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
)
from .formulas import min_cactus_path_count, ptc_summation, tree_path_count
from .graphs import CactusProfile, Graph, validate_cactus
from .indices import cactus_counters, ring_counters

INVARIANTS = tuple(cactus_counters())


def _known(invariants: tuple[str, ...]) -> tuple[str, ...]:
    """The named invariants, each once and in the order first named; raises
    ValueError on an unknown name, before any census is built."""
    for invariant in invariants:
        if invariant not in INVARIANTS:
            raise ValueError(f"unknown invariant {invariant!r}; choose from {INVARIANTS}")
    return tuple(dict.fromkeys(invariants))


def _evaluate(
    classes: Iterable[tuple[Graph, Rings]], invariants: tuple[str, ...]
) -> tuple[dict[str, list[int]], list[bool]]:
    """Every invariant of every census class, names as _known returns them,
    and whether it is an end-triangle cactus.  Each class comes as its graph
    and its rings (census_with_rings), and is read from its rings hung from
    its centre (centred_rings) by the ring passes, with no block-cut tree
    built.  The rings are first checked against the graph in O(m): their
    edges must number m and their cycles m - n + 1, else AssertionError.
    Only the numbers are kept, not the hung rings."""
    counters = ring_counters()
    values: dict[str, list[int]] = {inv: [] for inv in invariants}
    end_triangle = []
    for g, rings in classes:
        cycles = sum(len(ring) > 2 for ring in rings)
        if sum(map(len, rings)) - len(rings) + cycles != g.m or cycles != g.m - g.n + 1:
            raise AssertionError(f"census rings do not match the graph with edges {g.sorted_edges}")
        hung = centred_rings(g.n, rings)
        for inv in invariants:
            values[inv].append(counters[inv](g.n, hung))
        end_triangle.append(_end_triangle(g.n, hung))
    return values, end_triangle


@dataclass(frozen=True)
class ArgEntry:
    key: bytes
    graph: Graph


@dataclass(frozen=True)
class ExtremalReport:
    n: int
    k: int
    invariant: str
    min_value: int
    max_value: int
    argmin: tuple[ArgEntry, ...]
    argmax: tuple[ArgEntry, ...]
    # canonical-key order from extremal_sweep, generation order from verify_theorems
    census: tuple[Graph, ...]
    values: tuple[int, ...]  # values[i] is the invariant of census[i]

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
    census = enumerate_cacti(n, k, guard=guard)
    rings = dict(zip(*census_with_rings(n, k, guard=guard)))  # keyed by the same graphs
    values, _ = _evaluate(((g, rings[g]) for g in census), (invariant,))
    return _report(n, k, invariant, census, values[invariant])


def _report(
    n: int, k: int, invariant: str, census: tuple[Graph, ...], values: list[int]
) -> ExtremalReport:
    lo, hi = min(values), max(values)
    argmin = tuple(
        ArgEntry(canonical_key(g), g) for g, v in zip(census, values) if v == lo
    )
    argmax = tuple(
        ArgEntry(canonical_key(g), g) for g, v in zip(census, values) if v == hi
    )
    return ExtremalReport(n, k, invariant, lo, hi, argmin, argmax, census, tuple(values))


def sweep_rows(report: ExtremalReport) -> list[dict[str, str]]:
    """CSV rows for one sweep: every census class with its value and
    argmin/argmax membership."""
    rows = []
    for g, value in zip(report.census, report.values):
        key = canonical_key(g)
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


@dataclass(frozen=True)
class Check:
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


@dataclass(frozen=True)
class VerificationReport:
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


def _pfg_and_ties(n: int, k: int, invariant) -> tuple[set[bytes], str]:
    """The keys of the classes expected at PFG(n, k)'s extreme of an
    invariant, and a detail suffix naming any tie: at k = 1 the cycle C_n
    joins when it is another class with PFG(n, 1)'s value (the Wiener index
    at n = 4, 5, the subtree number at n = 4)."""
    pfg = pseudo_friendship(n, k)
    keys = {canonical_key(pfg)}
    if k == 1:
        cycle = cycle_graph(n)
        ck = canonical_key(cycle)
        if ck not in keys and invariant(validate_cactus(cycle)) == invariant(validate_cactus(pfg)):
            return keys | {ck}, f"; C_{n} ties PFG({n}, 1)"
    return keys, ""


def _side(rep: ExtremalReport, side: str) -> tuple[frozenset[bytes], str]:
    """The keys of the classes at one side ("min" or "max") of a sweep, and
    the detail naming that side's value and how many classes attain it."""
    entries, value = (rep.argmin, rep.min_value) if side == "min" else (rep.argmax, rep.max_value)
    return frozenset(e.key for e in entries), f"{side} {value} attained by {len(entries)} class(es)"


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
    # the checks compare sets of classes, so the census need not be sorted
    census, rings = census_with_rings(n, k, guard=guard) if invariants else ((), ())
    values, end_triangle = _evaluate(zip(census, rings), invariants)
    reports = {inv: _report(n, k, inv, census, values[inv]) for inv in invariants}
    bsg_defined = k >= 2 and n >= 2 * k + 2
    pn = reports.get("pn")

    if pn is not None and k == 0:
        value = tree_path_count(n)
        checks.append(
            Check(
                "pn_trees_constant",
                True,
                pn.min_value == pn.max_value == value,
                f"all {pn.census_size} trees have pn {value}",
            )
        )
    if pn is not None and k >= 1:
        keys, detail = _side(pn, "max")
        if k == 1:
            name, ok = "pn_max_is_cycle", keys == {canonical_key(cycle_graph(n))}
        else:
            ptc_key = canonical_key(pseudo_triangle_chain(n, k))
            name, ok = "pn_max_is_ptc", keys == {ptc_key} and pn.max_value == ptc_summation(n, k)
        checks.append(Check(name, True, ok, detail))
        end_triangle_keys = frozenset(
            canonical_key(g) for g, flag in zip(census, end_triangle) if flag
        )
        keys, detail = _side(pn, "min")
        ok = keys == end_triangle_keys and pn.min_value == min_cactus_path_count(n, k)
        detail += f"; {len(end_triangle_keys)} end-triangle class(es)"
        checks.append(Check("pn_min_is_end_triangle_family", True, ok, detail))

    # PFG and BSG sit at opposite extremes of the Wiener index and of the subtree number
    for inv, pfg_side, bsg_side in (("wiener", "min", "max"), ("subtrees", "max", "min")):
        if inv not in reports:
            continue
        keys, detail = _side(reports[inv], pfg_side)
        pfg_ok, tie = None, ""
        if k >= 1:
            expected, tie = _pfg_and_ties(n, k, cactus_counters()[inv])
            pfg_ok = keys == expected
        checks.append(Check(f"{inv}_{pfg_side}_is_pfg", k >= 1, pfg_ok, detail + tie))
        keys, detail = _side(reports[inv], bsg_side)
        bsg_ok = keys == {canonical_key(balanced_saw(n, k))} if bsg_defined else None
        checks.append(Check(f"{inv}_{bsg_side}_is_bsg", bsg_defined, bsg_ok, detail))

    if pn is not None:
        distinct = contains = None
        if bsg_defined:
            ptc, bsg = pseudo_triangle_chain(n, k), balanced_saw(n, k)
            distinct = canonical_key(ptc) != canonical_key(bsg)
            pfg_key = canonical_key(pseudo_friendship(n, k))
            contains = pfg_key in pn.argmin_keys and len(pn.argmin) > 1
        for name, ok, detail in (
            ("pn_max_differs_from_wiener_max", distinct, "PTC and BSG are non-isomorphic"),
            ("pn_min_strictly_contains_wiener_min", contains, "PFG minimizes pn but not uniquely"),
        ):
            checks.append(Check(name, bsg_defined, ok, detail if ok else ""))

    return VerificationReport(n, k, tuple(checks))
