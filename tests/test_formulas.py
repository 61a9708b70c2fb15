from fractions import Fraction
from math import comb

import pytest

from cactuspaths.counting import count_paths
from cactuspaths.families import pseudo_triangle_chain
from cactuspaths.formulas import (
    RECONCILIATION_COLUMNS,
    cactus_path_bounds,
    connected_graph_bounds,
    cycle_path_count,
    min_cactus_path_count,
    ptc_delta,
    ptc_printed,
    ptc_shape,
    ptc_summation,
    reconciliation_rows,
    tree_path_count,
    unicyclic_path_count,
)


def test_tree_formula():
    assert tree_path_count(1) == 1
    assert tree_path_count(4) == 10
    assert tree_path_count(10) == 55
    with pytest.raises(ValueError):
        tree_path_count(0)


def test_cycle_formula():
    assert cycle_path_count(3) == 9
    assert cycle_path_count(5) == 25
    assert cycle_path_count(12) == 144
    with pytest.raises(ValueError):
        cycle_path_count(2)


def test_unicyclic_formula():
    assert unicyclic_path_count(5, [1, 1, 1, 1, 1]) == 25
    assert unicyclic_path_count(4, [2, 1, 1]) == 15
    # triangle with a three-vertex tail / triangle with a pendant per vertex
    assert unicyclic_path_count(6, [4, 1, 1]) == 30
    assert unicyclic_path_count(6, [2, 2, 2]) == 33
    for bad in ([1, 1], [0, 2, 2], [1, 1, 1]):
        with pytest.raises(ValueError):
            unicyclic_path_count(6, bad)


def test_connected_bounds():
    assert connected_graph_bounds(1) == (1, 1)
    assert connected_graph_bounds(4)[1] == 34
    assert connected_graph_bounds(5)[1] == 165
    # lower bound is the tree value (length-0 paths included)
    for n in range(1, 12):
        assert connected_graph_bounds(n)[0] == comb(n + 1, 2)


def test_ptc_shape():
    s = ptc_shape(14, 5)
    assert (s.n1, s.n2) == (5, 4)
    assert ptc_shape(7, 2).n1 == ptc_shape(7, 2).n2 == 4
    assert (ptc_shape(5, 2).n1, ptc_shape(5, 2).n2) == (3, 3)
    with pytest.raises(ValueError):
        ptc_shape(6, 1)
    with pytest.raises(ValueError):
        ptc_shape(4, 2)


@pytest.mark.parametrize(
    "n,k,expected", [(7, 2, 67), (9, 3, 159), (8, 2, 88), (14, 5, 904)]
)
def test_ptc_summation_frozen_values(n, k, expected):
    assert ptc_summation(n, k) == expected


def ptc_term_by_term(n, k):
    """PTC(n, k)'s subpath number added up term by term: pairs in cycles
    i..j contribute 2^(j-i+1) paths each, grouped by how far apart the two
    cycles sit.  Empty sums (k = 2, 3) are zero."""
    shape = ptc_shape(n, k)
    n1, n2 = shape.n1, shape.n2
    total = (n1 - 1) * (n2 - 1) * 2**k
    total += sum(2 * (n1 - 1) * 2 ** (i + 1) for i in range(1, k - 1))
    total += sum(2 * (n2 - 1) * 2 ** (i + 1) for i in range(1, k - 1))
    total += sum(4 * 2 ** (i + 1) * (k - 2 - i) for i in range(1, k - 2))
    total += n1 * n1 + n2 * n2 + 9 * (k - 2) - (k - 1)
    return total


def test_ptc_summation_matches_the_term_by_term_sum():
    pairs = 0
    for k in range(2, 40):
        for n in range(2 * k + 1, 2 * k + 60):
            assert ptc_summation(n, k) == ptc_term_by_term(n, k)
            pairs += 1
    assert pairs == 2242


def test_ptc_summation_matches_oracle_grid():
    for k in (2, 3, 4, 5):
        for n in range(2 * k + 1, 15):
            assert ptc_summation(n, k) == count_paths(pseudo_triangle_chain(n, k))


@pytest.mark.parametrize(
    "n,k,expected",
    [(7, 2, Fraction(83)), (9, 3, Fraction(175)), (8, 2, Fraction(209, 2))],
)
def test_ptc_printed_values(n, k, expected):
    assert ptc_printed(n, k) == expected


def test_printed_vs_summation_offsets():
    """The simplified form overshoots by 16 for odd n and is half-integral
    for even n; only the summation form is asserted as a count."""
    for k in (2, 3, 4, 5):
        for n in range(2 * k + 1, 15):
            diff = ptc_printed(n, k) - ptc_summation(n, k)
            if n % 2:
                assert diff == 16
            else:
                assert diff.denominator == 2


def test_printed_form_has_two_misprints():
    """With the tail's constant -25 for +7, and delta 1/2 - 2^(k-2) for
    1 - 2^(k-2) at even n, the printed form is the count."""
    for k in range(2, 30):
        for n in range(2 * k + 1, 2 * k + 30):
            head = (n * n - 4 * k * n + 14 * n + 4 * k * k - 28 * k + 49) * 2 ** (k - 2)
            tail = Fraction(n * n - 4 * k * n - 6 * n + 4 * k * k - 4 * k - 25, 2)
            delta = 0 if n % 2 else Fraction(1, 2) - 2 ** (k - 2)
            assert head + tail + delta == ptc_summation(n, k)
            assert ptc_printed(n, k) - ptc_summation(n, k) == (16 if n % 2 else Fraction(33, 2))


def test_ptc_delta():
    assert ptc_delta(7, 2) == 0
    assert ptc_delta(8, 2) == 0
    assert ptc_delta(8, 4) == 1 - 4
    with pytest.raises(ValueError):
        ptc_delta(8, 1)


def test_min_cactus_values():
    assert min_cactus_path_count(10, 3) == 118
    assert min_cactus_path_count(3, 1) == 9
    for n in range(1, 12):
        assert min_cactus_path_count(n, 0) == tree_path_count(n)
    with pytest.raises(ValueError):
        min_cactus_path_count(6, 3)


def test_min_cactus_polynomial_identity():
    for k in range(0, 6):
        for n in range(2 * k + 1, 2 * k + 12):
            assert (
                min_cactus_path_count(n, k)
                == (n * n + 4 * k * n + n + 4 * k * k - 10 * k) // 2
            )


def test_cactus_bounds():
    assert cactus_path_bounds(10, 3) == (118, ptc_summation(10, 3))
    assert cactus_path_bounds(7, 2) == (min_cactus_path_count(7, 2), 67)
    assert cactus_path_bounds(9, 3)[1] == 159
    with pytest.raises(ValueError):
        cactus_path_bounds(9, 1)


def test_bounds_hold_over_census():
    from cactuspaths.census import enumerate_cacti
    from cactuspaths.counting import cactus_path_count
    from cactuspaths.graphs import validate_cactus

    for n in range(5, 9):
        for k in range(2, (n - 1) // 2 + 1):
            lo, hi = cactus_path_bounds(n, k)
            for g in enumerate_cacti(n, k):
                assert lo <= cactus_path_count(validate_cactus(g)) <= hi


def test_reconciliation_rows():
    rows = reconciliation_rows(range(7, 9), range(2, 3))
    assert [tuple(r) for r in rows] == [RECONCILIATION_COLUMNS] * 2
    assert rows[0]["printed_minus_summation"] == "16"
    assert rows[1]["printed"] == "209/2"
    assert reconciliation_rows(range(0), range(2, 3)) == []
    # infeasible pairs are skipped, not errors
    assert len(reconciliation_rows(range(4, 6), range(2, 4))) == 1
