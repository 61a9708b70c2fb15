import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths.census import canonical_key
from cactuspaths.families import (
    MAX_FAMILY_VERTICES,
    FamilySpec,
    balanced_saw,
    build_family,
    complete_graph,
    cycle_chain,
    cycle_graph,
    end_triangle_cactus,
    path_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
    star_graph,
)
from cactuspaths.graphs import is_cactus_chain, validate_cactus


def cycle_lengths(g):
    p = validate_cactus(g)
    return sorted(len(p.tree.blocks[i]) for i in p.cycle_blocks)


def test_cycle_chain_shapes():
    assert canonical_key(cycle_chain([5])) == canonical_key(cycle_graph(5))
    assert canonical_key(cycle_chain([4, 4])) == canonical_key(pseudo_triangle_chain(7, 2))
    g = cycle_chain([3, 3, 3])
    assert g.n == 7 and cycle_lengths(g) == [3, 3, 3]
    with pytest.raises(ValueError):
        cycle_chain([3, 2, 3])
    with pytest.raises(ValueError):
        cycle_chain([])


def test_ptc_shapes():
    assert cycle_lengths(pseudo_triangle_chain(14, 5)) == [3, 3, 3, 4, 5]
    assert cycle_lengths(pseudo_triangle_chain(7, 2)) == [4, 4]
    assert cycle_lengths(pseudo_triangle_chain(5, 2)) == [3, 3]
    with pytest.raises(ValueError):
        pseudo_triangle_chain(4, 2)


def test_ptc_definition_checks():
    for n, k in [(7, 2), (9, 3), (11, 4), (14, 5), (12, 3)]:
        p = validate_cactus(pseudo_triangle_chain(n, k))
        assert p.k == k and p.graph.n == n
        assert is_cactus_chain(p)
        interior = [len(p.tree.blocks[i]) for i in p.interior_cycles]
        assert all(length == 3 for length in interior)
        ends = sorted(len(p.tree.blocks[i]) for i in p.end_cycles)
        assert ends[-1] - ends[0] <= 1


def test_pfg_shapes():
    g = pseudo_friendship(10, 3)
    assert g.n == 10 and g.m == 12
    p = validate_cactus(g)
    assert len(p.end_cycles) == 3 and not p.interior_cycles
    assert canonical_key(pseudo_friendship(3, 1)) == canonical_key(cycle_graph(3))
    no_pendants = pseudo_friendship(7, 3)
    assert all(d in (2, 6) for d in map(no_pendants.degree, range(7)))
    with pytest.raises(ValueError):
        pseudo_friendship(6, 3)


def test_pfg_every_triangle_has_one_busy_vertex():
    for n, k in [(5, 2), (8, 2), (9, 4), (12, 3)]:
        g = pseudo_friendship(n, k)
        p = validate_cactus(g)
        for i in p.cycle_blocks:
            blk = p.tree.blocks[i]
            assert sum(1 for v in blk.vertex_set if g.degree(v) > 2) == 1


def test_bsg_shapes():
    g = balanced_saw(14, 5)
    assert g.n == 14 and g.m == 14 + 5 - 1
    assert cycle_lengths(g) == [3] * 5
    p = validate_cactus(g)
    assert p.k == 5

    g = balanced_saw(8, 2)
    # two triangles joined by a path with two interior vertices
    assert g.n == 8 and len(find_path_bridges(g)) == 3

    g = balanced_saw(6, 2)
    assert g.n == 6 and len(find_path_bridges(g)) == 1
    with pytest.raises(ValueError):
        balanced_saw(7, 3)
    with pytest.raises(ValueError):
        balanced_saw(8, 1)


def find_path_bridges(g):
    from cactuspaths.graphs import find_bridges

    return find_bridges(g)


def test_bsg_counts_over_grid():
    for k in (2, 3, 4, 5):
        for n in range(2 * k + 2, 2 * k + 7):
            g = balanced_saw(n, k)
            assert g.n == n and g.m == n + k - 1
            assert validate_cactus(g).k == k


def test_end_triangle_constructor():
    star_based = end_triangle_cactus(4, [(0, 1), (0, 2), (0, 3)], [0, 0, 0])
    assert canonical_key(star_based) == canonical_key(pseudo_friendship(10, 3))
    lone = end_triangle_cactus(1, [], [0])
    assert canonical_key(lone) == canonical_key(cycle_graph(3))
    spaced = end_triangle_cactus(4, [(0, 1), (1, 2), (2, 3)], [0, 1, 2])
    p = validate_cactus(spaced)
    assert p.k == 3 and not p.interior_cycles
    with pytest.raises(ValueError):
        end_triangle_cactus(4, [(0, 1), (1, 2)], [0])
    with pytest.raises(ValueError):
        end_triangle_cactus(4, [(0, 1), (1, 2), (0, 2)], [0])
    with pytest.raises(ValueError):
        end_triangle_cactus(2, [(0, 1)], [4])


def test_constructors_deterministic():
    assert pseudo_triangle_chain(11, 4) == pseudo_triangle_chain(11, 4)
    assert balanced_saw(12, 4) == balanced_saw(12, 4)
    assert cycle_chain([4, 3, 5]) == cycle_chain([4, 3, 5])
    assert end_triangle_cactus(3, [(0, 1), (1, 2)], [1, 1]) == end_triangle_cactus(
        3, [(0, 1), (1, 2)], [1, 1]
    )


@given(
    st.lists(st.integers(3, 6), min_size=1, max_size=4),
)
@settings(max_examples=50)
def test_cycle_chain_is_valid_cactus(lengths):
    g = cycle_chain(lengths)
    p = validate_cactus(g)
    assert p.k == len(lengths)
    assert g.n == sum(lengths) - (len(lengths) - 1)
    assert is_cactus_chain(p)


@given(st.integers(1, 5), st.integers(0, 8))
@settings(max_examples=50)
def test_pfg_valid_over_grid(k, pendants):
    n = 2 * k + 1 + pendants
    p = validate_cactus(pseudo_friendship(n, k))
    assert p.k == k and not p.interior_cycles


def test_basic_families():
    assert path_graph(1).n == 1
    assert star_graph(5).degree(0) == 4
    assert complete_graph(4).m == 6
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_build_family_dispatch():
    assert build_family(FamilySpec("cycle", n=5)) == cycle_graph(5)
    assert build_family(FamilySpec("ptc", n=9, k=3)) == pseudo_triangle_chain(9, 3)
    assert build_family(FamilySpec("chain", lengths=(4, 3))) == cycle_chain([4, 3])
    with pytest.raises(ValueError):
        build_family(FamilySpec("ptc", n=9))
    with pytest.raises(ValueError):
        build_family(FamilySpec("nope", n=3))
    with pytest.raises(ValueError):
        build_family(FamilySpec("chain"))


def test_build_family_refuses_oversized_specs():
    top = MAX_FAMILY_VERTICES
    for spec in (
        FamilySpec("path", n=top + 1),
        FamilySpec("pfg", n=top + 1, k=1),
        FamilySpec("chain", lengths=(top // 2 + 2, top // 2 + 1)),  # top + 2 vertices
        FamilySpec("end_triangle", tree_n=top - 1, attach=(0,)),
    ):
        with pytest.raises(ValueError, match="over the limit"):
            build_family(spec)
