import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths import transforms
from cactuspaths.census import canonical_key, random_cactus
from cactuspaths.counting import count_paths
from cactuspaths.families import (
    cycle_chain,
    cycle_graph,
    path_graph,
    pseudo_friendship,
    pseudo_triangle_chain,
)
from cactuspaths.graphs import Graph, is_cactus_chain, is_connected, validate_cactus
from cactuspaths.transforms import (
    FixpointError,
    TransformError,
    balance_end_cycles,
    bridge_slide,
    chain_straighten,
    cycle_to_triangle,
    maximize_to_fixpoint,
    minimize_to_fixpoint,
    shrink_interior_cycle,
    split_interior_triangle,
)

TRIANGLE_PENDANT = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])


def check_class_preserved(result):
    before = validate_cactus(result.before)
    after = validate_cactus(result.after)  # raises if not a cactus
    assert result.after.n == result.before.n
    assert after.k == before.k
    assert is_connected(result.after)
    assert result.pn_before == count_paths(result.before)
    assert result.pn_after == count_paths(result.after)


# ---------------------------------------------------------------- bridge slide


def test_bridge_slide_examples():
    r = bridge_slide(TRIANGLE_PENDANT)
    assert (r.pn_before, r.pn_after) == (15, 16)
    assert canonical_key(r.after) == canonical_key(cycle_graph(4))

    c4p = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    r = bridge_slide(c4p)
    assert (r.pn_before, r.pn_after) == (24, 25)
    assert canonical_key(r.after) == canonical_key(cycle_graph(5))
    check_class_preserved(r)


def test_bridge_slide_rejects_bridgeless_and_trees():
    with pytest.raises(TransformError):
        bridge_slide(cycle_graph(5))
    with pytest.raises(TransformError):
        bridge_slide(path_graph(4))  # bridges exist but no cycle to absorb them


# ---------------------------------------------------------------- chain straighten


def test_chain_straighten_star_of_triangles():
    r = chain_straighten(pseudo_friendship(7, 3))
    assert (r.pn_before, r.pn_after) == (73, 89)
    assert is_cactus_chain(validate_cactus(r.after))
    check_class_preserved(r)


def test_chain_straighten_four_triangles():
    r = chain_straighten(pseudo_friendship(9, 4))
    assert r.delta > 0
    check_class_preserved(r)


def test_chain_straighten_reduces_branching():
    def branch_degree_sum(g):
        tree = validate_cactus(g).tree
        degrees = [len(c) for c in tree.incidence]
        degrees += [len(ids) for ids in tree.blocks_of_cut_vertex.values()]
        return sum(d for d in degrees if d >= 3)

    g = pseudo_friendship(9, 4)
    r = chain_straighten(g)
    assert branch_degree_sum(r.after) < branch_degree_sum(g)


def test_chain_straighten_rejects_chain_and_bridges():
    with pytest.raises(TransformError):
        chain_straighten(pseudo_triangle_chain(7, 2))
    with pytest.raises(TransformError):
        chain_straighten(TRIANGLE_PENDANT)


# ---------------------------------------------------------------- shrink / balance


def test_shrink_examples():
    r = shrink_interior_cycle(cycle_chain([3, 4, 3]))
    assert (r.pn_before, r.pn_after) == (112, 120)
    p = validate_cactus(r.after)
    assert sorted(len(p.tree.blocks[i]) for i in p.cycle_blocks) == [3, 3, 4]
    check_class_preserved(r)

    r = shrink_interior_cycle(cycle_chain([3, 5, 3]))
    assert (r.pn_before, r.pn_after) == (137, 147)
    p = validate_cactus(r.after)
    assert sorted(len(p.tree.blocks[i]) for i in p.cycle_blocks) == [3, 4, 4]


def test_shrink_rejects_all_triangle_interiors():
    with pytest.raises(TransformError):
        shrink_interior_cycle(cycle_chain([3, 3, 3]))
    with pytest.raises(TransformError):
        shrink_interior_cycle(pseudo_friendship(7, 3))  # not a chain


def test_balance_examples():
    r = balance_end_cycles(cycle_chain([3, 3, 5]))
    assert (r.pn_before, r.pn_after) == (153, 159)
    assert canonical_key(r.after) == canonical_key(pseudo_triangle_chain(9, 3))
    check_class_preserved(r)

    r = balance_end_cycles(cycle_chain([3, 6]))
    assert r.delta > 0
    assert canonical_key(r.after) == canonical_key(pseudo_triangle_chain(8, 2))


def test_balance_rejects_balanced():
    with pytest.raises(TransformError):
        balance_end_cycles(pseudo_triangle_chain(9, 3))
    with pytest.raises(TransformError):
        balance_end_cycles(cycle_graph(6))  # single end cycle


# ---------------------------------------------------------------- to-triangle / split


def test_cycle_to_triangle_examples():
    r = cycle_to_triangle(cycle_graph(4))
    assert (r.pn_before, r.pn_after) == (16, 15)
    assert canonical_key(r.after) == canonical_key(TRIANGLE_PENDANT)

    r = cycle_to_triangle(cycle_graph(5))
    assert (r.pn_before, r.pn_after) == (25, 24)
    check_class_preserved(r)


def test_cycle_to_triangle_inverts_bridge_slide():
    r = cycle_to_triangle(cycle_graph(4))
    back = bridge_slide(r.after)
    assert canonical_key(back.after) == canonical_key(cycle_graph(4))


def test_cycle_to_triangle_explicit_and_errors():
    with pytest.raises(TransformError):
        cycle_to_triangle(cycle_graph(3))
    with pytest.raises(TransformError):
        cycle_to_triangle(path_graph(4))


def test_split_examples():
    r = split_interior_triangle(cycle_chain([3, 3, 3]))
    assert (r.pn_before, r.pn_after) == (89, 73)
    check_class_preserved(r)

    rim_pendant = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4), (0, 5)]
    )
    r = split_interior_triangle(rim_pendant)
    assert (r.pn_before, r.pn_after) == (47, 43)


def test_split_rejects_end_triangle_graphs():
    # pendant at the shared hub keeps both triangles end-triangles
    hub_pendant = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4), (2, 5)]
    )
    with pytest.raises(TransformError):
        split_interior_triangle(hub_pendant)
    with pytest.raises(TransformError):
        split_interior_triangle(pseudo_friendship(10, 3))
    with pytest.raises(TransformError):
        split_interior_triangle(cycle_chain([3, 4, 3]))  # non-triangle cycle


# ---------------------------------------------------------------- determinism


def test_transforms_are_deterministic():
    g = cycle_chain([3, 3, 5])
    assert balance_end_cycles(g) == balance_end_cycles(g)
    assert bridge_slide(TRIANGLE_PENDANT) == bridge_slide(TRIANGLE_PENDANT)


# ---------------------------------------------------------------- properties


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_transform_contracts(seed):
    """Whichever rewrite fires on a random cactus must preserve the class
    and move pn strictly in its direction (checked against brute force)."""
    rng = random.Random(seed)
    n = rng.randrange(3, 10)
    k = rng.randrange(0, (n - 1) // 2 + 1)
    g = random_cactus(n, k, rng)
    profile = validate_cactus(g)
    ups = []
    if profile.bridges and profile.k >= 1:
        ups.append(bridge_slide)
    if not profile.bridges and profile.k >= 2 and not is_cactus_chain(profile):
        ups.append(chain_straighten)
    for rule in ups:
        r = rule(g)
        check_class_preserved(r)
        assert r.delta > 0
    downs = []
    if any(len(profile.tree.blocks[i]) >= 4 for i in profile.cycle_blocks):
        downs.append(cycle_to_triangle)
    elif profile.interior_cycles:
        downs.append(split_interior_triangle)
    for rule in downs:
        r = rule(g)
        check_class_preserved(r)
        assert r.delta < 0


@pytest.mark.parametrize(
    "rule, g, sign",
    [
        (bridge_slide, Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4), (4, 5)]), 1),
        (chain_straighten, pseudo_friendship(7, 3), 1),
        (shrink_interior_cycle, cycle_chain([3, 5, 3]), 1),
        (balance_end_cycles, cycle_chain([3, 3, 6]), 1),
        (cycle_to_triangle, cycle_chain([5, 3]), -1),
        (split_interior_triangle, cycle_chain([3, 3, 3, 3]), -1),
    ],
)
def test_every_choice_moves_pn_in_the_rules_direction(rule, g, sign):
    """A rule picks the smallest labels, so on relabelled copies of g it
    makes other moves: each must keep (n, k), count pn right and move it
    strictly in the rule's direction, and at least two distinct moves, read
    back in g's labels, must occur."""
    k = validate_cactus(g).k
    rng = random.Random(0)
    moves = set()
    for _ in range(60):
        perm = list(range(g.n))
        rng.shuffle(perm)
        r = rule(g.relabel(perm))
        assert r.after.n == g.n and validate_cactus(r.after).k == k
        assert r.pn_before == count_paths(r.before)
        assert r.pn_after == count_paths(r.after)
        assert r.delta * sign > 0
        back = {y: x for x, y in enumerate(perm)}
        moves.add(
            tuple(
                frozenset(tuple(sorted((back[u], back[v]))) for u, v in edges)
                for edges in (r.removed, r.added)
            )
        )
    assert len(moves) >= 2


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_fixpoints_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 10)
    k = rng.randrange(0, (n - 1) // 2 + 1)
    g = random_cactus(n, k, rng)
    top, hist = maximize_to_fixpoint(g)
    assert all(step.delta > 0 for step in hist)
    if k >= 2:
        assert canonical_key(top) == canonical_key(pseudo_triangle_chain(n, k))
    elif k == 1:
        assert canonical_key(top) == canonical_key(cycle_graph(n))
    else:
        assert top == g
    low, hist = minimize_to_fixpoint(g)
    assert all(step.delta < 0 for step in hist)
    p = validate_cactus(low)
    assert not p.interior_cycles
    assert all(len(p.tree.blocks[i]) == 3 for i in p.cycle_blocks)


def test_sliding_to_fixpoint_removes_all_bridges():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    top, hist = maximize_to_fixpoint(g)
    assert canonical_key(top) == canonical_key(cycle_graph(7))
    assert len(hist) == 4  # one slide per former bridge


def test_fixpoint_cap_fires():
    with pytest.raises(FixpointError):
        maximize_to_fixpoint(pseudo_friendship(12, 3), cap=1)


# ---------------------------------------------------------------- work per step


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("driver", [maximize_to_fixpoint, minimize_to_fixpoint])
def test_drivers_validate_and_count_each_graph_once(monkeypatch, driver):
    validated = count_calls(monkeypatch, transforms, "validate_cactus")
    counted = count_calls(monkeypatch, transforms, "cactus_path_count")
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randrange(3, 60)
        g = random_cactus(n, rng.randrange((n - 1) // 2 + 1), rng)
        validated.clear()
        counted.clear()
        _, history = driver(g)
        assert len(validated) <= len(history) + 1
        assert len(counted) <= len(history) + 1


def test_rules_validate_their_input_outside_a_driver(monkeypatch):
    _, history = maximize_to_fixpoint(TRIANGLE_PENDANT)
    with pytest.raises(FixpointError):
        maximize_to_fixpoint(pseudo_friendship(12, 3), cap=1)
    validated = count_calls(monkeypatch, transforms, "validate_cactus")
    assert bridge_slide(history[0].before) == history[0]
    assert [args[0] for args in validated] == [history[0].before]
