import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths import transforms
from cactuspaths.census import canonical_key, enumerate_cacti, random_cactus
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
    RULES,
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

from test_pinned_outputs import relabeled_random_cacti

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


DRIVER_RUNS = [
    (driver, g)
    for g in relabeled_random_cacti(77, 20, 60)
    for driver in (maximize_to_fixpoint, minimize_to_fixpoint)
]


def test_every_driver_step_is_its_rule_applied_alone():
    """A driver applies a rule's move to the profile it carries; the public
    rule validates the graph and counts its pn first.  Both give one step."""
    rules = set()
    for driver, g in DRIVER_RUNS:
        _, history = driver(g)
        for step in history:
            assert RULES[step.rule](step.before) == step
            rules.add(step.rule)
    assert rules == set(RULES)


def test_drivers_in_threads_match_sequential_runs():
    sequential = [driver(g) for driver, g in DRIVER_RUNS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda run: run[0](run[1]), DRIVER_RUNS))
    assert threaded == sequential


HISTORY_RUNS = DRIVER_RUNS + [
    (driver, g)
    for n in range(1, 8)
    for k in range((n - 1) // 2 + 1)
    for g in enumerate_cacti(n, k)
    for driver in (maximize_to_fixpoint, minimize_to_fixpoint)
]


def test_histories_index_and_slice_as_the_list_of_their_steps():
    slices = [
        slice(None),
        slice(1, None),
        slice(None, -1),
        slice(-3, None),
        slice(None, None, 2),
        slice(None, None, -1),
        slice(5, 2),
        slice(2, 1000),
    ]
    for driver, g in HISTORY_RUNS:
        history = driver(g)[1]
        steps = list(history)
        assert list(history) == steps  # a second replay rebuilds equal steps
        assert len(history) == len(steps)
        assert history == steps and steps == history
        for i, step in enumerate(steps):
            assert history[i] == step
            assert history[i - len(history)] == step
        for s in slices:
            assert history[s] == steps[s]
        for i in (len(history), -len(history) - 1):
            with pytest.raises(IndexError):
                history[i]


def test_histories_chain_their_graphs():
    """Step 0 starts at the input graph, each step starts at the graph the
    one before built, which iterating hands on as the same object, and the
    last step builds the graph a driver returns."""
    for driver, g in HISTORY_RUNS:
        final, history = driver(g)
        steps = list(history)
        if not steps:
            assert final == g
            continue
        assert history[0].before is g and steps[0].before is g
        for i, (step, next_step) in enumerate(zip(steps, steps[1:])):
            assert next_step.before is step.after
            assert history[i].after == history[i + 1].before
        assert steps[-1].after == final


def test_histories_of_other_runs_differ():
    runs = [driver(g)[1] for driver, g in DRIVER_RUNS]
    nonempty = [h for h in runs if h]
    assert len(nonempty) > 20
    for a, b in zip(nonempty, nonempty[1:]):
        assert a != b and list(a) != b


def test_a_held_history_holds_no_graph_per_step():
    """A driver keeps each step as a move, not as two graphs: the 298 steps
    on (300, 60) hold 0.14 MiB under tracemalloc, where a list of steps that
    each keep their graphs held 4.9 MiB."""
    g = random_cactus(300, 60, random.Random(0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        history = maximize_to_fixpoint(g)[1]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(history) == 298
    assert held < 2**19  # a tenth of what the graphs took


# each driver's rules in the order it tries them: the module docstring's table
DIRECTIONS = [
    (maximize_to_fixpoint, ("bridge-slide", "chain-straighten", "shrink", "balance")),
    (minimize_to_fixpoint, ("to-triangle", "split")),
]


def raises_transform_error(rule, g):
    try:
        RULES[rule](g)
    except TransformError:
        return True
    return False


@pytest.mark.parametrize("driver, rules", DIRECTIONS)
def test_drivers_apply_the_first_rule_that_fires(driver, rules):
    """Every step's rule is the first of its direction whose precondition
    holds on step.before, and at the graph a driver returns every rule of
    its direction raises."""
    census = (g for n in range(1, 9) for k in range((n - 1) // 2 + 1) for g in enumerate_cacti(n, k))
    fired = set()
    for g in (*census, *relabeled_random_cacti(77, 20, 60)):
        final, history = driver(g)
        for step in history:
            earlier = rules[: rules.index(step.rule)]
            assert all(raises_transform_error(rule, step.before) for rule in earlier)
            fired.add(step.rule)
        assert all(raises_transform_error(rule, final) for rule in rules)
    assert fired == set(rules)


def test_a_step_refuses_a_missing_edge_to_remove_and_a_present_edge_to_add():
    profile = validate_cactus(path_graph(4))
    with pytest.raises(ValueError, match=r"no edge \(0, 2\) to remove"):
        transforms._step(profile, ([(2, 0)], []))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) already present"):
        transforms._step(profile, ([(1, 2)], [(1, 0)]))
    assert profile.graph == path_graph(4)
