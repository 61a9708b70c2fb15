"""The package builds no reference cycles: everything a pipeline allocates
is freed by reference counting, so the cyclic collector, which `cli.main`
pauses while a command runs, has nothing to reclaim."""

import gc
import random

import pytest

from cactuspaths.census import clear_caches, enumerate_cacti, random_cactus
from cactuspaths.counting import BudgetExceededError, cactus_path_count, count_paths
from cactuspaths.extremal import extremal_sweep, verify_theorems
from cactuspaths.families import (
    complete_graph,
    cycle_chain,
    cycle_graph,
    pseudo_friendship,
)
from cactuspaths.graphs import (
    DisconnectedError,
    Graph,
    NotCactusError,
    parse_edge_list,
    to_edge_list_text,
    validate_cactus,
)
from cactuspaths.indices import invariant_triple
from cactuspaths.transforms import RULES, maximize_to_fixpoint, minimize_to_fixpoint

# one input on which each rule fires
RULE_INPUTS = {
    "bridge-slide": Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "chain-straighten": pseudo_friendship(7, 3),
    "shrink": cycle_chain([3, 4, 3]),
    "balance": cycle_chain([3, 3, 5]),
    "to-triangle": cycle_graph(5),
    "split": cycle_chain([3, 3, 3]),
}


@pytest.fixture(autouse=True)
def collector_off():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def unreachable_after(pipeline) -> int:
    """The objects the cyclic collector finds unreachable once pipeline()
    has run and its result is dropped."""
    gc.collect()
    pipeline()
    return gc.collect()


def raises(pipeline, error):
    def run():
        try:
            pipeline()
        except error:
            return
        raise AssertionError(f"{error.__name__} not raised")

    return run


def test_count_pipeline():
    text = to_edge_list_text(random_cactus(2000, 500, random.Random(9)))

    def count():
        profile = validate_cactus(parse_edge_list(text))
        return cactus_path_count(profile), profile.to_json()

    assert unreachable_after(count) == 0


def test_invariant_triple_on_a_cactus_and_on_a_non_cactus():
    assert unreachable_after(lambda: invariant_triple(random_cactus(40, 10, random.Random(3)))) == 0
    assert unreachable_after(lambda: invariant_triple(complete_graph(5))) == 0


def test_census_and_sweeps():
    clear_caches()
    assert unreachable_after(lambda: enumerate_cacti(9, 2)) == 0
    assert unreachable_after(lambda: verify_theorems(9, 2)) == 0
    assert unreachable_after(lambda: extremal_sweep(9, 2, "subtrees")) == 0


def test_fixpoint_drivers_and_rules():
    g = random_cactus(120, 30, random.Random(5))
    assert unreachable_after(lambda: maximize_to_fixpoint(g)) == 0
    assert unreachable_after(lambda: minimize_to_fixpoint(g)) == 0
    for name, rule in RULES.items():
        assert unreachable_after(lambda: rule(RULE_INPUTS[name])) == 0, name


def test_error_paths():
    assert unreachable_after(raises(lambda: count_paths(complete_graph(7), budget=20), BudgetExceededError)) == 0
    assert unreachable_after(raises(lambda: validate_cactus(complete_graph(4)), NotCactusError)) == 0
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert unreachable_after(raises(lambda: validate_cactus(disconnected), DisconnectedError)) == 0
