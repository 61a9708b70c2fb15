"""A rewrite step re-decomposes only the blocks it changes: on a long chain
a shrink or balance step moves one vertex between the two rings it edits
and decomposes nothing, however long the chain between them, and
chain_straighten labels the components around one branch node per step."""

import pytest

from cactuspaths import graphs, transforms
from cactuspaths.families import cycle_chain
from cactuspaths.graphs import validate_cactus
from cactuspaths.transforms import maximize_to_fixpoint, minimize_to_fixpoint

from test_pinned_outputs import relabeled_random_cacti


CHAINS = {
    # every interior hexagon shrinks to a triangle, into the nearer end
    "shrink": lambda m: [3] + [6] * m + [3],
    # a triangle chain whose end cycles differ by 8
    "balance": lambda m: [3] + [3] * m + [11],
}


@pytest.mark.parametrize("rule", sorted(CHAINS))
@pytest.mark.parametrize("m", [5, 40])
def test_shrink_and_balance_decompose_a_bounded_graph(monkeypatch, rule, m):
    """The block walk sees the input only: each step edits two cycles and
    hands the walk nothing, for every m, since it moves one vertex from one
    ring into the other."""
    sizes = []
    original = graphs._blocks

    def counted(incident, disc, root):
        sizes.append(len(disc))
        return original(incident, disc, root)

    monkeypatch.setattr(graphs, "_blocks", counted)
    g = cycle_chain(CHAINS[rule](m))
    _, history = maximize_to_fixpoint(g)
    monkeypatch.undo()
    assert {step.rule for step in history} == {rule}
    assert sizes == [g.n]  # the input, and no step
    for step in history:
        edited = [
            b for b in validate_cactus(step.before).tree.blocks if set(b.edges) & set(step.removed)
        ]
        assert len(edited) == 2


def test_components_are_listed_once_per_step(monkeypatch):
    """Both drivers on the pinned cacti: only chain_straighten labels the
    tree's nodes by the neighbour of a node through which they hang, once
    per step; shrink counts its sides off the tree's runs, and a rule that
    does not apply labels nothing."""
    calls = []
    original = transforms._neighbour_labels

    def counted(rooted, x):
        calls.append(x)
        return original(rooted, x)

    monkeypatch.setattr(transforms, "_neighbour_labels", counted)
    for g in relabeled_random_cacti(77, 20, 60):
        for driver in (maximize_to_fixpoint, minimize_to_fixpoint):
            calls.clear()
            _, history = driver(g)
            assert len(calls) == sum(s.rule == "chain-straighten" for s in history)
