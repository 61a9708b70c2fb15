"""Error paths of the public API and the CLI: each bad input is refused
with the documented exception, message or exit code."""

import pytest

from cactuspaths import census, cli
from cactuspaths.census import all_graphs, cactus_census_sizes, count_automorphisms
from cactuspaths.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_VERIFY, main
from cactuspaths.counting import BudgetExceededError, count_paths, cycles_on_route
from cactuspaths.families import (
    FamilySpec,
    balanced_saw,
    build_family,
    complete_graph,
    cycle_chain,
    path_graph,
    pseudo_friendship,
    star_graph,
)
from cactuspaths.formulas import connected_graph_bounds, min_cactus_path_count
from cactuspaths.graphs import Graph, MalformedLineError, parse_edge_list, validate_cactus
from cactuspaths.transforms import TransformError, balance_end_cycles


# ---------------------------------------------------------------- graphs


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, [], "vertex count must be non-negative, got -1"),
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(2, 1)], "edge (2, 1) not sorted or out of range for n=3"),
        (3, [(1, 3)], "edge (1, 3) not sorted or out of range for n=3"),
    ],
)
def test_graph_refuses_bad_vertex_counts_and_edges(n, edges, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, frozenset(edges))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [([(0, 1), (2, 2)], "self-loop at vertex 2"), ([(0, 1), (1, 0)], "duplicate edge (0, 1)")],
)
def test_from_edges_refuses_self_loops_and_duplicates(edges, message):
    with pytest.raises(ValueError) as exc:
        Graph.from_edges(3, edges)
    assert str(exc.value) == message


def test_edits_refuse_absent_and_present_edges():
    g = path_graph(3)
    with pytest.raises(ValueError, match=r"no edge \(0, 2\) to remove"):
        g.remove_edge(2, 0)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) already present"):
        g.add_edge(1, 0)


def test_parse_refuses_an_overlong_integer_on_an_edge_line():
    text = "2 1\n0 " + "1" * 5000 + "\n"
    with pytest.raises(MalformedLineError, match="edge line must be two integers"):
        parse_edge_list(text)


# ---------------------------------------------------------------- counting


def test_count_paths_budget_binds_a_later_components_start_vertices():
    """The path 0-1-2 takes 3 start and 6 extension steps; the isolated
    vertex 3 is the tenth."""
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert count_paths(g, budget=10) == 7
    with pytest.raises(BudgetExceededError, match="exceeded 9 extension steps"):
        count_paths(g, budget=9)


@pytest.mark.parametrize(
    "x, y, message",
    [
        (1, 1, "endpoints must be distinct"),
        (0, 3, "vertex out of range"),
        (-1, 0, "vertex out of range"),
    ],
)
def test_cycles_on_route_refuses_bad_endpoints(x, y, message):
    profile = validate_cactus(cycle_chain([3]))
    with pytest.raises(ValueError, match=message):
        cycles_on_route(profile, x, y)


# ---------------------------------------------------------------- families and formulas


@pytest.mark.parametrize(
    "spec, expected",
    [
        (FamilySpec("path", n=4), path_graph(4)),
        (FamilySpec("star", n=5), star_graph(5)),
        (FamilySpec("bsg", n=9, k=3), balanced_saw(9, 3)),
    ],
)
def test_build_family_path_star_and_bsg(spec, expected):
    assert build_family(spec) == expected


@pytest.mark.parametrize(
    "build, args, message",
    [
        (path_graph, (0,), "need at least one vertex"),
        (star_graph, (0,), "need at least one vertex"),
        (complete_graph, (0,), "need at least one vertex"),
        (pseudo_friendship, (5, 0), "need at least one triangle"),
        (pseudo_friendship, (4, 2), r"PFG\(4,2\) needs n >= 5"),
    ],
)
def test_constructors_refuse_bad_arguments(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_formulas_and_census_refuse_negative_sizes():
    with pytest.raises(ValueError, match="need at least one vertex"):
        connected_graph_bounds(0)
    with pytest.raises(ValueError, match="cycle count must be non-negative"):
        min_cactus_path_count(5, -1)
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        all_graphs(-1)
    for n in (0, -3):
        with pytest.raises(ValueError, match="need at least one vertex"):
            cactus_census_sizes(n)


def test_the_empty_graph_has_one_automorphism():
    assert count_automorphisms(Graph(0, frozenset())) == 1


# ---------------------------------------------------------------- transforms


def test_balance_refuses_a_chain_with_a_long_interior_cycle():
    with pytest.raises(TransformError, match="shrink interior cycles to triangles first"):
        balance_end_cycles(cycle_chain([3, 4, 3, 5]))


# ---------------------------------------------------------------- CLI


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "chain", "--lengths", "3,x"],
        ["family", "end_triangle", "--tree-n", "3", "--tree-edges", "0-1,x-2"],
        ["family", "end_triangle", "--tree-n", "3", "--tree-edges", "0-,1-2"],
    ],
)
def test_bad_list_flags_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INVALID
    assert "error: argument --" in capsys.readouterr().err


def test_pn_check_json(capsys):
    code = main(["pn", "--family", "cycle", "--n", "5", "--check", "--format", "json"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == '{"fast": "25", "oracle": "25"}\n'


def test_pn_check_reports_a_divergence(capsys, monkeypatch):
    fast = cli.cactus_path_count
    monkeypatch.setattr(cli, "cactus_path_count", lambda profile: fast(profile) + 1)
    code = main(["pn", "--family", "cycle", "--n", "5", "--check"])
    captured = capsys.readouterr()
    assert code == EXIT_VERIFY
    assert captured.out == "fast 26\noracle 25\n"
    assert captured.err == "counter divergence: fast != oracle\n"


def test_a_census_that_runs_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(n, k, limit):
        raise MemoryError

    monkeypatch.setattr(census, "_grow", exhausted)
    census.clear_caches()
    code = main(["verify", "--n", "8", "--k", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
