import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cactuspaths.census import random_cactus
from cactuspaths.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, EXIT_VERIFY, main
from cactuspaths.families import (
    MAX_FAMILY_VERTICES,
    complete_graph,
    cycle_chain,
    pseudo_friendship,
    pseudo_triangle_chain,
)
from cactuspaths.formulas import ptc_summation
from cactuspaths.graphs import to_edge_list_text
from cactuspaths.transforms import RULES


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(to_edge_list_text(complete_graph(4)))
    return str(path)


def test_pn_family_cycle(capsys):
    code, out, _ = run(capsys, ["pn", "--family", "cycle", "--n", "5"])
    assert code == EXIT_OK and out == "25\n"


def test_pn_family_ptc(capsys):
    code, out, _ = run(capsys, ["pn", "--family", "ptc", "--n", "14", "--k", "5"])
    assert code == EXIT_OK and out == "904\n"


def test_pn_oracle_on_file(capsys, k4_file):
    code, out, _ = run(capsys, ["pn", "--in", k4_file, "--oracle"])
    assert code == EXIT_OK and out == "34\n"


def test_pn_non_cactus_falls_back_to_oracle(capsys, k4_file):
    code, out, _ = run(capsys, ["pn", "--in", k4_file])
    assert code == EXIT_OK and out == "34\n"


def test_pn_on_many_isolated_vertices(capsys, tmp_path):
    path = tmp_path / "isolated.edges"
    path.write_text("200000 0\n")
    code, out, err = run(capsys, ["pn", "--in", str(path)])
    assert (code, out, err) == (EXIT_OK, "200000\n", "")


def test_pn_check_mode(capsys):
    code, out, _ = run(capsys, ["pn", "--family", "pfg", "--n", "10", "--k", "3", "--check"])
    assert code == EXIT_OK
    assert out == "fast 118\noracle 118\n"


def test_pn_check_overrides_oracle_flag(capsys):
    code, out, _ = run(
        capsys, ["pn", "--family", "cycle", "--n", "6", "--oracle", "--check"]
    )
    assert code == EXIT_OK and out == "fast 36\noracle 36\n"


def test_pn_check_rejects_non_cactus(capsys, k4_file):
    code, _, err = run(capsys, ["pn", "--in", k4_file, "--check"])
    assert code == EXIT_INVALID and "cactus" in err


def test_pn_json_format(capsys):
    code, out, _ = run(capsys, ["pn", "--family", "cycle", "--n", "6", "--format", "json"])
    assert code == EXIT_OK and json.loads(out) == {"pn": "36"}


def test_family_output_parses_back(capsys):
    code, out, _ = run(capsys, ["family", "ptc", "--n", "9", "--k", "3"])
    assert code == EXIT_OK
    from cactuspaths.graphs import parse_edge_list

    assert parse_edge_list(out) == pseudo_triangle_chain(9, 3)


def test_family_missing_parameter(capsys):
    code, _, err = run(capsys, ["family", "ptc", "--n", "9"])
    assert code == EXIT_INVALID and "--k" in err


def test_family_end_triangle(capsys):
    def family(tree_edges: str):
        return run(
            capsys,
            [
                "family",
                "end_triangle",
                "--tree-n",
                "4",
                "--tree-edges",
                tree_edges,
                "--attach",
                "0,0,0",
            ],
        )

    plain = family("0-1,0-2,0-3")
    code, out, _ = plain
    assert code == EXIT_OK
    # empty parts of --tree-edges are skipped
    assert family("0-1,,0-2,0-3,") == plain
    from cactuspaths.census import canonical_key
    from cactuspaths.families import pseudo_friendship
    from cactuspaths.graphs import parse_edge_list

    assert canonical_key(parse_edge_list(out)) == canonical_key(pseudo_friendship(10, 3))


def test_reconcile_table(capsys):
    code, out, _ = run(
        capsys, ["reconcile", "--n-min", "7", "--n-max", "9", "--k-max", "3"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,oracle,summation,printed,printed_minus_summation"
    assert "7,2,67,67,83,16" in lines
    assert "8,2,88,88,209/2,33/2" in lines
    assert "9,3,159,159,175,16" in lines


def test_reconcile_empty_range(capsys):
    code, out, _ = run(capsys, ["reconcile", "--n-min", "9", "--n-max", "8", "--k-max", "2"])
    assert code == EXIT_OK
    assert out == "n,k,oracle,summation,printed,printed_minus_summation\n"


def test_reconcile_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        ["reconcile", "--n-min", "7", "--n-max", "7", "--k-max", "2", "--out", str(target)],
    )
    assert code == EXIT_OK and "wrote 1 rows" in out
    assert target.read_text().count("\n") == 2


def test_transform_cli(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("4 4\n0 1\n1 2\n0 2\n2 3\n")
    code, out, _ = run(capsys, ["transform", "--rule", "bridge-slide", "--in", str(path)])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["pn_before"] == "15" and data["pn_after"] == "16"
    assert data["rule"] == "bridge-slide"
    assert data["before"]["n"] == data["after"]["n"] == 4


def test_transform_cli_precondition_error(capsys, tmp_path):
    path = tmp_path / "c5.edges"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, _, err = run(capsys, ["transform", "--rule", "bridge-slide", "--in", str(path)])
    assert code == EXIT_INVALID and "bridge" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, ["sweep", "--n", "5", "--k", "2", "--invariant", "pn"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "canonical_key,value,is_argmin,is_argmax,representative_edges"
    assert len(lines) == 2 and ",33,true,true," in lines[1]


def test_verify_cli_pass(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "6", "--k", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["all_passed"] is True


def test_verify_cli_pn_only(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "10", "--k", "3", "--invariant", "pn"])
    assert code == EXIT_OK
    data = json.loads(out)
    min_check = next(c for c in data["checks"] if c["name"] == "pn_min_is_end_triangle_family")
    assert min_check["passed"] is True
    assert "wiener_min_is_pfg" not in {c["name"] for c in data["checks"]}


def test_verify_cli_repeated_invariant_matches_a_single_one(capsys):
    single = run(capsys, ["verify", "--n", "7", "--k", "2", "--invariant", "pn"])
    doubled = run(capsys, ["verify", "--n", "7", "--k", "2", "--invariant", "pn", "--invariant", "pn"])
    assert doubled[:2] == single[:2]
    assert single[0] == EXIT_OK


def test_verify_cli_failure_exit_code(capsys, monkeypatch):
    import cactuspaths.cli as cli
    from cactuspaths.extremal import Check, VerificationReport

    def fake(*args, **kwargs):
        return VerificationReport(6, 2, (Check("pn_max_is_ptc", True, False, "forced"),))

    monkeypatch.setattr(cli, "verify_theorems", fake)
    code, out, _ = run(capsys, ["verify", "--n", "6", "--k", "2"])
    assert code == EXIT_VERIFY
    assert json.loads(out)["all_passed"] is False


def test_indices_cli(capsys, tmp_path):
    path = tmp_path / "pfg.edges"
    from cactuspaths.families import pseudo_friendship

    path.write_text(to_edge_list_text(pseudo_friendship(10, 3)))
    code, out, _ = run(capsys, ["indices", str(path)])
    assert code == EXIT_OK
    assert json.loads(out) == {"pn": "118", "wiener": "78", "subtrees": "1740"}


def test_indices_cli_edge_cases(capsys, tmp_path):
    disconnected = "error: invariant_triple requires a connected graph\n"
    cases = (
        ("4 2\n0 1\n2 3\n", EXIT_INVALID, "", disconnected),  # a cactus but for connectivity
        ("5 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n", EXIT_INVALID, "", disconnected),  # K_4 and K_1
        ("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", EXIT_OK, '{"pn": "34", "subtrees": "38", "wiener": "6"}\n', ""),
        ("0 0\n", EXIT_OK, '{"pn": "0", "subtrees": "0", "wiener": "0"}\n', ""),
        ("1 0\n", EXIT_OK, '{"pn": "1", "subtrees": "1", "wiener": "0"}\n', ""),
    )
    path = tmp_path / "g.edges"
    for text, *expected in cases:
        path.write_text(text)
        assert list(run(capsys, ["indices", str(path)])) == expected, text


def test_profile_cli(capsys):
    code, out, _ = run(capsys, ["profile", "--family", "pfg", "--n", "10", "--k", "3"])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["k"] == 3 and data["intersection_vertices"] == [0]
    assert len(data["cycles"]) == 3 and len(data["bridges"]) == 3
    assert data["graph"]["n"] == 10


def test_profile_cli_rejects_non_cactus(capsys, k4_file):
    code, _, err = run(capsys, ["profile", "--in", k4_file])
    assert code == EXIT_INVALID and "neither an edge nor a cycle" in err


@pytest.mark.parametrize(
    "text, report",
    [
        (
            "0 0\n",
            '{"bridges": [], "cycles": [], "end_cycles": [], "graph": {"edges": [], "n": 0}, '
            '"interior_cycles": [], "intersection_vertices": [], "k": 0, '
            '"tree": {"blocks": [], "cut_vertices": []}}\n',
        ),
        (
            "1 0\n",
            '{"bridges": [], "cycles": [], "end_cycles": [], "graph": {"edges": [], "n": 1}, '
            '"interior_cycles": [], "intersection_vertices": [], "k": 0, '
            '"tree": {"blocks": [], "cut_vertices": []}}\n',
        ),
        (
            "2 1\n0 1\n",
            '{"bridges": [[0, 1]], "cycles": [], "end_cycles": [], '
            '"graph": {"edges": [[0, 1]], "n": 2}, "interior_cycles": [], '
            '"intersection_vertices": [], "k": 0, '
            '"tree": {"blocks": [{"kind": "bridge", "vertices": [0, 1]}], "cut_vertices": []}}\n',
        ),
    ],
)
def test_profile_stdout_is_exact(capsys, tmp_path, text, report):
    path = tmp_path / "g.edges"
    path.write_text(text)
    assert run(capsys, ["profile", "--in", str(path)]) == (EXIT_OK, report, "")


K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 6\n" + K4, "block on vertices (0, 1, 2, 3) is neither an edge nor a cycle"),
        ("4 2\n0 1\n2 3\n", "block_cut_tree requires a connected graph"),
        # two K4s joined by the bridge 3-4: the walk closes the K4 on 4..7
        # first, and the error names the first in edge order
        (
            "8 13\n" + K4 + "3 4\n4 5\n4 6\n4 7\n5 6\n5 7\n6 7\n",
            "block on vertices (0, 1, 2, 3) is neither an edge nor a cycle",
        ),
        ("-1 0\n", "counts must be non-negative, got n=-1 m=0"),
        ("3 -1\n", "counts must be non-negative, got n=3 m=-1"),
    ],
)
def test_profile_errors_write_nothing_to_stdout(capsys, tmp_path, text, message):
    path = tmp_path / "g.edges"
    path.write_text(text)
    assert run(capsys, ["profile", "--in", str(path)]) == (EXIT_INVALID, "", f"error: {message}\n")


def test_empty_graph_is_the_trivial_cactus(capsys, tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("0 0\n")
    assert run(capsys, ["pn", "--in", str(path)]) == (EXIT_OK, "0\n", "")
    assert run(capsys, ["pn", "--oracle", "--in", str(path)]) == (EXIT_OK, "0\n", "")
    code, out, _ = run(capsys, ["profile", "--in", str(path)])
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["k"] == 0 and data["tree"] == {"blocks": [], "cut_vertices": []}
    code, out, _ = run(capsys, ["indices", str(path)])
    assert code == EXIT_OK
    assert json.loads(out) == {"pn": "0", "wiener": "0", "subtrees": "0"}
    code, _, err = run(capsys, ["transform", "--rule", "bridge-slide", "--in", str(path)])
    assert code == EXIT_INVALID and "needs a bridge" in err


def decimal(value: int) -> str:
    """str(value), past the interpreter's int/str digit limit if it has one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_counts_past_the_int_string_limit(capsys, tmp_path):
    # Python 3.10.7+ refuses by default to print an int of over 4,300 digits
    chain = tmp_path / "chain.edges"
    chain.write_text(to_edge_list_text(cycle_chain([3] * 15000)))  # n = 30,001
    code, out, err = run(capsys, ["pn", "--in", str(chain)])
    assert (code, err) == (EXIT_OK, "")
    assert out == decimal(ptc_summation(30001, 15000)) + "\n"
    pfg = tmp_path / "pfg.edges"
    pfg.write_text(to_edge_list_text(pseudo_friendship(11201, 5600)))  # 6^5600 subtrees
    code, out, err = run(capsys, ["indices", str(pfg)])
    assert (code, err) == (EXIT_OK, "")
    assert len(json.loads(out)["subtrees"]) > 4300


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit before Python 3.10.7"
)
def test_main_restores_the_int_string_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for argv, expected in (
            (["pn", "--family", "cycle", "--n", "5"], EXIT_OK),
            (["pn", "--family", "cycle", "--n", "2"], EXIT_INVALID),
        ):
            assert run(capsys, argv)[0] == expected
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


def test_main_pauses_and_restores_the_cyclic_collector(capsys, monkeypatch, k4_file):
    import cactuspaths.cli as cli
    from cactuspaths.extremal import Check, VerificationReport

    during = []

    def failing_verify(*args, **kwargs):
        during.append(gc.isenabled())
        return VerificationReport(6, 2, (Check("pn_max_is_ptc", True, False, "forced"),))

    monkeypatch.setattr(cli, "verify_theorems", failing_verify)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, expected in (
                (["pn", "--family", "cycle", "--n", "5"], EXIT_OK),
                (["pn", "--family", "cycle", "--n", "2"], EXIT_INVALID),
                (["--budget", "20", "indices", k4_file], EXIT_BUDGET),
                (["verify", "--n", "6", "--k", "2"], EXIT_VERIFY),
            ):
                assert run(capsys, argv)[0] == expected, argv
                assert gc.isenabled() is enabled, argv
            with pytest.raises(SystemExit):
                main(["pn", "--family", "no-such-family"])
            assert gc.isenabled() is enabled
        assert during == [False, False]
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_oversized_families_are_refused_before_allocating():
    # at 1 GiB of address space, building any of these families fails
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    huge = "99999999999999999999"
    for argv in (
        ["family", "cycle", "--n", huge],
        ["family", "chain", "--lengths", "100000000000"],
        ["pn", "--family", "cycle", "--n", huge],
        ["profile", "--family", "ptc", "--n", huge, "--k", "3"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cactuspaths", *argv],
            env=env,
            preexec_fn=cap_memory,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_INVALID, ""), argv
        assert f"over the limit of {MAX_FAMILY_VERTICES}" in proc.stderr, argv


def test_indices_non_cactus_is_bounded_by_the_budget(capsys, tmp_path):
    path = tmp_path / "k7.edges"
    path.write_text(to_edge_list_text(complete_graph(7)))
    code, _, err = run(capsys, ["--budget", "20", "indices", str(path)])
    assert code == EXIT_BUDGET and "exceeded 20" in err


def test_oversized_vertex_count_gets_a_documented_exit(capsys, tmp_path):
    path = tmp_path / "huge.edges"
    path.write_text("10000000000000000000 0\n")
    code, _, err = run(capsys, ["pn", "--in", str(path)])
    assert code == EXIT_BUDGET and "extension steps" in err
    for argv in (["indices", str(path)], ["profile", "--in", str(path)]):
        code, _, err = run(capsys, argv)
        assert code == EXIT_INVALID and "connected" in err
    # lifting the digit limit for output leaves it on input: no quadratic int()
    path.write_text("1" + "0" * 10**6 + " 0\n")
    code, _, err = run(capsys, ["pn", "--in", str(path)])
    assert code == EXIT_INVALID and "header must be two integers" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("11 1\n0 1_0\n", "edge line must be two integers"),
        ("3 1\n0 +1\n", "edge line must be two integers"),
        ("3 1\n0 \u0661\n", "edge line must be two integers"),
        ("+3 1\n0 1\n", "header must be two integers"),
    ],
)
def test_integer_literal_syntax_is_not_a_label(capsys, tmp_path, text, message):
    path = tmp_path / "literal.edges"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["pn", "--in", str(path)])
    assert code == EXIT_INVALID and out == "" and message in err


@st.composite
def near_miss_edge_lists(draw):
    """Edge-list text that is valid or one slip away from it: a random
    cactus with an edge added or dropped, or arbitrary pairs under a header
    whose edge count may be off by one."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        k = draw(st.integers(0, (n - 1) // 2))
        g = random_cactus(n, k, random.Random(draw(st.integers(0, 10**6))))
        edges = [list(e) for e in g.sorted_edges]
        if edges and draw(st.booleans()):
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        else:
            edges.append([draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))])
        m = len(edges)
    else:
        n = draw(st.integers(0, 8))
        vertex = st.integers(-1, n)
        edges = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=12))
        m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return "\n".join([f"{n} {m}"] + [f"{u} {v}" for u, v in edges]) + "\n"


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.edges"


@given(
    text=st.one_of(near_miss_edge_lists(), st.text(st.characters(blacklist_categories=("Cs",)))),
    command=st.sampled_from(["pn", "check", "profile", "indices", "transform"]),
    rule=st.sampled_from(sorted(RULES)),
)
@settings(max_examples=300, deadline=None)
def test_every_input_gets_a_documented_exit(fuzz_file, text, command, rule):
    path = fuzz_file
    path.write_text(text, encoding="utf-8")
    argv = {
        "pn": ["pn", "--in", str(path)],
        "check": ["pn", "--check", "--in", str(path)],
        "profile": ["profile", "--in", str(path)],
        "indices": ["indices", str(path)],
        "transform": ["transform", "--rule", rule, "--in", str(path)],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--budget", "20000"] + argv)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_BUDGET, EXIT_VERIFY)
    assert "Traceback" not in err.getvalue()


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 1\n0 0\n")
    code, _, err = run(capsys, ["pn", "--in", str(path)])
    assert code == EXIT_INVALID and "self-loop" in err


def test_missing_input_exit_code(capsys):
    code, _, err = run(capsys, ["pn"])
    assert code == EXIT_INVALID and "--family" in err


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, ["--budget", "5", "pn", "--family", "cycle", "--n", "12", "--oracle"]
    )
    assert code == EXIT_BUDGET and "extension steps" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CACTUSPATHS_BUDGET", "5")
    code, _, _ = run(capsys, ["pn", "--family", "cycle", "--n", "12", "--oracle"])
    assert code == EXIT_BUDGET


def test_census_guard_exit_code(capsys):
    code, _, err = run(capsys, ["--guard", "3", "sweep", "--n", "8", "--k", "2"])
    assert code == EXIT_BUDGET and "guard" in err


def test_census_guard_binds_every_census_read(capsys):
    # each census here is grown from hundreds of smaller ones, most of them
    # far over the guard: the first one over it must stop the command
    for argv in (
        ["verify", "--n", "1200", "--k", "0"],
        ["sweep", "--n", "1200", "--k", "0"],
        ["verify", "--n", "30", "--k", "14"],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["--guard", "5", *argv])
        assert time.perf_counter() - start < 1.0, argv
        assert code == EXIT_BUDGET and out == "" and "guard 5" in err, argv


def test_bad_config_rejected(capsys):
    code, _, err = run(capsys, ["--budget", "0", "pn", "--family", "cycle", "--n", "5"])
    assert code == EXIT_INVALID


def test_zero_guard_rejected(capsys):
    code, out, err = run(capsys, ["--guard", "0", "sweep", "--n", "6", "--k", "2"])
    assert (code, out, err) == (EXIT_INVALID, "", "error: census guard must be positive\n")


def test_outputs_are_reproducible(capsys):
    argv = ["verify", "--n", "7", "--k", "2", "--invariant", "pn"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    argv = ["sweep", "--n", "6", "--k", "2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2
