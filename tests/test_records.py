"""The package's frozen records, and what importing the package costs.

Each record is a plain class over a fixed list of fields (_record.Record).
These tests pin the behaviour the records had as frozen dataclasses: the
constructor's signature, equality with records of the same class only, the
hash of the field tuple, the repr text, refusal of assignment and deletion,
and pickle and copy round trips."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cactuspaths.extremal import ArgEntry, Check, ExtremalReport, VerificationReport, _RowGraphs
from cactuspaths.families import FamilySpec
from cactuspaths.formulas import PtcShape
from cactuspaths.graphs import (
    Block,
    BlockCutTree,
    CactusProfile,
    Graph,
    RootedBlockCutTree,
    validate_cactus,
)
from cactuspaths.indices import InvariantTriple
from cactuspaths.transforms import TransformResult

EDGE = Graph(2, frozenset({(0, 1)}))
PATH = Graph(3, frozenset({(0, 1)})).add_edge(1, 2)
BRIDGE = Block("bridge", (0, 1), ((0, 1),))
TREE = BlockCutTree((BRIDGE,), frozenset(), ((),))
CHECK = Check("pn-min", True, True, "ok")

# each record class, its field names in constructor order, one record's
# field values, and that record's repr as the frozen dataclass printed it
CASES = [
    (Graph, ("n", "edges"), (2, frozenset({(0, 1)})), "Graph(n=2, edges=frozenset({(0, 1)}))"),
    (
        Block,
        ("kind", "vertices", "edges"),
        ("bridge", (0, 1), ((0, 1),)),
        "Block(kind='bridge', vertices=(0, 1), edges=((0, 1),))",
    ),
    (
        BlockCutTree,
        ("blocks", "cut_vertices", "incidence"),
        ((BRIDGE,), frozenset(), ((),)),
        "BlockCutTree(blocks=(Block(kind='bridge', vertices=(0, 1), edges=((0, 1),)),),"
        " cut_vertices=frozenset(), incidence=((),))",
    ),
    (
        RootedBlockCutTree,
        ("parent", "order", "depth", "node", "cuts", "rings"),
        ((-1,), (0,), (0,), (0, 0), (), ((0, 1),)),
        "RootedBlockCutTree(parent=(-1,), order=(0,), depth=(0,), node=(0, 0), cuts=(),"
        " rings=((0, 1),))",
    ),
    (
        CactusProfile,
        ("graph", "tree"),
        (EDGE, TREE),
        "CactusProfile(graph=Graph(n=2, edges=frozenset({(0, 1)})),"
        " tree=BlockCutTree(blocks=(Block(kind='bridge', vertices=(0, 1), edges=((0, 1),)),),"
        " cut_vertices=frozenset(), incidence=((),)))",
    ),
    (_RowGraphs, ("n", "rows"), (3, (b"\x00\x02",)), "_RowGraphs(n=3, rows=(b'\\x00\\x02',))"),
    (
        ArgEntry,
        ("key", "graph"),
        (b"k", EDGE),
        "ArgEntry(key=b'k', graph=Graph(n=2, edges=frozenset({(0, 1)})))",
    ),
    (
        ExtremalReport,
        ("n", "k", "invariant", "min_value", "max_value", "argmin", "argmax", "census",
         "values", "keys"),
        (2, 0, "pn", 3, 3, (), (), (EDGE,), (3,), (b"k",)),
        "ExtremalReport(n=2, k=0, invariant='pn', min_value=3, max_value=3, argmin=(),"
        " argmax=(), census=(Graph(n=2, edges=frozenset({(0, 1)})),), values=(3,), keys=(b'k',))",
    ),
    (
        Check,
        ("name", "applicable", "passed", "detail"),
        ("pn-min", True, None, "ok"),
        "Check(name='pn-min', applicable=True, passed=None, detail='ok')",
    ),
    (
        VerificationReport,
        ("n", "k", "checks"),
        (5, 2, (CHECK,)),
        "VerificationReport(n=5, k=2, checks=(Check(name='pn-min', applicable=True,"
        " passed=True, detail='ok'),))",
    ),
    (
        FamilySpec,
        ("family", "n", "k", "lengths", "tree_n", "tree_edges", "attach"),
        ("end_triangle", None, None, (), 2, ((0, 1),), (1,)),
        "FamilySpec(family='end_triangle', n=None, k=None, lengths=(), tree_n=2,"
        " tree_edges=((0, 1),), attach=(1,))",
    ),
    (PtcShape, ("n", "k", "n1", "n2"), (7, 2, 4, 3), "PtcShape(n=7, k=2, n1=4, n2=3)"),
    (
        InvariantTriple,
        ("pn", "wiener", "subtrees"),
        (6, 4, 6),
        "InvariantTriple(pn=6, wiener=4, subtrees=6)",
    ),
    (
        TransformResult,
        ("rule", "before", "after", "pn_before", "pn_after", "removed", "added"),
        ("shrink", EDGE, EDGE, 3, 3, ((0, 1),), ((0, 1),)),
        "TransformResult(rule='shrink', before=Graph(n=2, edges=frozenset({(0, 1)})),"
        " after=Graph(n=2, edges=frozenset({(0, 1)})), pn_before=3, pn_after=3,"
        " removed=((0, 1),), added=((0, 1),))",
    ),
]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_a_record_behaves_as_its_frozen_dataclass_did(cls, names, values, text):
    r = cls(*values)
    assert r == cls(**dict(zip(names, values)))
    assert tuple(getattr(r, name) for name in names) == values
    assert repr(r) == text
    assert hash(r) == hash(values)
    assert r != values and values != r
    for other, _, other_values, _ in CASES:  # a record of another class is never equal
        if other is not cls:
            assert r != other(*other_values)
            if len(other_values) == len(values) and other not in (Graph, Block):
                assert r != other(*values) and other(*values) != r
    for name in names:
        with pytest.raises(AttributeError):
            setattr(r, name, values[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert getattr(r, names[0]) == values[0]
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r)
    assert hasattr(r, "__dict__") == (cls is not Block)


def test_record_defaults_and_call_errors():
    assert FamilySpec("path") == FamilySpec("path", None, None, (), None, (), ())
    assert FamilySpec("pfg", k=2, n=7) == FamilySpec("pfg", 7, 2)
    for call in (
        lambda: PtcShape(7, 2, 4),  # a field missing
        lambda: PtcShape(7, 2, 4, 3, 0),  # one value too many
        lambda: PtcShape(7, 2, 4, n1=4),  # a field given twice
        lambda: PtcShape(7, 2, 4, m=3),  # no such field
        lambda: FamilySpec(),
        lambda: Graph(2),
        lambda: Block("bridge", (0, 1)),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="not sorted or out of range"):
        Graph(2, frozenset({(1, 0)}))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, frozenset())


def test_a_pickled_profile_keeps_its_tree_and_its_cached_facts():
    profile = validate_cactus(PATH)
    assert profile.tree.rooted.rings == ((1, 2), (0, 1))
    twin = pickle.loads(pickle.dumps(profile))
    assert twin == profile and twin.tree.blocks == profile.tree.blocks
    assert twin.bridges == profile.bridges == ((0, 1), (1, 2))
    assert twin.tree.rooted == profile.tree.rooted


def test_importing_the_package_loads_no_dataclasses_inspect_or_fractions():
    # a fresh interpreter, since this one has long since imported all three
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cactuspaths, cactuspaths.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_package_loads_no_typing_or_random():
    # -S, since site imports both before any user code
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cactuspaths, cactuspaths.cli\n"
        "print(sorted({'typing', 'random'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
