"""The cactus census holds each class as one bytes row, the top vertex and
the length of each block, newest block first; the graphs and the hung rings
of a class are decoded from its row."""

import pytest
from test_census_build import A000083

from cactuspaths import census as census_module
from cactuspaths.census import census_rows, row_graph, row_rings
from cactuspaths.graphs import validate_cactus


def cells(max_n):
    return [(n, k) for n in range(1, max_n + 1) for k in range((n - 1) // 2 + 1)]


def test_every_row_up_to_ten_vertices_decodes_to_its_class():
    checked = 0
    for n, k in cells(10):
        for row in census_rows(n, k):
            rings = row_rings(n, row)
            profile = validate_cactus(row_graph(n, row))
            assert (profile.graph.n, profile.k) == (n, k), row
            blocks = sorted(sorted(b.vertices) for b in profile.tree.blocks)
            assert blocks == sorted(map(sorted, rings)), row
            # hung: every vertex but 0 is a non-top vertex of exactly one ring
            assert sorted(v for ring in rings for v in ring[1:]) == list(range(1, n)), row
            checked += 1
    assert checked == sum(A000083[n] for n in range(1, 11))


def test_row_graphs_share_one_tuple_per_edge():
    census = [row_graph(10, row) for row in census_rows(10, 3)]
    edges = [e for g in census for e in g.edges]
    assert len({id(e) for e in edges}) == len(set(edges)) < len(edges)


def test_a_row_refuses_a_label_or_length_past_one_byte():
    assert census_module._push(255, 255, b"\x00\x02") == b"\xff\xff\x00\x02"
    for top, length in ((256, 2), (0, 256), (1000, 3), (-1, 2), (0, 1)):
        with pytest.raises(ValueError, match="below 256, not top"):
            census_module._push(top, length, b"")
