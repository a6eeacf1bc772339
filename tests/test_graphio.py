import pytest

from robonet.digraph import new_digraph
from robonet.errors import GraphFormatError, RootInEdgeHeadError, SelfLoopError
from robonet.graphio import (
    dumps_json_graph,
    graph_to_dot,
    graph_to_json_dict,
    parse_dot_graph,
    parse_graph_text,
    parse_json_graph,
)
from robonet.oracle import random_digraph


class TestJson:
    def test_round_trip(self, g4):
        assert parse_json_graph(dumps_json_graph(g4)) == g4

    def test_dict_shape(self, path3):
        assert graph_to_json_dict(path3) == {
            "n": 3,
            "roots": [1],
            "edges": [[1, 2], [2, 3]],
        }

    def test_missing_keys(self):
        with pytest.raises(GraphFormatError, match="missing"):
            parse_json_graph('{"n": 3, "roots": [1]}')

    def test_bad_json(self):
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            parse_json_graph("{nope")

    def test_bad_edge_shape(self):
        with pytest.raises(GraphFormatError, match="pair"):
            parse_json_graph('{"n": 2, "roots": [1], "edges": [[1, 2, 3]]}')

    def test_first_malformed_edge_entry_is_quoted(self):
        for entries, quoted in (
            ("[[1, 2], 7, [2, 3, 4]]", "7"),
            ('[[1, 2], "23", 7]', "'23'"),
            ('[[1, 2], {"1": 2, "3": 4}]', "{'1': 2, '3': 4}"),
            ("[[1, 2], [2, 3, 4], 7]", "[2, 3, 4]"),
            ("[[1, 2], [2], [1]]", "[2]"),
            ("[[1, 2], []]", "[]"),
            ("[[1, 2], [0, 1, 2, 3, 4, 5, 6, 7]]", "[0, 1, 2, 3, 4, 5, ...]"),
            ('[[1, 2], [1, "3"], [1.0, 2]]', "[1, '3']"),
            ("[[1, 2], [1.0, 2]]", "[1.0, 2]"),
            ("[[1, 2], [2, null]]", "[2, None]"),
            ("[[1, 2], [[1], 2]]", "[[1], 2]"),
        ):
            with pytest.raises(GraphFormatError) as caught:
                parse_json_graph(f'{{"n": 3, "roots": [1], "edges": {entries}}}')
            assert str(caught.value) == f'"edges" entry {quoted} is not a [tail, head] pair'

    def test_boolean_endpoints_are_integers(self):
        g = parse_json_graph('{"n": 2, "roots": [1], "edges": [[true, 2]]}')
        assert g == new_digraph(2, [1], [(1, 2)])

    def test_bad_types(self):
        with pytest.raises(GraphFormatError):
            parse_json_graph('{"n": "3", "roots": [1], "edges": []}')
        with pytest.raises(GraphFormatError):
            parse_json_graph('{"n": 3, "roots": "1", "edges": []}')

    def test_model_validation_still_applies(self):
        with pytest.raises(RootInEdgeHeadError):
            parse_json_graph('{"n": 2, "roots": [1], "edges": [[2, 1]]}')

    def test_holed_graph_is_not_exportable(self, path3):
        with pytest.raises(GraphFormatError, match="contiguous"):
            graph_to_json_dict(path3.remove_vertices({2}))


class TestDot:
    def test_basic_parse(self):
        g = parse_dot_graph(
            """
            digraph {
              1 [root=true];
              3;
              1 -> 2;
              2 -> 3
            }
            """
        )
        assert g == new_digraph(3, [1], [(1, 2), (2, 3)])

    def test_vertex_count_from_max_id(self):
        g = parse_dot_graph("digraph { 1 [root=true]; 5; 1 -> 2; }")
        assert g.n == 5

    def test_named_graph(self):
        g = parse_dot_graph("digraph net { 1 [root=true]; 1 -> 2; }")
        assert g.n == 2

    def test_round_trip(self, g4):
        assert parse_dot_graph(graph_to_dot(g4)) == g4

    def test_chain_rejected_with_position(self):
        with pytest.raises(GraphFormatError, match=r"line 1 col 33: edge chains"):
            parse_dot_graph("digraph { 1 [root=true]; 1 -> 2 -> 3; }")

    def test_edge_attributes_rejected(self):
        with pytest.raises(GraphFormatError, match="edge attributes"):
            parse_dot_graph('digraph { 1 [root=true]; 1 -> 2 [style=dotted]; }')

    def test_unknown_node_attribute_rejected(self):
        with pytest.raises(GraphFormatError, match="unsupported node attribute"):
            parse_dot_graph("digraph { 1 [root=true, color=red]; 1 -> 2; }")

    def test_unsupported_construct(self):
        with pytest.raises(GraphFormatError, match="unsupported construct"):
            parse_dot_graph("digraph { subgraph { 1; } }")

    def test_bad_character(self):
        with pytest.raises(GraphFormatError, match="unexpected character"):
            parse_dot_graph("digraph { 1 -> 2; % }")

    def test_self_loop_rejected_then_stripped(self):
        text = "digraph { 1 [root=true]; 1 -> 2; 2 -> 2; }"
        with pytest.raises(SelfLoopError):
            parse_dot_graph(text)
        assert parse_dot_graph(text, strip_self_loops=True) == new_digraph(2, [1], [(1, 2)])

    def test_truncated_input(self):
        with pytest.raises(GraphFormatError, match="unexpected end"):
            parse_dot_graph("digraph { 1 -> 2; ")


class TestSniffing:
    def test_json_detected(self, path3):
        assert parse_graph_text(dumps_json_graph(path3)) == path3

    def test_dot_detected(self, path3):
        assert parse_graph_text(graph_to_dot(path3)) == path3


def test_random_round_trips():
    for seed in range(50):
        n = 3 + seed % 5
        roots = 1 + seed % 2
        cap = (n - roots) * (n - 1)
        g = random_digraph(n, (seed * 3) % (cap + 1), roots, seed)
        assert parse_json_graph(dumps_json_graph(g)) == g
        assert parse_dot_graph(graph_to_dot(g)) == g