import pytest

from robonet import cli
from robonet.digraph import Digraph, new_digraph
from robonet.errors import (
    EmptyRootSetError,
    GraphFormatError,
    GraphTooLargeError,
    IndexOutOfRangeError,
    RootInEdgeHeadError,
    SelfLoopError,
)
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
        with pytest.warns(UserWarning, match="dropped self-loop 2->2"):
            g = parse_dot_graph(text, strip_self_loops=True)
        assert g == new_digraph(2, [1], [(1, 2)])

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

# each faulty graph file, the error it raises and its message; the checks run
# in a fixed order (entry shapes, vertex count, roots, the first edge outside
# 1..n in file order, the empty root set, then the least self-loop or root
# in-edge), so a file with several faults always reports the same one
_FAULTS = [
    ('{"n": 0, "roots": [1], "edges": []}', IndexOutOfRangeError, "vertex count must be positive, got 0"),
    ('{"n": 100001, "roots": [1], "edges": []}', GraphTooLargeError, "vertex count 100001 exceeds the limit of 100000"),
    ('{"n": 3, "roots": [4], "edges": [[1, 2]]}', IndexOutOfRangeError, "root 4 outside 1..3"),
    ('{"n": 3, "roots": [0], "edges": []}', IndexOutOfRangeError, "root 0 outside 1..3"),
    ('{"n": 3, "roots": [], "edges": [[1, 2]]}', EmptyRootSetError, "the root-set must not be empty"),
    ('{"n": 3, "roots": [1], "edges": [[1, 4]]}', IndexOutOfRangeError, "edge 1->4 outside 1..3"),
    ('{"n": 3, "roots": [1], "edges": [[0, 2]]}', IndexOutOfRangeError, "edge 0->2 outside 1..3"),
    ('{"n": 3, "roots": [1], "edges": [[1, 2], [5, 9], [9, 5]]}', IndexOutOfRangeError, "edge 5->9 outside 1..3"),
    # the first out-of-range edge in file order, even after a lesser fault
    ('{"n": 3, "roots": [1], "edges": [[2, 2], [3, 1], [1, 7]]}', IndexOutOfRangeError, "edge 1->7 outside 1..3"),
    ('{"n": 3, "roots": [], "edges": [[2, 2], [1, 7]]}', IndexOutOfRangeError, "edge 1->7 outside 1..3"),
    # a malformed entry is reported before any out-of-range one
    ('{"n": 3, "roots": [1], "edges": [[1, 9], [1]]}', GraphFormatError, '"edges" entry [1] is not a [tail, head] pair'),
    ('{"n": 3, "roots": [1], "edges": [[9, 9], [1, "2"]]}', GraphFormatError, "\"edges\" entry [1, '2'] is not a [tail, head] pair"),
    ('{"n": 3, "roots": [], "edges": [[2, 2]]}', EmptyRootSetError, "the root-set must not be empty"),
    ('{"n": 3, "roots": [1], "edges": [[1, 2], [2, 2]]}', SelfLoopError,
     "self-loop 2->2: follower self-loops are implicit in the model and must be omitted"),
    ('{"n": 3, "roots": [1], "edges": [[1, 2], [2, 1]]}', RootInEdgeHeadError, "edge 2->1 enters root 1; roots never receive edges"),
    ('{"n": 3, "roots": [1, 2], "edges": [[1, 2]]}', RootInEdgeHeadError, "edge 1->2 enters root 2; roots never receive edges"),
    # the least faulty edge wins between self-loops and root in-edges
    ('{"n": 4, "roots": [1], "edges": [[3, 3], [4, 1], [2, 1], [1, 2]]}', RootInEdgeHeadError,
     "edge 2->1 enters root 1; roots never receive edges"),
    ('{"n": 4, "roots": [1], "edges": [[3, 1], [4, 4], [2, 2]]}', SelfLoopError,
     "self-loop 2->2: follower self-loops are implicit in the model and must be omitted"),
    ('{"n": 3, "roots": [3, 1, 3], "edges": [[2, 3], [1, 2], [1, 3]]}', RootInEdgeHeadError,
     "edge 1->3 enters root 3; roots never receive edges"),
]


class TestValidationErrors:
    @pytest.mark.parametrize("text,error,message", _FAULTS)
    def test_parse_raises_the_first_fault(self, text, error, message):
        with pytest.raises(error) as caught:
            parse_json_graph(text)
        assert type(caught.value) is error and str(caught.value) == message

    @pytest.mark.parametrize("text,error,message", _FAULTS)
    def test_cli_exits_2_with_the_message(self, text, error, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["analyze", str(path), "--degrees"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_stripped_self_loops_warn_before_the_fault(self, tmp_path, capsys):
        text = '{"n": 4, "roots": [1], "edges": [[3, 3], [2, 1], [2, 2], [1, 9]]}'
        with pytest.warns(UserWarning) as warned:
            with pytest.raises(IndexOutOfRangeError, match=r"^edge 1->9 outside 1\.\.4$"):
                parse_json_graph(text, strip_self_loops=True)
        assert [str(w.message) for w in warned] == [
            f"dropped self-loop {v}->{v}: follower self-loops are implicit in the model" for v in (3, 2)
        ]
        path = tmp_path / "bad.json"
        path.write_text(text.replace("[1, 9]", "[1, 3]"))
        assert cli.main(["analyze", str(path), "--degrees", "--strip-self-loops"]) == 2
        # a file that fails still prints the self-loops it dropped, before its error
        assert capsys.readouterr().err == "".join(
            f"warning: dropped self-loop {v}->{v}: follower self-loops are implicit in the model\n" for v in (3, 2)
        ) + "error: edge 2->1 enters root 1; roots never receive edges\n"

    def test_a_valid_file_equals_the_checked_graph(self):
        # the file path builds the same value as the checking constructor
        text = '{"n": 4, "roots": [2, 1, 2], "edges": [[2, 4], [1, 3], [true, 4], [1, 3], [3, 4]]}'
        g = parse_json_graph(text)
        checked = Digraph(frozenset({1, 2, 3, 4}), (1, 2), frozenset({(1, 3), (1, 4), (2, 4), (3, 4)}))
        assert g == checked and g.roots == (1, 2)
        assert all(type(x) is int for edge in g.edges for x in edge)
        assert g._succ == checked._succ and g._pred == checked._pred
