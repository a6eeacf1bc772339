import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robonet.digraph import (
    Digraph,
    edge_duplicate,
    new_digraph,
    removal_breaks_controllability,
    stranded_followers,
)
from robonet.errors import (
    EmptyRootSetError,
    IndexOutOfRangeError,
    RootInEdgeHeadError,
    RootRemovalError,
    SelfLoopError,
    UnknownEdgeError,
)
from robonet.families import PRESET_KINDS, circulant_rooted, complete_rooted, kautz_rooted, preset
from robonet.oracle import random_digraph

from conftest import digraphs, seeded_sweep


class TestConstruction:
    def test_minimal_path(self, path3):
        assert path3.n == 3
        assert path3.roots == (1,)
        assert path3.followers == (2, 3)
        assert path3.sorted_edges == ((1, 2), (2, 3))

    def test_edge_into_root_rejected(self):
        with pytest.raises(RootInEdgeHeadError):
            new_digraph(3, [1], [(2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            new_digraph(3, [1], [(2, 2)])

    def test_self_loop_stripping_warns(self):
        with pytest.warns(UserWarning, match="self-loop 2->2"):
            g = new_digraph(3, [1], [(1, 2), (2, 2), (2, 3)], strip_self_loops=True)
        assert g.sorted_edges == ((1, 2), (2, 3))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            new_digraph(3, [1], [(1, 4)])
        with pytest.raises(IndexOutOfRangeError):
            new_digraph(3, [4], [])
        with pytest.raises(IndexOutOfRangeError):
            new_digraph(0, [1], [])

    def test_empty_roots(self):
        with pytest.raises(EmptyRootSetError):
            new_digraph(3, [], [(1, 2)])

    def test_duplicate_edges_collapse(self):
        g = new_digraph(3, [1], [(1, 2), (1, 2), (2, 3)])
        assert len(g.edges) == 2

    def test_all_root_graph_is_valid(self):
        g = new_digraph(2, [1, 2], [])
        assert g.followers == ()
        assert g.is_controllable()

    def test_g4_parameters_are_valid(self, g4):
        assert g4.n == 6
        assert len(g4.edges) == 15
        assert g4.is_controllable()

    def test_constructor_reports_the_least_faulty_edge(self):
        # the edges are checked unsorted, yet among several faults the
        # least edge must be reported, by its own fault's class
        rng = random.Random(15)
        faults = set()
        for seed, g in seeded_sweep(300):
            vertices = sorted(g.vertices)
            bad = [(v, v) for v in rng.sample(vertices, min(2, g.n))]
            bad += [(rng.choice(vertices), rng.choice(g.roots)), (rng.choice(vertices), g.n + 1)]
            chosen = rng.sample(bad, rng.randint(1, len(bad)))
            edge_list = list(g.sorted_edges) + chosen
            rng.shuffle(edge_list)
            tail, head = min(chosen)
            if tail == head:
                expected = SelfLoopError
            elif head > g.n:
                expected = IndexOutOfRangeError
            else:
                expected = RootInEdgeHeadError
            with pytest.raises(expected, match=f"^(self-loop|edge) {tail}->{head}[: ]"):
                Digraph(g.vertices, g.roots, frozenset(edge_list))
            faults.add(expected)
        assert faults == {SelfLoopError, IndexOutOfRangeError, RootInEdgeHeadError}


class TestControllability:
    def test_path_controllable(self, path3):
        assert path3.is_controllable()

    def test_isolated_follower(self):
        g = new_digraph(3, [1], [(1, 2)])
        assert not g.is_controllable()
        assert g.unreachable_followers() == (3,)

    def test_multi_root_reach(self):
        g = new_digraph(4, [1, 2], [(1, 3), (2, 4)])
        assert g.is_controllable()


class TestRemoval:
    def test_remove_edge_strands_tail_of_path(self, path3):
        g = path3.remove_edges({(2, 3)})
        assert not g.is_controllable()
        assert g.unreachable_followers() == (3,)

    def test_remove_nothing_is_identity(self, path3):
        assert path3.remove_edges(()) == path3
        assert path3.remove_vertices(()) == path3

    def test_remove_unknown_edge(self, path3):
        with pytest.raises(UnknownEdgeError):
            path3.remove_edges({(1, 3)})

    def test_remove_vertex_drops_incident_edges(self, path3):
        g = path3.remove_vertices({2})
        assert g.vertices == frozenset({1, 3})
        assert g.edges == frozenset()
        assert not g.is_controllable()

    def test_surviving_vertices_keep_ids(self, g4):
        g = g4.remove_vertices({3})
        assert 6 in g.vertices and 3 not in g.vertices
        assert all(3 not in e for e in g.edges)

    def test_root_removal_rejected(self, path3):
        with pytest.raises(RootRemovalError):
            path3.remove_vertices({1})

    def test_remove_unknown_vertex(self, path3):
        with pytest.raises(IndexOutOfRangeError):
            path3.remove_vertices({9})

    def test_inputs_not_mutated(self, path3):
        path3.remove_edges({(1, 2)})
        path3.remove_vertices({3})
        assert path3.sorted_edges == ((1, 2), (2, 3))
        assert path3.vertices == frozenset({1, 2, 3})


class TestCuts:
    def test_path_out_cut(self, path3):
        assert path3.out_cut({1}).members == frozenset({(1, 2)})

    def test_full_vertex_set_has_empty_out_cut(self, path3):
        assert path3.out_cut(path3.vertices).members == frozenset()

    def test_g4_root_out_cut(self, g4):
        cut = g4.out_cut({1})
        assert cut.members == frozenset({(1, 3), (1, 4), (1, 6)})
        assert len(cut) == 3

    def test_in_cut(self, path3):
        assert path3.in_cut({3}).members == frozenset({(2, 3)})
        assert path3.in_cut({1}).members == frozenset()


class TestEdgeDuplicate:
    def test_path_counts(self, path3):
        dup = edge_duplicate(path3)
        assert dup.graph.n == 3 + 2
        assert len(dup.graph.edges) == 2 * 2

    def test_loop_counts(self, loop5):
        dup = edge_duplicate(loop5)
        assert dup.graph.n == 9
        assert len(dup.graph.edges) == 8

    def test_bijection(self, g4):
        dup = edge_duplicate(g4)
        assert len(dup.white_of) + len(dup.black_of) == dup.graph.n
        assert set(dup.white_of.values()) | set(dup.black_of.values()) == dup.graph.vertices

    def test_black_vertices_have_unit_degrees(self, g4):
        dup = edge_duplicate(g4)
        for black in dup.black_of.values():
            assert len(dup.graph.in_edges(black)) == 1
            assert len(dup.graph.out_edges(black)) == 1

    def test_black_numbering_is_lexicographic(self, path3):
        dup = edge_duplicate(path3)
        assert dup.black_of == {(1, 2): 4, (2, 3): 5}
        assert dup.edge_for_black(5) == (2, 3)


class TestBreakConvention:
    def test_wiping_all_followers_breaks(self, star4):
        assert removal_breaks_controllability(star4, vertices={2, 3, 4})

    def test_proper_follower_subsets_do_not_break_a_star(self, star4):
        assert not removal_breaks_controllability(star4, vertices={2, 3})

    def test_plain_unreachability_breaks(self, path3):
        assert removal_breaks_controllability(path3, edges={(2, 3)})
        assert not removal_breaks_controllability(path3)

    def test_masked_walk_matches_built_graphs_on_the_seeded_sweep(self):
        # reference: build the reduced graph and search it
        rng = random.Random(6)
        breaking = 0
        for seed, g in seeded_sweep(500):
            edges, followers = g.sorted_edges, g.followers
            for _ in range(12):
                loss_e = frozenset(rng.sample(edges, rng.randint(0, min(3, len(edges)))))
                loss_v = frozenset(rng.sample(followers, rng.randint(0, len(followers))))
                reduced = g.remove_edges(loss_e).remove_vertices(loss_v)
                stranded = reduced.unreachable_followers()
                assert stranded_followers(g, loss_e, loss_v) == stranded, (seed, loss_e, loss_v)
                expected = bool(stranded) or (bool(followers) and loss_v == frozenset(followers))
                assert removal_breaks_controllability(g, loss_e, loss_v) == expected, (
                    seed, loss_e, loss_v,
                )
                breaking += expected
        assert breaking > 1000

    def test_masked_walk_rejects_what_removal_rejects(self, path3):
        with pytest.raises(UnknownEdgeError):
            removal_breaks_controllability(path3, edges={(3, 2)})
        with pytest.raises(IndexOutOfRangeError):
            removal_breaks_controllability(path3, vertices={9})
        with pytest.raises(RootRemovalError):
            removal_breaks_controllability(path3, vertices={1})
        # deleting every follower breaks by convention, but only once the
        # deletion is valid: each of these names every follower of path3
        with pytest.raises(RootRemovalError):
            removal_breaks_controllability(path3, vertices={1, 2, 3})
        with pytest.raises(IndexOutOfRangeError):
            removal_breaks_controllability(path3, vertices={2, 3, 9})
        with pytest.raises(UnknownEdgeError):
            removal_breaks_controllability(path3, edges={(3, 2)}, vertices={2, 3})



class TestDominators:
    def test_tree_matches_follower_deletions_on_the_seeded_sweep(self):
        # reference: v dominates u when deleting v strands u
        deep = 0
        for seed, g in seeded_sweep(500):
            tree = g._dominators
            assert set(tree) == g.reachable_from_roots() - g.root_set, seed
            for u, (idom, first, _) in tree.items():
                strict = {v for v in tree if v != u and tree[v][1] <= first < tree[v][2]}
                stranding = {v for v in tree if v != u and u in stranded_followers(g, (), {v})}
                assert strict == stranding, (seed, u)
                # the immediate dominator is the one every other dominator dominates
                assert idom == max(strict, key=lambda v: tree[v][1], default=None), (seed, u)
                deep += len(strict) > 1
        assert deep > 50  # 73 followers with two or more strict dominators

    def test_single_deletions_read_off_the_tree_match_the_walk(self, monkeypatch):
        # every follower, every edge and every follower's out-edge set, on
        # controllable graphs: the tree's answer against the masked walk
        graphs = [g for _, g in seeded_sweep(500)]
        for seed in range(120):
            n = 10 + seed % 31
            graphs.append(random_digraph(n, n * (3 + seed % 4), 1 + seed % 3, seed))
        graphs += [preset(kind, n) for kind in PRESET_KINDS for n in (5, 12, 30)]
        graphs += [circulant_rooted(6, (2, 3, 5)), circulant_rooted(12, (1, 2, 3)), complete_rooted(6)]
        graphs += [kautz_rooted(2, 2), kautz_rooted(2, 3), kautz_rooted(3, 2)]
        cases = []
        for g in graphs:
            if not g.followers or not g.is_controllable():
                continue
            shapes = {
                "follower": [(frozenset({v}), frozenset()) for v in g.followers],
                "edge": [(frozenset(), frozenset({edge})) for edge in g.sorted_edges],
                "out-edges": [(frozenset(), frozenset(g.out_edges(v))) for v in g.followers if g.out_edges(v)],
            }
            for shape, deletions in shapes.items():
                cases += [(g, shape, deletion, bool(g._stranded(*deletion))) for deletion in deletions]

        def no_walk(self, *args):
            raise AssertionError("a single deletion of a controllable graph walked")

        monkeypatch.setattr(Digraph, "_stranded", no_walk)
        seen = set()
        for g, shape, deletion, expected in cases:
            assert g._strands(*deletion) == expected, (g, deletion)
            seen.add((shape, expected, len(g.roots) > 1))
        assert len({id(g) for g, *_ in cases}) > 350
        assert seen == {(shape, answer, many) for shape in ("follower", "edge", "out-edges")
                        for answer in (False, True) for many in (False, True)}

    def test_other_deletions_walk(self, monkeypatch):
        g = new_digraph(5, [1], [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
        walked = []
        original = Digraph._stranded

        def counting(self, *args):
            walked.append(args)
            return original(self, *args)

        monkeypatch.setattr(Digraph, "_stranded", counting)
        # single deletions: one edge, every out-edge of a follower, one follower
        assert g._strands(frozenset(), frozenset({(1, 2)}))
        assert not g._strands(frozenset(), frozenset({(2, 3)}))
        assert not g._strands(frozenset(), frozenset(g.out_edges(2)))
        assert not g._strands(frozenset({3}), frozenset())
        assert walked == []
        # two followers, edges of two tails, a part of one follower's
        # out-edges, a root's out-edges, and a deletion from an uncontrollable graph
        assert g._strands(frozenset({2, 3}), frozenset())
        assert not g._strands(frozenset(), frozenset({(2, 4), (3, 5)}))
        assert not g._strands(frozenset(), frozenset({(2, 4), (2, 5)}))
        assert g._strands(frozenset(), frozenset(g.out_edges(1)))
        assert new_digraph(3, [1], [(1, 2)])._strands(frozenset({2}), frozenset())
        assert len(walked) == 5


class TestInEdges:
    def test_match_the_scan_of_sorted_edges_on_the_seeded_sweep(self):
        for seed, g in seeded_sweep(500):
            for v in sorted(g.vertices):
                assert g.in_edges(v) == tuple(e for e in g.sorted_edges if e[1] == v), (seed, v)

    def test_unknown_vertex(self, path3):
        with pytest.raises(IndexOutOfRangeError):
            path3.in_edges(4)

@settings(max_examples=80)
@given(digraphs())
def test_out_cut_matches_definition_scan(g):
    for x in ({1}, set(g.roots), set(g.roots) | set(g.followers[:1])):
        cut = g.out_cut(x)
        assert cut.members == {e for e in g.edges if e[0] in x and e[1] not in x}


@settings(max_examples=80)
@given(digraphs(), st.data())
def test_removal_shrinks_reachability(g, data):
    edges = sorted(g.edges)
    vertices = list(g.followers)
    loss_e = data.draw(st.frozensets(st.sampled_from(edges), max_size=3)) if edges else frozenset()
    loss_v = (
        data.draw(st.frozensets(st.sampled_from(vertices), max_size=2)) if vertices else frozenset()
    )
    reduced = g.remove_edges(loss_e).remove_vertices(loss_v)
    assert reduced.reachable_from_roots() <= g.reachable_from_roots()


@settings(max_examples=80)
@given(digraphs(), st.data())
def test_breaking_persists_under_extra_edge_removal(g, data):
    # Extra vertex removal can repair a break by deleting the stranded
    # follower; extra edge removal never can.
    edges = sorted(g.edges)
    if not edges:
        return
    loss = data.draw(st.frozensets(st.sampled_from(edges), min_size=1))
    extra = data.draw(st.frozensets(st.sampled_from(edges)))
    if removal_breaks_controllability(g, loss):
        assert removal_breaks_controllability(g, loss | extra)


def test_deleting_the_stranded_follower_repairs():
    # removal is not monotone in the vertex argument: the break witness
    # can itself be deleted
    g = new_digraph(3, [1], [(1, 2)])
    assert removal_breaks_controllability(g)
    assert not removal_breaks_controllability(g, vertices={3})


@settings(max_examples=60)
@given(digraphs())
def test_edge_duplicate_counts_always_hold(g):
    dup = edge_duplicate(g)
    assert dup.graph.n == g.n + len(g.edges)
    assert len(dup.graph.edges) == 2 * len(g.edges)
    assert len(dup.white_of) == g.n
    assert len(dup.black_of) == len(g.edges)
