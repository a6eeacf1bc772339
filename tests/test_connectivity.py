import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robonet.connectivity import (
    _DeletionDegrees,
    _Flow,
    _link_capacity,
    _replay,
    agent_controllability,
    agent_controllability_vertex,
    link_controllability,
    max_edge_disjoint,
    max_vertex_disjoint,
    min_agent_cut_witness,
    min_link_cut_witness,
)
from robonet.digraph import new_digraph, removal_breaks_controllability, stranded_followers
from robonet.errors import IndexOutOfRangeError, TargetIsRootError, UncontrollableError
from robonet.families import circulant_rooted, kautz_rooted, preset
from robonet.joint import critical_agent_link_witness
from robonet.oracle import oracle_ac, oracle_lc, random_digraph

from conftest import digraphs, literal_ac, literal_degree, literal_lc, seeded_sweep


class TestEdgeDisjoint:
    def test_path_target(self, path3):
        flow = max_edge_disjoint(path3, 3)
        assert flow.value == 1
        assert flow.cut_edges == frozenset({(1, 2)})

    def test_target_must_be_follower(self, path3):
        with pytest.raises(TargetIsRootError):
            max_edge_disjoint(path3, 1)

    def test_target_must_be_a_vertex(self, path3):
        with pytest.raises(IndexOutOfRangeError):
            max_edge_disjoint(path3, 4)

    def test_complete_any_follower(self, complete4):
        for v in complete4.followers:
            assert max_edge_disjoint(complete4, v).value == 3

    def test_double_loop_any_target(self, double_loop5):
        for v in double_loop5.followers:
            assert max_edge_disjoint(double_loop5, v).value == 2

    def test_long_chain_far_end(self):
        # augmenting paths as long as the graph must not hit the recursion limit
        chain = new_digraph(1200, [1], [(v, v + 1) for v in range(1, 1200)])
        assert max_edge_disjoint(chain, 1200).value == 1
        assert max_vertex_disjoint(chain, 1200).value == 1

    def test_unreachable_target_has_zero_flow(self):
        g = new_digraph(3, [1], [(1, 2)])
        flow = max_edge_disjoint(g, 3)
        assert flow.value == 0
        assert flow.cut_edges == frozenset()


class TestVertexDisjoint:
    def test_path_target(self, path3):
        flow = max_vertex_disjoint(path3, 3)
        assert flow.value == 1
        assert flow.cut_vertices == frozenset({2})

    def test_direct_root_edge_caps_the_value(self, star4):
        # no follower set can separate a directly fed vertex
        flow = max_vertex_disjoint(star4, 2)
        assert flow.value == star4.n - len(star4.roots) == 3
        assert flow.cut_vertices == frozenset(star4.followers)

    def test_direct_edge_cap_on_a_dense_graph(self, g4):
        # follower 3 is fed by the root directly, so only the full
        # follower set "separates" it
        assert max_vertex_disjoint(g4, 3).value == 5

    def test_g4_worst_target(self, g4):
        assert min(max_vertex_disjoint(g4, v).value for v in g4.followers) == 2

    def test_agent_calls_share_the_graphs_ac_network(self, monkeypatch):
        built = []
        original = _Flow.__init__

        def counting(self, *args):
            built.append(args[1:])
            original(self, *args)

        monkeypatch.setattr(_Flow, "__init__", counting)
        g = kautz_rooted(3, 2)
        assert agent_controllability(g) == 3
        for v in g.followers:
            assert agent_controllability_vertex(g, v) == max_vertex_disjoint(g, v).value
        # every call reads the graph's ac kernel, which builds one network,
        # the (None, 1) one
        assert built in ([], [(None, 1)]), built

    def test_calls_on_graphs_no_name_holds(self):
        # the kernels hold their graph through a weak proxy; each call's
        # argument keeps a graph built in the call expression alive
        g = kautz_rooted(3, 2)
        gone = frozenset(g.sorted_edges[::4])
        reduced = g.remove_edges(gone)
        assert agent_controllability(new_digraph(g.n, g.roots, g.edges)) == literal_ac(g)
        assert agent_controllability(g.remove_edges(gone)) == literal_ac(reduced)
        for v in g.followers:
            expected = max_vertex_disjoint(reduced, v)
            assert max_vertex_disjoint(g.remove_edges(gone), v) == expected, v
            assert agent_controllability_vertex(g.remove_edges(gone), v) == expected.value, v
            fresh = max_vertex_disjoint(new_digraph(g.n, g.roots, g.edges), v)
            assert fresh == max_vertex_disjoint(g, v), v


class TestDegrees:
    def test_simple_loop(self, loop5):
        assert link_controllability(loop5) == 1
        assert agent_controllability(loop5) == 1

    def test_g4(self, g4):
        assert link_controllability(g4) == 3
        assert agent_controllability(g4) == 2

    def test_circulant_link_degree_equals_offset_count(self):
        for n, offsets in [(5, (1,)), (5, (1, 4)), (5, (1, 3)), (6, (2, 3, 5)), (7, (1, 2, 4))]:
            g = circulant_rooted(n, offsets)
            if g.is_controllable():
                assert link_controllability(g) == len(offsets)

    def test_path_agent_degree(self, path3):
        assert agent_controllability(path3) == 1

    def test_star_agent_degree_is_capped(self, star4):
        assert agent_controllability(star4) == 3

    def test_uncontrollable_degrees_are_zero(self):
        g = new_digraph(3, [1], [(1, 2)])
        assert link_controllability(g) == 0
        assert agent_controllability(g) == 0

    def test_all_root_degenerate_is_zero(self):
        g = new_digraph(2, [1, 2], [])
        assert link_controllability(g) == 0
        assert agent_controllability(g) == 0

    def test_per_vertex_value_matches_flow(self, g4):
        for v in g4.followers:
            assert agent_controllability_vertex(g4, v) == max_vertex_disjoint(g4, v).value


def _degree_graphs():
    """The sweep, then family and seeded random graphs of 10-21 vertices.

    A degree is read in sink order, each follower merged into the source
    once read, and merging rarely matters on the sweep's 3-8 vertices;
    on the larger graphs many followers are merged before the last read.
    """
    cases = [(f"seed {seed}", g) for seed, g in seeded_sweep(500)]
    cases += [
        ("kautz(2,3)", kautz_rooted(2, 3)),
        ("kautz(3,2)", kautz_rooted(3, 2)),
        ("circulant(10,{1,2,3})", circulant_rooted(10, (1, 2, 3))),
        ("circulant(12,{1,2,3})", circulant_rooted(12, (1, 2, 3))),
        ("double-loop 20", preset("double_loop", 20)),
    ]
    for n in range(10, 17):
        for roots in (1, 2):
            for seed in range(4):
                cases.append((f"random({n}, {roots}, {seed})", random_digraph(n, 3 * n, roots, seed)))
    return cases


class TestDeletionKernels:
    def test_unmasked_kernels_give_the_degrees_on_the_seeded_sweep(self):
        # the jc network splits its followers as the ac one does, and
        # reads min(lc, ac) on its own
        for case, g in _degree_graphs():
            link, agent = g._kernels
            lc, ac = literal_lc(g), literal_ac(g)
            assert link.base == link.without() == lc, case
            assert agent.base == agent.without() == ac, case
            assert _DeletionDegrees(g, 1, 1).base == min(lc, ac), case

    def test_agent_kernel_masks_one_edge_on_the_seeded_sweep(self):
        from_root = 0
        for seed, g in seeded_sweep(500):
            agent = _DeletionDegrees(g, None, 1)
            for edge in g.sorted_edges:
                expected = literal_ac(g.remove_edges({edge}))
                assert agent.without(edges=frozenset({edge})) == expected, (seed, edge)
                # the direct-root corner: a root edge into the head, masked or not
                from_root += any(
                    tail in g.root_set for tail, head in g.edges if head == edge[1]
                )
        assert from_root >= 50

    def test_follower_and_edge_masks_match_built_graphs(self, g4):
        for g in (g4, circulant_rooted(7, (1, 3))):
            link, agent = g._kernels
            for v in g.followers:
                for edge in g.sorted_edges:
                    if v in edge:
                        continue
                    reduced = g.remove_vertices({v}).remove_edges({edge})
                    masks = (frozenset({v}), frozenset({edge}))
                    assert link.without(*masks) == literal_lc(reduced), (v, edge)
                    assert agent.without(*masks) == literal_ac(reduced), (v, edge)

    def test_masks_zero_the_deleted_edges_and_the_arcs_into_deleted_followers(self):
        # reference: the arcs into a deleted follower's entry node, read off
        # the network's own arc list, and the deleted edges' arcs; every
        # other arc, a deleted follower's split arc and out-arcs included,
        # keeps its capacity
        rng = random.Random(20)
        into_deleted = 0
        for seed, g in seeded_sweep(500):
            if not g.followers:
                continue
            for costs in ((1, None), (None, 1), (1, 1)):
                kernel = _DeletionDegrees(g, *costs)
                net = kernel._built_net()
                edge_arcs = dict(zip(g.sorted_edges, range(net.first_edge, len(net.to), 2)))
                for _ in range(4):
                    followers = frozenset(rng.sample(g.followers, rng.randint(0, len(g.followers))))
                    edges = frozenset(rng.sample(g.sorted_edges, rng.randint(0, min(2, len(g.edges)))))
                    entries = {net.entry[v] for v in followers}
                    into = {arc for arc in range(0, len(net.to), 2) if net.to[arc] in entries}
                    zeroed = into | {edge_arcs[edge] for edge in edges}
                    expected = [0 if arc in zeroed else c for arc, c in enumerate(net.cap)]
                    assert kernel._masked(followers, edges) == expected, (seed, costs, followers, edges)
                    into_deleted += bool(into)
        assert into_deleted > 2_000


def _built_degrees(g, followers=frozenset(), edges=frozenset()):
    """``(lc, ac)`` of the graph built with the followers and edges deleted: the masked reads' reference."""
    reduced = g.remove_edges(edges).remove_vertices(followers)
    return literal_degree(reduced, 0), literal_degree(reduced, 1)


def _small_deletions(g):
    """Every deletion of at most two elements: followers, edges, or one of each."""
    followers, edges = g.followers, g.sorted_edges
    for size in (1, 2):
        for combo in combinations(followers, size):
            yield frozenset(combo), frozenset()
        for combo in combinations(edges, size):
            yield frozenset(), frozenset(combo)
    for v in followers:
        for edge in edges:
            yield frozenset({v}), frozenset({edge})


class TestBoundedReads:
    def test_at_most_matches_the_exact_read_on_the_seeded_sweep(self):
        # every bound of a deletion is asked of one kernel in ascending and
        # of another in descending order; the reference degree is the built
        # graph's, so it shares no rule with the kernel's reads
        cases = 0
        for seed, g in seeded_sweep(500):
            deletions = [(frozenset(), frozenset())] + list(_small_deletions(g))
            reference = {masks: _built_degrees(g, *masks) for masks in deletions}
            for mode, costs in enumerate(((1, None), (None, 1))):
                rising = _DeletionDegrees(g, *costs)
                falling = _DeletionDegrees(g, *costs)
                bounds = range(-1, reference[deletions[0]][mode] + 3)
                for masks in deletions:
                    degree = reference[masks][mode]
                    for bound in bounds:
                        case = (seed, costs, masks, bound)
                        assert rising.at_most(bound, *masks) == (degree <= bound), case
                    for bound in reversed(bounds):
                        case = (seed, costs, masks, bound)
                        assert falling.at_most(bound, *masks) == (degree <= bound), case
                    cases += len(bounds)
        assert cases > 390_000  # (deletion, bound) pairs, each asked two ways

    def test_exact_read_after_bounded_reads(self, g4):
        for g in (g4, circulant_rooted(7, (1, 3))):
            reference = {masks: _built_degrees(g, *masks) for masks in _small_deletions(g)}
            for mode, costs in enumerate(((1, None), (None, 1))):
                probed = _DeletionDegrees(g, *costs)
                for masks, degrees in reference.items():
                    for bound in range(-1, probed.base + 3):
                        probed.at_most(bound, *masks)
                    assert probed.without(*masks) == degrees[mode], (costs, masks)

    def test_chain_degrees_stop_at_the_controllable_floor(self, monkeypatch):
        # controllability proves a degree of at least 1, so each degree of
        # the 500-vertex chain stops at the first follower that reads 1, and
        # the in-edge brackets read it without a flow
        chain = new_digraph(500, [1], [(v, v + 1) for v in range(1, 500)])
        flows = []
        original = _Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(_Flow, "max_flow", counting)
        link, agent = chain._kernels
        assert (link.base, agent.base) == (1, 1)
        # lc: follower 2's one root in-edge; ac: follower 2 has a root edge,
        # and follower 3's one in-edge comes through follower 2 alone
        assert len(flows) == 0

    def test_uncontrollable_degrees_are_zero_without_a_flow(self, monkeypatch):
        # a stranded follower needs no cut, so neither degree reads anything
        flows = []
        original = _Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(_Flow, "max_flow", counting)
        uncontrollable = [(seed, g) for seed, g in seeded_sweep(500) if not g.is_controllable()]
        for seed, g in uncontrollable:
            assert tuple(kernel.base for kernel in g._kernels) == (0, 0), seed
            assert flows == [], seed
        assert len(uncontrollable) >= 200

    def test_mixed_cuts_cost_more_than_k_ac_when_ac_is_under_lc(self):
        # with ac < lc, a (K, K+1) cut of l links and a agents costs
        # K(l + a) + a: more than K * ac when a >= 1, since l + a >= ac, and
        # when a = 0, since l >= lc > ac; so a floor of K * ac stops no read
        population = [g for _, g in seeded_sweep(500)]
        for seed in range(6000):
            n = 10 + seed % 3
            population.append(random_digraph(n, 3 * n + seed % (n + 1), 1 + seed % 2, seed))
        checked = 0
        for g in population:
            if not g.followers or not g.is_controllable():
                continue
            lc, ac = (kernel.base for kernel in g._kernels)
            if ac >= lc:
                continue
            k = len(g.followers) + 1
            assert k * ac < _DeletionDegrees(g, k, k + 1).base < k * (ac + 1), g
            witness = critical_agent_link_witness(g)
            assert witness.size == ac and witness.vertices, g
            checked += 1
        assert checked >= 30, checked

    def test_double_loop_degrees_run_no_flow(self, monkeypatch):
        # every follower of double-loop 200 has two in-edges and is dominated
        # by the root alone, so both degrees stop at the floor 2 that the
        # dominator tree proves; a floor of 1 runs 396 flows here
        g = preset("double_loop", 200)
        flows = []
        original = _Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(_Flow, "max_flow", counting)
        link, agent = g._kernels
        assert (link.base, agent.base) == (2, 2)
        assert flows == []


def _edge_deletions(g, seed):
    """The edge sets the exact read is checked on: each edge, each follower's out-edges, seeded pairs and triples."""
    edges = g.sorted_edges
    deletions = {frozenset({edge}) for edge in edges}
    deletions.update(frozenset(g.out_edges(v)) for v in g.followers if g.out_edges(v))
    draw = random.Random(seed)  # a str seed draws the same on every run
    for size in (2, 3):
        if len(edges) >= size:
            deletions.update(frozenset(draw.sample(edges, size)) for _ in range(8))
    return sorted(deletions, key=sorted)


class TestEdgeReads:
    def test_edge_reads_match_built_graphs(self, g4, monkeypatch):
        # the exact read of an edge-only deletion tries only the deleted
        # edges' heads, from a floor the deletion proves, raised by a walk of
        # the reduced graph where it is under one element; a deletion with a
        # follower still reads every survivor, since it can raise a degree
        flows = []
        original = _Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(_Flow, "max_flow", counting)
        families = [
            ("g4", g4),
            ("kautz(2,3)", kautz_rooted(2, 3)),
            ("circulant(12,{1,2,3})", circulant_rooted(12, (1, 2, 3))),
            ("double-loop 20", preset("double_loop", 20)),
        ]
        modes = ((1, None), (None, 1))  # lc, ac
        seen = set()
        for case, g in seeded_sweep(500) + families:
            kernels = [_DeletionDegrees(g, *costs) for costs in modes]
            bases = (kernels[0].base, kernels[1].base)
            for edges in _edge_deletions(g, case):
                expected = _built_degrees(g, edges=edges)
                for mode, kernel in enumerate(kernels):
                    flows.clear()
                    assert kernel.without(edges=edges) == expected[mode], (case, mode, edges)
                    if expected[mode] == 0 < bases[mode] and not flows:
                        # no head's bracket reaches 0, so the walk of the
                        # reduced graph found the stranded follower
                        heads = {head for _, head in edges}
                        if all(kernel._bracket(frozenset(), edges, h)[1] > 0 for h in heads):
                            seen.add("a walk finds a stranded follower")
                    if not flows and "floor settles" not in seen:
                        # does the same read from the floor 0 run a flow?
                        bare = _DeletionDegrees(g, *modes[mode])
                        below = bare.base
                        flows.clear()
                        bare._solve(frozenset(), edges, below, 0)
                        if flows:
                            seen.add("floor settles")
                if any(tail in g.root_set for tail, _ in edges) and bases[1] - expected[1] >= 2:
                    seen.add("root tail lowers ac by 2")
            for v in g.followers:
                expected = _built_degrees(g, followers=frozenset({v}))
                for mode, kernel in enumerate(kernels):
                    assert kernel.without(followers=frozenset({v})) == expected[mode], (case, mode, v)
                    if expected[mode] > bases[mode]:
                        seen.add("a follower deletion raises a degree")
        assert seen == {
            "floor settles",
            "root tail lowers ac by 2",
            "a follower deletion raises a degree",
            "a walk finds a stranded follower",
        }

    def test_deleting_a_follower_can_raise_lc(self):
        # follower 3 has one in-edge, so lc is 1; without 3, follower 4 keeps
        # its two, so no head rule below the base may read this deletion
        g = new_digraph(4, [1, 2], [(1, 3), (1, 4), (2, 4)])
        link = _DeletionDegrees(g, 1, None)
        assert link.base == 1
        assert link.without(followers=frozenset({3})) == 2
        assert literal_lc(g.remove_vertices({3})) == 2


def _single_breaks(g):
    """Reference for ``_no_single_break``: does some one link, or some one follower, break ``g``?"""
    return (
        any(removal_breaks_controllability(g, edges=[edge]) for edge in g.sorted_edges),
        any(removal_breaks_controllability(g, vertices=[v]) for v in g.followers),
    )


class TestSingleBreakCertificate:
    def test_matches_single_deletions_on_seeded_graphs(self):
        graphs = [g for _, g in seeded_sweep(500)]
        # multi-root graphs, dense enough that most are controllable
        for seed in range(300):
            n, roots = 5 + seed % 8, 2 + seed % 2
            edges = min(2 * n + seed % n, (n - roots) * (n - 1))
            graphs.append(random_digraph(n, edges, roots, seed))
        seen = set()
        for g in graphs:
            if not g.followers or not g.is_controllable():
                continue
            link, agent = g._kernels
            certified = (link._no_single_break(), agent._no_single_break())
            by_deletion = _single_breaks(g)
            assert certified == (not by_deletion[0], not by_deletion[1]), g
            assert certified[0] == (link.base >= 2) and certified[1] == (agent.base >= 2), g
            seen.add((certified, len(g.roots) > 1))
        # each test meets both answers, on one root and on several
        assert seen >= {(pair, many) for pair in ((True, True), (False, False)) for many in (False, True)}
        assert {pair for pair, _ in seen} >= {(True, False), (False, True)}

    def test_a_tail_the_head_dominates_does_not_count(self):
        # follower 2 has two in-edges, but 3 is reached only through 2,
        # so deleting the root edge strands both
        g = new_digraph(3, [1], [(1, 2), (2, 3), (3, 2)])
        link = _DeletionDegrees(g, 1, None)
        assert not link._no_single_break()
        assert link.base == literal_lc(g) == 1

    def test_two_roots_feeding_one_follower(self):
        # the two root edges count once each; deleting the one follower is
        # a break by convention
        g = new_digraph(3, [1, 2], [(1, 3), (2, 3)])
        link, agent = g._kernels
        assert link._no_single_break() and not agent._no_single_break()
        assert (link.base, agent.base) == (2, 1)

    def test_an_uncontrollable_graph_keeps_the_floor_0(self):
        g = new_digraph(5, [1], [(1, 2), (2, 3), (3, 2), (4, 5), (5, 4)])
        link, agent = g._kernels
        assert (link.base, agent.base) == (0, 0)
        assert "_dominators" not in vars(g)  # no floor above 0 is tried

    def test_a_long_chain_does_not_recurse(self):
        # a 5,000-deep dominator tree; a recursive walk would hit the limit
        chain = new_digraph(5000, [1], [(v, v + 1) for v in range(1, 5000)])
        link, agent = chain._kernels
        assert not link._no_single_break() and not agent._no_single_break()
        assert chain._dominators[5000] == (4999, 4999, 5000)
        assert chain._dominators[2] == (None, 1, 5000)


def _bracket_by_edges(g, target, followers, edges, edge_cost, vertex_cost, merged=frozenset()):
    """Reference for ``_bracket``, read off the graph's surviving in-edges of the target.

    ``hi`` cuts each in-edge at the cheaper of the edge and its tail
    follower; ``lo`` routes through each in-edge the least of that and
    the tail's root in-edges.  A link costs its arc's capacity in the
    network.  A merged tail's in-edge is a path from the source on its
    own; without split followers a merged follower also feeds like a root.
    """
    link = _link_capacity(g, edge_cost, vertex_cost)
    feeders = g.root_set | (merged if vertex_cost is None else frozenset())

    def alive(edge):
        return edge not in edges and edge[0] not in followers

    lo = hi = 0
    for tail, _ in filter(alive, g.in_edges(target)):
        if tail in g.root_set:
            lo, hi = lo + link, hi + link
            continue
        cost = link if vertex_cost is None else min(link, vertex_cost)
        if tail in merged:
            lo, hi = lo + cost, hi + cost
            continue
        fed = sum(link for edge in filter(alive, g.in_edges(tail)) if edge[0] in feeders)
        lo, hi = lo + min(cost, fed), hi + cost
    return lo, hi


class TestBrackets:
    def test_brackets_hold_every_masked_flow_on_the_seeded_sweep(self):
        closed = open_ = 0
        for seed, g in seeded_sweep(500):
            if not g.followers or not g.is_controllable():
                continue
            deletions = [(frozenset(), frozenset())]
            deletions += [(frozenset({v}), frozenset()) for v in g.followers]
            deletions += [(frozenset(), frozenset({edge})) for edge in g.sorted_edges]
            k = len(g.followers) + 1
            for costs in ((1, None), (None, 1), (1, 1), (k, k + 1)):
                network = _DeletionDegrees(g, *costs)
                for followers, edges in deletions:
                    masked = network._masked(followers, edges)
                    net = network._built_net()
                    survivors = [v for v in g.followers if v not in followers]
                    for i, v in enumerate(survivors):
                        # alone, and with the followers before it merged (a read in sink order)
                        for merged in (frozenset(), frozenset(survivors[:i])):
                            case = (seed, costs, followers, edges, v, merged)
                            lo, hi = network._bracket(followers, edges, v, merged)
                            sources = [0, *(net.entry[w] for w in merged)]
                            flow, _ = net.max_flow(masked[:], sources, net.entry[v])
                            assert lo <= flow <= hi, case
                            reference = _bracket_by_edges(g, v, followers, edges, *costs, merged)
                            assert (lo, hi) == reference, case
                            closed += lo == hi
                            open_ += lo < hi
        assert closed > 60_000 and open_ > 30_000  # both ends of the read's rules are met

    def test_an_upper_bracket_alone_is_not_taken_as_exact(self):
        # deleting follower 4 and the edge 1->3 leaves follower 3 one in-edge,
        # from follower 2, which no root edge feeds: its bracket is (0, 1),
        # enough for "at most 1" under the head rule, but its cut costs 0
        edges = [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 2), (3, 5), (4, 3), (5, 2), (5, 4)]
        link = _DeletionDegrees(new_digraph(5, [1], edges), 1, None)
        masks = (frozenset({4}), frozenset({(1, 3)}))
        assert link.base == 2
        assert link._bracket(*masks, 3) == (0, 1)
        assert link.at_most(1, *masks)
        assert link.at_most(0, *masks)
        assert link.without(*masks) == 0


def _cheapest_by_target(g, edge_cost, vertex_cost):
    """Reference for ``cheapest()``: every follower's exact cut, least by (cost, follower).

    None when that cost is at or over the cap: the edge count when
    followers cannot be cut, else ``vertex_cost`` per follower.
    """
    network = _DeletionDegrees(g, edge_cost, vertex_cost)
    cuts = {t: network.cut(t) for t in g.followers}
    best = min(cuts, key=lambda t: (cuts[t][0], t))
    cap = len(g.edges) if vertex_cost is None else vertex_cost * len(g.followers)
    return None if cuts[best][0] >= cap else (best, cuts[best][1])


class TestCheapestCut:
    def test_cheapest_matches_every_target_on_the_seeded_sweep(self):
        capped = set()
        for seed, g in seeded_sweep(500):
            if not g.followers or not g.is_controllable():
                continue
            k = len(g.followers) + 1
            for costs in ((1, None), (None, 1), (1, 1), (k, k + 1)):
                expected = _cheapest_by_target(g, *costs)
                assert _DeletionDegrees(g, *costs).cheapest() == expected, (seed, costs)
                if expected is None:
                    capped.add(costs[0] is None)
        assert capped == {True, False}  # the cap is met with and without link costs

    def test_witnesses_follow_the_per_target_rule_on_the_seeded_sweep(self):
        # reference: the least cut by (value, target) over one exact flow
        # per target; the full follower set when it costs no more
        for seed, g in seeded_sweep(500):
            if not g.followers or not g.is_controllable():
                continue
            followers = frozenset(g.followers)
            flows = {t: max_edge_disjoint(g, t) for t in followers}
            best = min(flows, key=lambda t: (flows[t].value, t))
            assert min_link_cut_witness(g).edges == flows[best].cut_edges, seed
            flows = {t: max_vertex_disjoint(g, t) for t in followers}
            best = min(flows, key=lambda t: (flows[t].value, t))
            agents = flows[best].cut_vertices if flows[best].value < len(followers) else followers
            assert min_agent_cut_witness(g).vertices == agents, seed
            k = len(followers) + 1
            cuts = {t: _DeletionDegrees(g, k, k + 1).cut(t) for t in followers}
            cut = cuts[min(cuts, key=lambda t: (cuts[t][0], t))][1]
            if len(cut) > len(followers):
                cut = followers
            mixed = critical_agent_link_witness(g)
            assert (mixed.edges | mixed.vertices) == cut, seed


def _residual_reach(net, residual, sources):
    """The nodes a walk from the sources reaches in the residual capacities."""
    reach, stack = set(sources), list(sources)
    while stack:
        v = stack.pop()
        for arc in net.adj[v]:
            if residual[arc] > 0 and net.to[arc] not in reach:
                reach.add(net.to[arc])
                stack.append(net.to[arc])
    return reach


def _residual_cut(g, net, residual):
    """The elements of the arcs out of the nodes a walk from the source reaches in the residual capacities.

    Each forward arc is named by its place in the network's layout: the
    followers' split arcs in order, then the arcs of the sorted edges.
    Arcs of edges that cannot be cut are named too, so a kernel cut equal
    to this one also shows that none of them crosses.
    """
    element_of = dict(zip(range(0, net.first_edge, 2), g.followers))
    element_of.update(zip(range(net.first_edge, len(net.to), 2), g.sorted_edges))
    reach = _residual_reach(net, residual, (0,))
    return frozenset(
        element_of[arc] for v in reach for arc in net.adj[v] if arc % 2 == 0 and net.to[arc] not in reach
    )


def _flows_by_source(g, costs):
    """Each network flow a read can run on ``g`` with no deletion: ``(net, sources, sink)``.

    Each follower is the sink once with node 0 alone as the source, and
    once with the in-nodes of the followers before it merged into the
    source (a read in sink order), when there are any.
    """
    net = _Flow(g, *costs)
    for i, v in enumerate(g.followers):
        for merged in ((), g.followers[:i]) if i else ((),):
            yield net, [0, *(net.entry[w] for w in merged)], net.entry[v]


class TestCutSides:
    def test_cut_is_the_residual_reach_of_a_full_flow_on_the_seeded_sweep(self):
        # the cut reads its source side off the marks of the flow's last
        # search; the reference walks the residual of a flow of its own
        cuts = 0
        for seed, g in seeded_sweep(500):
            if not g.followers:
                continue
            k = len(g.followers) + 1
            for costs in ((1, None), (None, 1), (1, 1), (k, k + 1)):
                network = _DeletionDegrees(g, *costs)
                for t in g.followers:
                    value, cut = network.cut(t)
                    if costs[0] is None and any(tail in g.root_set for tail, head in g.edges if head == t):
                        assert (value, cut) == (len(g.followers), frozenset(g.followers)), (seed, t)
                        continue
                    net = network._built_net()
                    residual = net.cap[:]
                    assert net.max_flow(residual, (0,), net.entry[t])[0] == value, (seed, costs, t)
                    assert cut == _residual_cut(g, net, residual), (seed, costs, t)
                    cuts += 1
        assert cuts > 5_000

    def test_marks_are_the_residual_reach_of_every_source_on_the_seeded_sweep(self):
        # with merged followers in the source too, as a read in sink order runs it
        merged = 0
        for seed, g in seeded_sweep(500):
            k = len(g.followers) + 1
            for costs in ((1, None), (None, 1), (1, 1), (k, k + 1)):
                for net, sources, sink in _flows_by_source(g, costs):
                    residual = net.cap[:]
                    _, marks = net.max_flow(residual, sources, sink)
                    marked = {v for v, mark in enumerate(marks) if mark is not None}
                    assert marked == _residual_reach(net, residual, sources), (seed, costs, sources, sink)
                    merged += len(sources) > 1
        assert merged > 5_000


class TestLimitedFlow:
    def test_a_limited_flow_is_exact_only_under_its_limit_on_the_seeded_sweep(self):
        # a read caps each flow at the least cost so far: it needs the exact
        # value under that cap and only "at least the cap" otherwise
        stopped = 0
        for seed, g in seeded_sweep(500):
            k = len(g.followers) + 1
            for costs in ((1, None), (None, 1), (1, 1), (k, k + 1)):
                for net, sources, sink in _flows_by_source(g, costs):
                    value = net.max_flow(net.cap[:], sources, sink)[0]
                    for limit in range(1, value + 2):
                        limited = net.max_flow(net.cap[:], sources, sink, limit)[0]
                        case = (seed, costs, sources, sink, limit)
                        if limit > value:
                            assert limited == value, case
                        else:
                            assert limit <= limited <= value, case
                            stopped += limited < value
        assert stopped > 10_000  # limited flows that stop before the maximum are met


class TestWitnesses:
    def test_path_witnesses(self, path3):
        assert min_link_cut_witness(path3).edges == frozenset({(1, 2)})
        assert min_agent_cut_witness(path3).vertices == frozenset({2})

    def test_loop_witness_sizes(self, loop5):
        assert len(min_link_cut_witness(loop5).edges) == 1
        assert len(min_agent_cut_witness(loop5).vertices) == 1

    def test_g4_witness_sizes(self, g4):
        assert len(min_link_cut_witness(g4).edges) == 3
        assert len(min_agent_cut_witness(g4).vertices) == 2

    def test_star_agent_witness_is_all_followers(self, star4):
        w = min_agent_cut_witness(star4)
        assert w.vertices == frozenset(star4.followers)
        assert w.unreachable == ()

    def test_witness_replays(self, g4):
        link = min_link_cut_witness(g4)
        assert removal_breaks_controllability(g4, edges=link.edges)
        assert link.unreachable
        agent = min_agent_cut_witness(g4)
        assert removal_breaks_controllability(g4, vertices=agent.vertices)

    def test_uncontrollable_has_no_witness(self):
        g = new_digraph(3, [1], [(1, 2)])
        with pytest.raises(UncontrollableError):
            min_link_cut_witness(g)
        with pytest.raises(UncontrollableError):
            min_agent_cut_witness(g)

    def test_witnesses_are_deterministic(self, g4):
        assert min_link_cut_witness(g4) == min_link_cut_witness(g4)
        assert min_agent_cut_witness(g4) == min_agent_cut_witness(g4)


def _first_redundant(g, edges, vertices):
    """The element a replay names: the first, links before followers, whose drop still breaks."""
    for edge in sorted(edges):
        if removal_breaks_controllability(g, edges - {edge}, vertices):
            return edge
    return next(v for v in sorted(vertices) if removal_breaks_controllability(g, edges, vertices - {v}))


class TestReplay:
    @pytest.mark.parametrize(
        "g", [circulant_rooted(6, (2, 3, 5)), circulant_rooted(12, (1, 2, 3))], ids=["g4", "circulant12"]
    )
    def test_planted_bad_witnesses_fail_their_replay(self, g):
        link = min_link_cut_witness(g)
        agent = min_agent_cut_witness(g)
        assert _replay(g, link.edges, frozenset()) == stranded_followers(g, link.edges) == link.unreachable
        assert _replay(g, frozenset(), agent.vertices) == stranded_followers(g, (), agent.vertices)
        # a proper part of a minimum cut breaks nothing
        for edges, vertices in (
            (frozenset(sorted(link.edges)[1:]), frozenset()),
            (frozenset(), frozenset(sorted(agent.vertices)[1:])),
        ):
            assert not removal_breaks_controllability(g, edges, vertices)
            with pytest.raises(AssertionError, match="^witness does not break the graph$"):
                _replay(g, edges, vertices)
        # a minimum cut with one extra edge, one extra follower, or both breaks, but not minimally
        extra_edge = next(e for e in g.sorted_edges if e not in link.edges)
        extra_follower = max(v for v in g.followers if v not in agent.vertices)
        planted = (
            (link.edges | {extra_edge}, frozenset(), tuple),
            (frozenset(), agent.vertices | {extra_follower}, int),
            (link.edges | {extra_edge}, frozenset({extra_follower}), object),
        )
        for edges, vertices, named in planted:
            assert removal_breaks_controllability(g, edges, vertices)
            redundant = _first_redundant(g, edges, vertices)
            assert isinstance(redundant, named)
            message = f"witness is not minimal: dropping {redundant} still breaks"
            with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
                _replay(g, edges, vertices)

    def test_deleting_every_follower_breaks_by_convention(self, star4):
        everyone = frozenset(star4.followers)
        assert _replay(star4, frozenset(), everyone) == ()
        with pytest.raises(AssertionError, match=re.escape("dropping (1, 2) still breaks")):
            _replay(star4, frozenset({(1, 2)}), everyone)


@settings(max_examples=60)
@given(digraphs())
def test_flow_values_match_cut_sizes(g):
    for v in g.followers:
        edge_flow = max_edge_disjoint(g, v)
        assert edge_flow.value == len(edge_flow.cut_edges)
        vertex_flow = max_vertex_disjoint(g, v)
        assert vertex_flow.value == len(vertex_flow.cut_vertices)


@settings(max_examples=50, deadline=None)
@given(digraphs(max_n=6, max_edges=10))
def test_degrees_match_brute_force(g):
    assert link_controllability(g) == oracle_lc(g)
    assert agent_controllability(g) == oracle_ac(g)


@settings(max_examples=50, deadline=None)
@given(digraphs(max_n=6, max_edges=10), st.data())
def test_single_removal_drops_degree_by_at_most_one(g, data):
    if not g.is_controllable():
        return
    if g.edges:
        e = data.draw(st.sampled_from(sorted(g.edges)))
        assert link_controllability(g) - link_controllability(g.remove_edges({e})) <= 1
    if len(g.followers) > 1:
        v = data.draw(st.sampled_from(g.followers))
        assert agent_controllability(g) - agent_controllability(g.remove_vertices({v})) <= 1


def test_edge_count_lower_bounds_single_root(g4, loop5, complete4):
    # single-leader edge-count floors, tight on the loop and the complete graph
    for g in (g4, loop5, complete4):
        n, e = g.n, len(g.edges)
        assert e >= (n - 1) * link_controllability(g)
        if agent_controllability(g) < n - 1:
            assert e >= n + agent_controllability(g) - 2
    assert len(complete4.edges) == (complete4.n - 1) * link_controllability(complete4)