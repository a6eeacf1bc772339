import functools
import gc
import random
import sys
import threading
import weakref
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from robonet import connectivity, criticality, digraph, joint
from robonet.budget import DEFAULT_SUBSET_BUDGET
from robonet.connectivity import (
    _DeletionDegrees,
    agent_controllability,
    link_controllability,
    max_vertex_disjoint,
    min_agent_cut_witness,
    min_link_cut_witness,
)
from robonet.digraph import edge_duplicate, new_digraph, removal_breaks_controllability
from robonet.errors import (
    ConditionUnmetError,
    InstanceTooLargeError,
    NotACriticalAgentSetError,
    NotAnOutCutError,
    UncontrollableError,
)
from robonet.criticality import agent_controllability_index, agent_records, edge_records
from robonet.families import circulant_rooted, complete_rooted, kautz_rooted, preset
from robonet.joint import (
    Classification,
    agent_set_from_cut,
    agent_substitution_witness,
    check_bounds,
    classify,
    critical_agent_link_witness,
    is_joint_rs_controllable,
    joint_controllability,
    joint_controllability_via_duplicate,
    joint_region,
    link_set_from_agent_set,
)
from robonet.oracle import OracleBudget, oracle_jc, oracle_joint_rs, oracle_region, random_digraph
from robonet.report import SECTIONS, build_report

from conftest import digraphs, literal_ac, literal_lc, literal_link_critical, seeded_sweep


# ledger counterexample: agent-critical, but the canonical minimum cut of
# the smallest follower maps to a non-breaking agent set
ROUTE_CUT_GRAPH = new_digraph(
    5, [1], [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 3), (4, 5), (5, 2)]
)

# ledger counterexample: a minimal breaking agent pair whose members all
# carry a unit-index out-edge, yet the substituted links do not break
ROUTE_LINK_GRAPH = new_digraph(
    7,
    [1],
    [
        (1, 3), (1, 7), (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 7),
        (4, 2), (4, 5), (4, 6), (5, 7), (6, 2), (7, 4), (7, 5),
    ],
)


class TestJointDegree:
    def test_complete_family(self):
        for n in range(2, 8):
            assert joint_controllability(complete_rooted(n)) == n - 1

    def test_kautz(self):
        assert joint_controllability(kautz_rooted(2, 2)) == 2
        assert joint_controllability(kautz_rooted(3, 1)) == 3

    def test_g4(self, g4):
        assert joint_controllability(g4) == 2

    def test_uncontrollable_is_zero(self):
        assert joint_controllability(new_digraph(3, [1], [(1, 2)])) == 0


class TestDuplicateRoute:
    def test_path(self, path3):
        assert joint_controllability_via_duplicate(path3) == 1

    def test_complete4(self, complete4):
        assert joint_controllability_via_duplicate(complete4) == 3

    def test_g4(self, g4):
        assert joint_controllability_via_duplicate(g4) == 2

    def test_black_vertices_are_not_targets(self):
        # literal agent controllability of the duplicate counts a stranded
        # black vertex as a break; that black vertex is a link that died
        # with its tail agent, so the transform-aware value differs
        g = complete_rooted(3)
        dup = edge_duplicate(g)
        assert agent_controllability(dup.graph) == 1
        assert joint_controllability_via_duplicate(g) == 2 == joint_controllability(g)

    def test_white_count_cap(self):
        # both followers are directly fed; the joint degree is attained
        # only by wiping out the follower set, which the duplicate's
        # per-target cuts cannot see without the cap
        g = new_digraph(4, [1, 2], [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 3)])
        assert joint_controllability(g) == 2
        assert joint_controllability_via_duplicate(g) == 2

    def test_root_edge_is_cut_as_a_link(self):
        # a root edge into a follower is a link the mixed cut may hold:
        # cutting 1->2 strands 2, although 3 has a root edge of its own
        g = new_digraph(3, [1], [(1, 2), (1, 3), (2, 3)])
        assert joint_controllability_via_duplicate(g) == 1 == joint_controllability(g)
        assert _DeletionDegrees(g, 1, 1).base == 1

    def test_matches_the_literal_transform_on_the_seeded_sweep(self):
        # reference: build the edge-duplicate graph and take the agent
        # degree over its white followers, capped at the follower count
        for seed, g in seeded_sweep(500):
            dup = edge_duplicate(g).graph
            followers = g.followers
            literal = 0
            if followers:
                per_target = min(max_vertex_disjoint(dup, v).value for v in followers)
                literal = min(per_target, len(followers))
            assert joint_controllability_via_duplicate(g) == literal, f"seed {seed}"


class TestJointPairs:
    def test_g4_pairs(self, g4):
        assert is_joint_rs_controllable(g4, 2, 1)
        assert is_joint_rs_controllable(g4, 3, 0)
        assert not is_joint_rs_controllable(g4, 1, 2)
        assert not is_joint_rs_controllable(g4, 3, 1)

    def test_trivial_pairs_anchor_to_controllability(self, path3):
        assert is_joint_rs_controllable(path3, 0, 0)
        assert is_joint_rs_controllable(path3, 1, 0)
        broken = new_digraph(3, [1], [(1, 2)])
        assert not is_joint_rs_controllable(broken, 0, 0)
        assert not is_joint_rs_controllable(broken, 1, 0)

    def test_double_loop_is_tight(self, double_loop5):
        assert is_joint_rs_controllable(double_loop5, 2, 0)
        assert not is_joint_rs_controllable(double_loop5, 2, 1)

    def test_budget_guard(self, g4):
        with pytest.raises(InstanceTooLargeError):
            is_joint_rs_controllable(g4, 3, 2, budget=1)

    def test_negative_pair(self, g4):
        with pytest.raises(ValueError, match="^r and s must be non-negative$"):
            is_joint_rs_controllable(g4, -1, 0)


class TestRegion:
    def test_path_region(self, path3):
        region = joint_region(path3)
        assert region.members == ((0, 0), (0, 1), (1, 0))
        assert region.exact_for_degree

    def test_double_and_daisy_loops(self, double_loop5, daisy5):
        for g in (double_loop5, daisy5):
            region = joint_region(g)
            assert region.members == tuple(
                sorted((r, s) for r in range(3) for s in range(3) if r + s <= 2)
            )
            assert region.exact_for_degree

    def test_g4_region(self, g4):
        region = joint_region(g4)
        expected = tuple(
            sorted({(r, s) for r in range(4) for s in range(3) if r + s <= 2} | {(2, 1), (3, 0)})
        )
        assert region.members == expected
        assert region.frontier == ((0, 2), (2, 1), (3, 0))
        assert not region.exact_for_degree

    def test_region_matches_oracle(self, g4, double_loop5):
        for g in (g4, double_loop5):
            assert joint_region(g).members == oracle_region(g)

    def test_region_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            joint_region(new_digraph(3, [1], [(1, 2)]))

    def test_matches_oracle_on_the_seeded_sweep(self):
        past_triangle = 0
        for seed, g in seeded_sweep(500):
            if not g.is_controllable():
                continue
            region = joint_region(g)
            assert region.members == oracle_region(g), f"seed {seed}"
            past_triangle += not region.exact_for_degree
        # the enumerated cells above the triangle are exercised, not only the certified ones
        assert past_triangle >= 50

    def test_triangle_cells_pass_the_enumeration(self, g4):
        # the region certifies r + s <= jc without a test; the literal
        # enumeration agrees on every such cell
        population = [g for _, g in seeded_sweep(500)] + [g4, kautz_rooted(2, 3), complete_rooted(6)]
        for g in population:
            if not g.is_controllable():
                continue
            degree = joint_controllability(g)
            for r in range(degree + 1):
                for s in range(degree + 1 - r):
                    assert is_joint_rs_controllable(g, r, s), (g, r, s)

    def test_complete_region_is_certified_not_enumerated(self, monkeypatch):
        solved = []
        original = connectivity._DeletionDegrees._solve

        def counting(self, followers, *args):
            solved.append(followers)
            return original(self, followers, *args)

        monkeypatch.setattr(connectivity._DeletionDegrees, "_solve", counting)
        region = joint_region(complete_rooted(10))
        assert region.members == tuple(
            sorted((r, s) for r in range(10) for s in range(10) if r + s <= 9)
        )
        assert len(solved) <= 10  # only the diagonal above the triangle is tested


@pytest.fixture()
def built_graphs(monkeypatch):
    """Grows by one entry for every ``Digraph`` built while the test runs."""
    built = []
    original = digraph.Digraph.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(digraph.Digraph, "__post_init__", counting)
    return built


def _proper_follower_subsets(g):
    followers = g.followers
    for size in range(len(followers)):
        for combo in combinations(followers, size):
            yield frozenset(combo)


class TestDeletionDegrees:
    def test_matches_vertex_deleted_graphs_on_families(self, g4):
        for g in (g4, kautz_rooted(2, 3), complete_rooted(6)):
            degrees = _DeletionDegrees(g, 1, None)
            for removed in _proper_follower_subsets(g):
                assert degrees.without(removed) == literal_lc(g.remove_vertices(removed)), sorted(removed)

    def test_matches_vertex_deleted_graphs_on_random_graphs(self):
        stranded = 0
        for seed in range(120):
            n = 3 + seed % 6
            roots = 1 + seed % 2
            cap = (n - roots) * (n - 1)
            g = random_digraph(n, (seed * 7919) % (cap + 1), roots, seed)
            degrees = _DeletionDegrees(g, 1, None)
            for removed in _proper_follower_subsets(g):
                expected = literal_lc(g.remove_vertices(removed))
                assert degrees.without(removed) == expected, (seed, sorted(removed))
                stranded += expected == 0
        assert stranded > 100  # subsets that strand a follower are covered

    def test_no_surviving_follower_is_zero(self, path3):
        assert _DeletionDegrees(path3, 1, None).without(frozenset(path3.followers)) == 0

    def test_region_builds_no_graph_per_subset(self, built_graphs):
        region = joint_region(complete_rooted(8))
        assert region.members == tuple(
            sorted((r, s) for r in range(8) for s in range(8) if r + s <= 7)
        )
        # the region tests hundreds of follower subsets; none is built as a graph
        assert len(built_graphs) <= 2

    def test_report_builds_one_network_per_mode(self, monkeypatch):
        built = []
        original = connectivity._Flow.__init__

        def counting(self, g, edge_cost, vertex_cost):
            built.append((edge_cost, vertex_cost))
            original(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "__init__", counting)
        doc = build_report(complete_rooted(10), sections=("degrees", "classify", "region"))
        assert doc["degrees"] == {"lc": 9, "ac": 9, "jc": 9}
        assert doc["classification"]["jointly_critical"] is True
        # degrees, unit-index tests, region and bounds share one lc and one ac network
        assert len(built) <= 2

    def test_witnesses_build_one_network_per_cost_pair(self, monkeypatch):
        built = []
        original = connectivity._Flow.__init__

        def counting(self, g, edge_cost, vertex_cost):
            built.append((edge_cost, vertex_cost))
            original(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "__init__", counting)
        graphs = (complete_rooted(8), kautz_rooted(2, 3), circulant_rooted(12, (1, 2, 3)))
        for sections in (("witnesses",), ("degrees", "classify", "region", "witnesses"), SECTIONS):
            for g in graphs + (complete_rooted(6), kautz_rooted(2, 2)):
                built.clear()
                doc = build_report(g, sections=sections)
                assert doc["witnesses"] is not None
                # the link, agent and mixed witnesses read one network each,
                # and the link and agent ones are the report's lc and ac
                # networks, which the indices read too
                assert len(built) <= 3, (sections, g.n, built)
        for g in graphs + (preset("double_loop", 20),):
            built.clear()
            build_report(g, sections=("indices",))
            # every degree drop of the indices is masked on the lc or ac network
            assert len(built) <= 2, (g.n, built)

    def test_complete_indices_run_no_flow(self, monkeypatch):
        flows = []
        original = connectivity._Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        doc = build_report(complete_rooted(8), sections=("indices",))
        assert all(r["critical"] for r in doc["indices"]["edges"])
        # every masked follower's in-edge bracket closes, so no drop needs a flow
        assert flows == []

    def test_region_reads_stop_at_their_bounds(self, monkeypatch):
        flows = []
        original = connectivity._Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        for g in [complete_rooted(n) for n in range(9, 13)] + [kautz_rooted(3, 2)]:
            build_report(g, sections=("degrees", "classify", "region"))
        # exact degree reads in place of bounded ones run 356 flows here, and
        # bounded ones without the in-edge brackets 142; complete graphs run none
        assert len(flows) <= 40

    def test_classify_reads_each_unit_index_once(self, monkeypatch):
        solved, flows = [], []
        solve, flow = connectivity._DeletionDegrees._solve, connectivity._Flow.max_flow

        def solving(self, followers, edges, *args):
            solved.append(edges)
            return solve(self, followers, edges, *args)

        def counting(self, cap, sources, sink, limit=None):
            flows.append(sink)
            return flow(self, cap, sources, sink, limit)

        monkeypatch.setattr(connectivity._DeletionDegrees, "_solve", solving)
        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        for n, most in zip(range(9, 13), (22, 25, 28, 31)):
            solved.clear()
            classify(complete_rooted(n))
            # two bounded reads per unit-index question made 30, 34, 38 and 42
            assert len(solved) <= most, (n, len(solved))
        flows.clear()
        classify(kautz_rooted(3, 2))
        assert len(flows) <= 10, flows  # 13 with two bounded reads

    def test_region_asks_no_bounded_read_twice(self, monkeypatch):
        # neighbouring cells share a removal pattern: (r, s - 1) belongs to
        # both (r, s) and (r + 1, s - 1); the region tests each pattern once,
        # so no read repeats (testing each cell's patterns anew made 539
        # reads here, 220 of them repeats)
        g = random_digraph(14, 56, 2, 7)
        link = g._kernels[0]
        reads = []
        original = _DeletionDegrees.at_most

        def recording(self, bound, followers=frozenset(), edges=frozenset()):
            if self is link:
                reads.append((bound, followers, edges))
            return original(self, bound, followers, edges)

        monkeypatch.setattr(_DeletionDegrees, "at_most", recording)
        joint_region(g)
        assert reads and len(reads) == len(set(reads)), (len(reads), len(set(reads)))

    def test_classify_asks_no_unit_index_twice(self, monkeypatch):
        # each follower's compliance (a unit-index out-edge) is read once,
        # however many minimum breaking agent sets hold it
        asked = []
        original = joint._unit_drop

        def recording(kernel, edge):
            asked.append(edge)
            return original(kernel, edge)

        monkeypatch.setattr(joint, "_unit_drop", recording)
        for seed in (53, 31):
            asked.clear()
            classify(random_digraph(8, 40, 1, seed))
            assert asked and len(asked) == len(set(asked)), (seed, len(asked), len(set(asked)))

    def test_a_bound_under_an_edge_deletions_floor_needs_no_read(self, monkeypatch):
        solved = []
        original = connectivity._DeletionDegrees._solve

        def solving(self, followers, edges, *args):
            solved.append(edges)
            return original(self, followers, edges, *args)

        g = kautz_rooted(3, 2)
        agent = _DeletionDegrees(g, None, 1)
        base = agent.base
        monkeypatch.setattr(connectivity._DeletionDegrees, "_solve", solving)
        inner = [e for e in g.sorted_edges if e[0] not in g.root_set]
        # deleting an edge from a follower lowers ac by at most one: its tail stands in for it
        assert inner and not any(agent.at_most(base - 2, edges=frozenset({e})) for e in inner)
        assert solved == []

    def test_witnesses_stop_at_the_dominator_floor(self, monkeypatch):
        flows = []
        original = connectivity._Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        doc = build_report(kautz_rooted(2, 4), sections=("witnesses",))
        assert len(doc["witnesses"]["mixed"]["edges"]) == 2
        # the lc and ac reads stop at the floor 2 before their first flow,
        # leaving one flow per witness cut; a floor of 1 runs 47 here
        assert len(flows) <= 3

    def test_report_witnesses_take_their_cuts_from_the_flows_that_found_them(self, monkeypatch):
        flows, built = [], []
        flow, init = connectivity._Flow.max_flow, connectivity._Flow.__init__

        def counting(self, cap, sources, sink, limit=None):
            flows.append(sink)
            return flow(self, cap, sources, sink, limit)

        def building(self, g, edge_cost, vertex_cost):
            built.append((edge_cost, vertex_cost))
            init(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        monkeypatch.setattr(connectivity._Flow, "__init__", building)
        doc = build_report(circulant_rooted(12, (1, 2, 3)), sections=("witnesses",))
        assert len(doc["witnesses"]["mixed"]["edges"]) == 3
        # lc <= ac, so the mixed witness is the link witness and builds no
        # network; each witness cut is its winner's capped flow, not a
        # second one (19 flows and 3 networks without these rules)
        assert len(flows) <= 6 and len(built) <= 2, (flows, built)
        flows.clear()
        build_report(kautz_rooted(3, 2), sections=("degrees",))
        # read in sink order, most followers' brackets close (19 flows
        # with each follower read on its own)
        assert len(flows) <= 10, flows

    def test_dominators_only_when_a_degree_needs_a_flow(self, monkeypatch):
        calls = []
        original = digraph.Digraph._dominators.func

        def counting(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(digraph.Digraph, "_dominators", property(counting))
        for n in range(9, 13):
            build_report(complete_rooted(n), sections=("degrees", "classify", "region"))
        # the in-edge brackets settle every read of a complete graph first
        assert calls == []
        for g in (complete_rooted(6), kautz_rooted(2, 3), preset("double_loop", 20)):
            joint_controllability_via_duplicate(g)
        # the all-unit network keeps the floor 1, so `verify` checks jc
        # against an independent read
        assert calls == []

    def test_complete_report_builds_no_flow(self, monkeypatch):
        built = []
        original = connectivity._Flow.__init__

        def counting(self, g, edge_cost, vertex_cost):
            built.append((g.n, edge_cost, vertex_cost))
            original(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "__init__", counting)
        doc = build_report(complete_rooted(10), sections=("degrees", "classify", "region"))
        assert doc["degrees"] == {"lc": 9, "ac": 9, "jc": 9}
        # every follower's in-edge bracket closes, or shows it cannot lower
        # the least cost, so no read runs a flow
        assert built == []

    def test_reads_without_a_flow_build_no_network(self, monkeypatch):
        built = []
        original = connectivity._Flow.__init__

        def counting(self, g, edge_cost, vertex_cost):
            built.append((g.n, edge_cost, vertex_cost))
            original(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "__init__", counting)
        doc = build_report(complete_rooted(10), sections=("degrees", "classify", "region"))
        assert doc["degrees"] == {"lc": 9, "ac": 9, "jc": 9}
        chain = new_digraph(500, [1], [(v, v + 1) for v in range(1, 500)])
        assert build_report(chain, sections=("degrees",))["degrees"]["lc"] == 1
        # the brackets read the graph itself, so a network is built only for
        # a read's first flow, and none of these reads runs one
        assert built == []


def _copy(g):
    """An equal graph with kernels of its own."""
    return digraph.Digraph(g.vertices, g.roots, g.edges)


class TestGraphKernels:
    def test_standalone_calls_share_the_graphs_two_networks(self, monkeypatch):
        built = []
        original = connectivity._Flow.__init__

        def counting(self, g, edge_cost, vertex_cost):
            built.append((edge_cost, vertex_cost))
            original(self, g, edge_cost, vertex_cost)

        monkeypatch.setattr(connectivity._Flow, "__init__", counting)
        g = kautz_rooted(3, 2)
        region = joint_region(g)
        classification = classify(g)
        check_bounds(g, region, classification)
        edges = edge_records(g)
        agent_records(g)
        min_link_cut_witness(g)
        min_agent_cut_witness(g)
        cells = ((0, 3), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1))
        assert [is_joint_rs_controllable(g, r, s) for r, s in cells] == [True] * 3 + [False] * 3
        for edge in g.sorted_edges:
            agent_controllability_index(g, edge)
        # every link of Kautz(3,2) is critical, so no uncritical link index
        # solves a reduced graph, and every call reads the graph's two kernels
        assert all(record.critical for record in edges)
        assert set(built) <= {(1, None), (None, 1)}
        assert built.count((1, None)) <= 1 and built.count((None, 1)) <= 1, built

    def test_concurrent_reports_on_one_graph_match_the_single_thread_one(self):
        # four threads share one graph's kernels, and with them its flow
        # networks; the switch interval makes them interleave inside flows
        sections = ("degrees", "classify", "region", "witnesses")
        graphs = (kautz_rooted(3, 2), circulant_rooted(12, (1, 2, 3)), random_digraph(16, 64, 2, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for template in graphs:
                expected = build_report(_copy(template), sections)
                for _ in range(10):
                    g = _copy(template)  # fresh kernels, so the threads run the flows
                    reports, errors, start = [None] * 4, [], threading.Barrier(4)

                    def work(i):
                        try:
                            start.wait()
                            reports[i] = build_report(g, sections)
                        except Exception as exc:  # a duality assert, say
                            errors.append(exc)

                    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    assert errors == []
                    assert all(report == expected for report in reports)
        finally:
            sys.setswitchinterval(interval)

    def test_a_graph_and_its_kernels_are_freed_without_the_cycle_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = circulant_rooted(12, (1, 2, 3))
            build_report(g)
            refs = [weakref.ref(g)] + [weakref.ref(kernel) for kernel in g._kernels]
            assert g._kernels[0]._net is not None  # the report built a network
            del g
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()


class TestMixedWitness:
    def test_path_prefers_links(self, path3):
        w = critical_agent_link_witness(path3)
        assert w.edges == frozenset({(1, 2)})
        assert w.vertices == frozenset()

    def test_g4_size(self, g4):
        w = critical_agent_link_witness(g4)
        assert w.size == 2
        assert removal_breaks_controllability(g4, w.edges, w.vertices)

    def test_complete4_size(self, complete4):
        assert critical_agent_link_witness(complete4).size == 3

    def test_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            critical_agent_link_witness(new_digraph(3, [1], [(1, 2)]))

    def test_builds_no_graph(self, g4, built_graphs):
        assert critical_agent_link_witness(g4).size == 2
        assert built_graphs == []  # no edge-duplicate graph, no graph per removal test

    def test_fewest_agents_among_minimum_breaking_sets(self):
        # reference: every mixed subset of size jc, tested literally
        checked = 0
        for seed in range(240):
            n = 3 + seed % 5
            roots = 1 + seed % 2
            cap = min(14, (n - roots) * (n - 1))
            g = random_digraph(n, cap // 2 + (seed * 7919) % (cap - cap // 2 + 1), roots, seed)
            if not g.followers or not g.is_controllable():
                continue
            checked += 1
            w = critical_agent_link_witness(g)
            degree = oracle_jc(g)
            assert w.size == degree, f"seed {seed}"
            pool = [("edge", e) for e in g.sorted_edges] + [("agent", v) for v in g.followers]
            fewest = None
            for combo in combinations(pool, degree):
                edges = frozenset(x for kind, x in combo if kind == "edge")
                vertices = frozenset(x for kind, x in combo if kind == "agent")
                if not removal_breaks_controllability(g, edges, vertices):
                    continue
                if any(
                    removal_breaks_controllability(g, edges - {x}, vertices - {x})
                    for _, x in combo
                ):
                    continue
                fewest = len(vertices) if fewest is None else min(fewest, len(vertices))
            assert len(w.vertices) == fewest, f"seed {seed}"
        assert checked >= 190


    def test_only_graphs_with_ac_under_lc_read_the_mixed_network(self, monkeypatch):
        # with lc <= ac a cut of l links and a >= 1 agents costs
        # K(l + a) + a > K * lc, so the cheapest (K, K+1) cut is the link
        # witness; only ac < lc needs the mixed network, and its kernel
        built = []
        init = _DeletionDegrees.__init__

        def building(self, g, *args):
            built.append(args)
            init(self, g, *args)

        monkeypatch.setattr(_DeletionDegrees, "__init__", building)
        under = over = 0
        for seed, g in seeded_sweep(500):
            if not g.followers or not g.is_controllable():
                continue
            link, agent = g._kernels
            lc, ac = link.base, agent.base
            built.clear()
            witness = critical_agent_link_witness(g)
            k = len(g.followers) + 1
            assert ((k, k + 1) in built) == (ac < lc), seed
            if ac < lc:
                under += 1
            else:
                over += 1
                assert (witness.edges, witness.vertices) == (min_link_cut_witness(g).edges, frozenset())
        assert under >= 10 and over > 200, (under, over)


class TestCutSubstitution:
    def test_path_cases(self, path3):
        assert agent_set_from_cut(path3, {(1, 2)}) == frozenset({2})
        assert agent_set_from_cut(path3, {(2, 3)}) == frozenset({2})

    def test_not_an_out_cut(self):
        g = new_digraph(3, [1], [(1, 2), (1, 3), (3, 2)])
        with pytest.raises(NotAnOutCutError):
            agent_set_from_cut(g, {(1, 2)})  # 2 stays reachable through 3

    def test_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            agent_substitution_witness(new_digraph(3, [1], [(1, 2)]))

    def test_double_loop_cut_breaks(self, double_loop5):
        cut, agents = agent_substitution_witness(double_loop5)
        assert len(agents) == len(cut) == 2
        assert removal_breaks_controllability(double_loop5, vertices=agents)

    def test_known_bad_canonical_cut(self):
        # the canonical cut of the smallest attaining follower maps to a
        # non-breaking agent set; the scan finds the working cut instead
        g = ROUTE_CUT_GRAPH
        assert classify(g).agent_critical
        bad = agent_set_from_cut(g, {(1, 2), (5, 2)})
        assert bad == frozenset({2, 5})
        assert not removal_breaks_controllability(g, vertices=bad)
        cut, agents = agent_substitution_witness(g)
        assert cut == frozenset({(2, 4), (3, 4)})
        assert agents == frozenset({2, 3})


class TestLinkSubstitution:
    def test_path(self, path3):
        assert link_set_from_agent_set(path3, {2}) == frozenset({(2, 3)})

    def test_star_has_no_unit_out_edges(self, star4):
        with pytest.raises(ConditionUnmetError):
            link_set_from_agent_set(star4, set(star4.followers))

    def test_double_loop_substitution_breaks(self, double_loop5):
        links = link_set_from_agent_set(double_loop5, {2, 5})
        assert links == frozenset({(2, 3), (5, 4)})
        assert removal_breaks_controllability(double_loop5, edges=links)

    def test_rejects_non_critical_sets(self, path3):
        with pytest.raises(NotACriticalAgentSetError):
            link_set_from_agent_set(path3, {3})
        with pytest.raises(NotACriticalAgentSetError):
            link_set_from_agent_set(path3, {2, 3})
        with pytest.raises(NotACriticalAgentSetError, match="^the agent set is empty$"):
            link_set_from_agent_set(path3, set())
        with pytest.raises(NotACriticalAgentSetError, match="^vertex 1 is not a follower$"):
            link_set_from_agent_set(path3, {1})

    def test_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            link_set_from_agent_set(new_digraph(3, [1], [(1, 2)]), {2})

    def test_substituted_links_need_not_break(self):
        # documented defect: a compliant minimal breaking pair whose
        # forced substitution keeps the graph controllable, because the
        # pair starves the graph jointly while each surrogate link leaves
        # its agent alive to re-feed the rest
        g = ROUTE_LINK_GRAPH
        assert agent_controllability(g) == 2
        assert removal_breaks_controllability(g, vertices={3, 4})
        assert not removal_breaks_controllability(g, vertices={3})
        assert not removal_breaks_controllability(g, vertices={4})
        links = link_set_from_agent_set(g, {3, 4})
        assert links == frozenset({(3, 6), (4, 2)})
        assert not removal_breaks_controllability(g, edges=links)

    def test_no_choice_of_unit_index_links_breaks(self):
        # the sets behind the failing acceptance check 08b: taking any
        # unit-index out-edge of each agent, not only the first, leaves
        # the graph controllable, so no search for the choice mends 08b
        sweep = dict(seeded_sweep(219))
        cases = (
            (sweep[8], {2, 5}),
            (sweep[110], {2, 3}),
            (sweep[218], {3, 5}),
            (ROUTE_LINK_GRAPH, {3, 4}),
        )
        for g, agents in cases:
            link_set_from_agent_set(g, agents)  # a minimum breaking set, every member covered
            choices = [
                [e for e in g.out_edges(v) if agent_controllability_index(g, e) == 1]
                for v in sorted(agents)
            ]
            for links in product(*choices):
                assert not removal_breaks_controllability(g, edges=links), (sorted(agents), links)


def _link_critical_mismatches(graphs, monkeypatch):
    """The controllable graphs whose link-critical answer differs from the literal one, and how many ran a priced flow.

    Every unit index is read before the answer, so a flow during it is
    the re-priced one.
    """
    flows = []
    original = connectivity._Flow.max_flow

    def counting(self, cap, sources, sink, limit=None):
        flows.append(sink)
        return original(self, cap, sources, sink, limit)

    monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
    mismatches, priced = [], 0
    for g in graphs:
        if not g.is_controllable():
            continue
        agent = g._kernels[1]
        unit_index = functools.cache(functools.partial(criticality._unit_drop, agent))
        for v in g.followers:
            any(map(unit_index, g.out_edges(v)))
        flows.clear()
        answer = joint._link_critical(g, agent, unit_index)
        priced += bool(flows)
        if answer != literal_link_critical(g, unit_index):
            mismatches.append(g)
    return mismatches, priced


def _relabeled(g, seed):
    """``g`` with its vertex ids, roots included, permuted by a seeded shuffle."""
    ids = sorted(g.vertices)
    shuffled = ids[:]
    random.Random(seed).shuffle(shuffled)
    label = dict(zip(ids, shuffled))
    return new_digraph(g.n, [label[v] for v in g.roots], [(label[t], label[h]) for t, h in g.edges])


class TestClassification:
    def test_complete_graphs(self):
        for n in range(2, 6):
            c = classify(complete_rooted(n))
            assert c.agent_critical
            assert c.link_critical is False
            assert c.jointly_critical is True

    def test_loops(self, loop5, double_loop5, daisy5):
        for g in (loop5, double_loop5, daisy5):
            c = classify(g)
            assert (c.agent_critical, c.link_critical, c.jointly_critical) == (True, True, True)

    def test_g4_is_neither(self, g4):
        c = classify(g4)
        assert (c.agent_critical, c.link_critical, c.jointly_critical) == (False, False, False)

    def test_kautz(self):
        c = classify(kautz_rooted(2, 2))
        assert (c.agent_critical, c.link_critical, c.jointly_critical) == (True, True, True)

    def test_equal_degrees_alone_do_not_make_a_graph_jointly_critical(self):
        # roots 1-3 feed followers 4-6, which feed each of the cycle
        # 7->8->9->10->7, which feeds 11: lc = ac = 3, but (2, 2) above the
        # triangle is a member, so the region classify reads is not exact
        edges = [(r, f) for r in (1, 2, 3) for f in (4, 5, 6)]
        edges += [(f, c) for f in (4, 5, 6) for c in (7, 8, 9, 10)]
        edges += [(7, 8), (8, 9), (9, 10), (10, 7)] + [(c, 11) for c in (7, 8, 9, 10)]
        g = new_digraph(11, [1, 2, 3], edges)
        assert len(g.edges) == 29
        assert (literal_lc(g), literal_ac(g)) == (3, 3)
        assert classify(g).jointly_critical is False
        region = joint_region(g)
        triangle = {(r, s) for r in range(4) for s in range(4) if r + s <= 3}
        assert set(region.members) == triangle | {(2, 2)}
        budget = OracleBudget(max_vertices=11, max_edges=40)
        assert oracle_joint_rs(g, 2, 2, budget)
        assert oracle_region(g, budget) == region.members

    def test_star_is_not_jointly_critical(self, star4):
        c = classify(star4)
        assert (c.agent_critical, c.link_critical, c.jointly_critical) == (False, False, False)

    def test_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            classify(new_digraph(3, [1], [(1, 2)]))

    def test_kernel_unit_index_matches_the_index_on_the_seeded_sweep(self):
        # reference: the same rules with every unit-index test asked of the
        # literal index, ac(g) - ac(g - e) on a built graph, and the joint
        # class read off the oracle's region of a graph of its own, so it
        # shares no code with classify
        seen = set()
        for seed, g in seeded_sweep(500):
            if not g.is_controllable():
                continue
            acv = literal_ac(g)

            @functools.cache
            def unit_index(edge):
                return acv - literal_ac(g.remove_edges({edge})) == 1

            agent_critical = all(unit_index(e) for e in g.out_cut(g.roots).sorted_members)
            link_critical = literal_link_critical(g, unit_index)
            if agent_critical and link_critical:
                jointly = True
            else:
                copy = digraph.Digraph(g.vertices, g.roots, g.edges)
                jc = oracle_jc(copy)
                jointly = all(r + s <= jc for r, s in oracle_region(copy))
            expected = Classification(agent_critical, link_critical, jointly)
            assert classify(g) == expected, f"seed {seed}"
            seen.add((agent_critical, link_critical))
        # both certificates are exercised in both directions
        assert {(True, True), (True, False), (False, True), (False, False)} <= seen

    def test_unit_index_read_is_the_index_on_the_sweep_and_the_families(self, g4):
        # classify's unit-index question is the exact drop on an ac kernel;
        # the public index reads its own graph's kernel, so neither side
        # reads what the other proved
        families = [g4, kautz_rooted(2, 3), kautz_rooted(3, 2), preset("double_loop", 20)]
        families += [preset("daisy_chain", 7), circulant_rooted(12, (1, 2, 3))]
        families += [complete_rooted(n) for n in range(3, 9)]
        deep_root_drops = 0
        for case, g in seeded_sweep(500) + list(enumerate(families, 1_000)):
            if not g.is_controllable():
                continue
            agent = _DeletionDegrees(g, None, 1)
            twin = digraph.Digraph(g.vertices, g.roots, g.edges)
            for edge in g.sorted_edges:
                index = agent_controllability_index(twin, edge)
                assert criticality._unit_drop(agent, edge) == (index == 1), (case, edge)
                deep_root_drops += edge[0] in g.root_set and index >= 2
        # root edges that lower the capped ac by 2 or more, where "at most
        # one lower" alone would answer yes
        assert deep_root_drops > 100

    def test_link_critical_matches_the_literal_definition(self, g4, monkeypatch):
        # reference: every set of ac followers, walked through the public
        # removal test (literal_link_critical), with the same unit-index
        # answers, so the two sides differ only in how they find the set
        families = [g4, kautz_rooted(2, 2), kautz_rooted(2, 3), kautz_rooted(3, 2), preset("double_loop", 20)]
        families += [preset("daisy_chain", 7), circulant_rooted(10, (1, 2, 3)), circulant_rooted(12, (1, 2, 3))]
        families += [complete_rooted(n) for n in range(3, 9)]
        randoms = [random_digraph(10 + i % 11, (3 + i // 11 % 2) * (10 + i % 11), 1 + i % 2, i) for i in range(176)]
        mismatches, priced = _link_critical_mismatches([g for _, g in seeded_sweep(500)], monkeypatch)
        assert mismatches == []
        assert priced >= 20, priced
        assert _link_critical_mismatches(families, monkeypatch)[0] == []
        mismatches, priced = _link_critical_mismatches(randoms, monkeypatch)
        assert mismatches == []
        # the flow on re-priced split arcs decides 23 of the sweep's 244
        # controllable graphs and 88 of these 150; the others close on a
        # bracket or an in-degree, or sit at the cap
        assert priced >= 80, priced

    def test_link_critical_check_catches_underpriced_arcs(self, monkeypatch):
        # planted fault: each re-priced split arc costs the degree, not one
        # more, so a cut holding a follower with no unit-index out-edge
        # still costs the degree; a five-vertex sweep graph shows it
        original = connectivity._Flow.max_flow

        def underpriced(self, cap, sources, sink, limit=None):
            for arc in range(0, self.first_edge, 2):
                if cap[arc] > 1:
                    cap[arc] = limit - 1
            return original(self, cap, sources, sink, limit)

        monkeypatch.setattr(connectivity._Flow, "max_flow", underpriced)
        mismatches, _ = _link_critical_mismatches([g for _, g in seeded_sweep(500)], monkeypatch)
        assert mismatches and min(g.n for g in mismatches) == 5

    def test_link_critical_walks_no_follower_set(self, monkeypatch):
        # the enumeration walked each set of ac followers in id order until
        # one broke with every member covered: 320 walks on Kautz(3,3) and
        # 1-22 on these relabelings of Kautz(3,2)
        walks, flows = [], []
        reach, flow = digraph.Digraph._reach, connectivity._Flow.max_flow

        def walking(self, *args, **kwargs):
            walks.append(args)
            return reach(self, *args, **kwargs)

        def counting(self, cap, sources, sink, limit=None):
            flows.append(sink)
            return flow(self, cap, sources, sink, limit)

        monkeypatch.setattr(digraph.Digraph, "_reach", walking)
        monkeypatch.setattr(connectivity._Flow, "max_flow", counting)
        kautz = kautz_rooted(3, 2)
        cases = [(kautz_rooted(3, 3), True), (complete_rooted(12), False)]
        cases += [(_relabeled(kautz, seed), True) for seed in range(1, 5)]
        for g, expected in cases:
            agent = g._kernels[1]
            agent.base  # the degree's own walks and flows come first
            unit_index = functools.partial(criticality._unit_drop, agent)
            walks.clear()
            flows.clear()
            assert joint._link_critical(g, agent, unit_index) is expected
            assert walks == [], (g.n, len(walks))
            assert len(flows) <= len(g.followers), (g.n, len(flows))

    def test_report_tests_each_region_cell_once(self, monkeypatch):
        tested = []
        original = joint._rs_controllable

        def recording(g, r, s, *args):
            tested.append((r, s))
            return original(g, r, s, *args)

        monkeypatch.setattr(joint, "_rs_controllable", recording)
        for g in (complete_rooted(10), kautz_rooted(3, 2)):
            tested.clear()
            doc = build_report(g, ("classify", "region"))
            members = {tuple(pair) for pair in doc["region"]["members"]}
            lcv, acv, degree = doc["region"]["lc"], doc["region"]["ac"], doc["region"]["jc"]
            # the cells above the triangle that no known non-member dominates
            cells = [
                (r, s)
                for r in range(lcv + 1)
                for s in range(acv + 1)
                if r + s > degree
                and (r == 0 or (r - 1, s) in members)
                and (s == 0 or (r, s - 1) in members)
            ]
            assert sorted(tested) == sorted(cells)
            assert doc["classification"]["jointly_critical"] is True

    def test_classify_alone_matches_the_report_on_the_seeded_sweep(self):
        # small budgets put the region over budget, and the classification
        # then computes the region on its own, over budget as well
        paths = set()
        for seed, g in seeded_sweep(500):
            if not g.is_controllable():
                continue
            for budget in (1, 2, 5, DEFAULT_SUBSET_BUDGET):
                doc = build_report(g, ("classify", "region"), budget=budget)
                alone = classify(g, budget=budget)
                assert doc["classification"] == {
                    "agent_critical": alone.agent_critical,
                    "link_critical": alone.link_critical,
                    "jointly_critical": alone.jointly_critical,
                }, (seed, budget)
                certified = alone.agent_critical and alone.link_critical
                paths.add((certified, bool(doc["budget"]["exhausted_sections"])))
        # each of the three paths occurs: the certificates, the report's region, a region over budget
        assert {(False, False), (False, True), (True, False)} <= paths


class TestBounds:
    def test_complete4_lc_bound_is_tight(self, complete4):
        rows = {r.name: r for r in check_bounds(complete4)}
        row = rows["edge_count_vs_lc"]
        assert row.applicable and row.holds
        assert len(complete4.edges) == (complete4.n - 1) * link_controllability(complete4)

    def test_double_loop_all_applicable_rows_hold(self, double_loop5):
        c = classify(double_loop5)
        region = joint_region(double_loop5)
        for row in check_bounds(double_loop5, region=region, classification=c):
            if row.applicable:
                assert row.holds, row

    def test_g4_rows(self, g4):
        c = classify(g4)
        region = joint_region(g4)
        rows = {r.name: r for r in check_bounds(g4, region=region, classification=c)}
        assert rows["edge_count_vs_lc"].holds
        assert rows["edge_count_vs_ac"].holds
        assert not rows["region_sum_vs_max_degree"].applicable  # neither class
        assert not rows["agent_critical_edge_bound"].applicable

    def test_multi_root_rows_not_applicable(self):
        # two-root counterexamples force the single-root gating
        g = new_digraph(3, [1, 2], [(1, 3), (2, 3)])
        rows = {r.name: r for r in check_bounds(g)}
        assert not rows["edge_count_vs_lc"].applicable
        assert len(g.edges) < (g.n - 1) * link_controllability(g)

    def test_pathological_ac_row_not_applicable(self, star4):
        rows = {r.name: r for r in check_bounds(star4)}
        assert not rows["edge_count_vs_ac"].applicable
        # the ungated inequality would fail here
        assert len(star4.edges) < star4.n + agent_controllability(star4) - 2

    def test_uncontrollable_jc_row_not_applicable(self):
        g = new_digraph(4, [1], [])
        rows = {r.name: r for r in check_bounds(g)}
        assert not rows["edge_count_vs_jc"].applicable


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=6, max_edges=10))
def test_joint_degree_identities(g):
    degree = joint_controllability(g)
    assert degree == min(link_controllability(g), agent_controllability(g))
    assert degree == joint_controllability_via_duplicate(g)
    assert degree == oracle_jc(g)


@settings(max_examples=25, deadline=None)
@given(digraphs(max_n=5, max_edges=8))
def test_region_laws(g):
    if not g.is_controllable():
        return
    region = joint_region(g)
    members = set(region.members)
    lcv, acv, degree = region.lc, region.ac, region.jc
    for r, s in members:
        assert r <= lcv and s <= acv
        if r == lcv:
            assert s == 0 or (r, s) == (0, 0)
        if s == acv and acv > 0:
            assert r == 0
        if r:
            assert (r - 1, s) in members
        if s:
            assert (r, s - 1) in members
    for r in range(lcv + 1):
        for s in range(acv + 1):
            if r + s <= degree:
                assert (r, s) in members

@settings(max_examples=25, deadline=None)
@given(digraphs(max_n=6, max_edges=10))
def test_class_conclusions(g):
    if not g.is_controllable():
        return
    c = classify(g)
    degree = joint_controllability(g)
    if c.agent_critical:
        assert degree == agent_controllability(g)
    if c.link_critical:
        assert degree == link_controllability(g)
    if c.jointly_critical:
        assert link_controllability(g) == agent_controllability(g) == degree
        assert joint_region(g).exact_for_degree


@settings(max_examples=15, deadline=None)
@given(digraphs(max_n=5, max_edges=7))
def test_region_matches_oracle_cell_for_cell(g):
    if not g.is_controllable():
        return
    assert joint_region(g).members == oracle_region(g)
