from itertools import combinations

import pytest
from hypothesis import given, settings

from robonet import digraph
from robonet.connectivity import _DeletionDegrees, agent_controllability, link_controllability
from robonet.digraph import edge_duplicate, new_digraph, removal_breaks_controllability
from robonet.errors import (
    ConditionUnmetError,
    InstanceTooLargeError,
    NotACriticalAgentSetError,
    NotAnOutCutError,
    UncontrollableError,
)
from robonet.families import complete_rooted, kautz_rooted
from robonet.joint import (
    agent_set_from_cut,
    agent_substitution_witness,
    check_bounds,
    classify,
    critical_agent_link_witness,
    duplicate_agent_controllability,
    is_joint_rs_controllable,
    joint_controllability,
    joint_controllability_via_duplicate,
    joint_region,
    link_set_from_agent_set,
)
from robonet.oracle import oracle_jc, oracle_region, random_digraph

from conftest import digraphs


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
        assert duplicate_agent_controllability(dup) == 2 == joint_controllability(g)

    def test_white_count_cap(self):
        # both followers are directly fed; the joint degree is attained
        # only by wiping out the follower set, which the duplicate's
        # per-target cuts cannot see without the cap
        g = new_digraph(4, [1, 2], [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 3)])
        assert joint_controllability(g) == 2
        assert joint_controllability_via_duplicate(g) == 2


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


def _proper_follower_subsets(g):
    followers = g.followers
    for size in range(len(followers)):
        for combo in combinations(followers, size):
            yield frozenset(combo)


class TestDeletionDegrees:
    def test_matches_vertex_deleted_graphs_on_families(self, g4):
        for g in (g4, kautz_rooted(2, 3), complete_rooted(6)):
            degrees = _DeletionDegrees(g)
            for removed in _proper_follower_subsets(g):
                assert degrees.lc_without(removed) == link_controllability(
                    g.remove_vertices(removed)
                ), sorted(removed)

    def test_matches_vertex_deleted_graphs_on_random_graphs(self):
        stranded = 0
        for seed in range(120):
            n = 3 + seed % 6
            roots = 1 + seed % 2
            cap = (n - roots) * (n - 1)
            g = random_digraph(n, (seed * 7919) % (cap + 1), roots, seed)
            degrees = _DeletionDegrees(g)
            for removed in _proper_follower_subsets(g):
                expected = link_controllability(g.remove_vertices(removed))
                assert degrees.lc_without(removed) == expected, (seed, sorted(removed))
                stranded += expected == 0
        assert stranded > 100  # subsets that strand a follower are covered

    def test_no_surviving_follower_is_zero(self, path3):
        assert _DeletionDegrees(path3).lc_without(frozenset(path3.followers)) == 0

    def test_region_builds_no_graph_per_subset(self, monkeypatch):
        g = complete_rooted(8)
        built = []
        original = digraph.Digraph.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(digraph.Digraph, "__post_init__", counting)
        region = joint_region(g)
        assert region.members == tuple(
            sorted((r, s) for r in range(8) for s in range(8) if r + s <= 7)
        )
        # the region tests hundreds of follower subsets; none is built as a graph
        assert len(built) <= 2


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


class TestCutSubstitution:
    def test_path_cases(self, path3):
        assert agent_set_from_cut(path3, {(1, 2)}) == frozenset({2})
        assert agent_set_from_cut(path3, {(2, 3)}) == frozenset({2})

    def test_not_an_out_cut(self):
        g = new_digraph(3, [1], [(1, 2), (1, 3), (3, 2)])
        with pytest.raises(NotAnOutCutError):
            agent_set_from_cut(g, {(1, 2)})  # 2 stays reachable through 3

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

    def test_star_is_not_jointly_critical(self, star4):
        c = classify(star4)
        assert (c.agent_critical, c.link_critical, c.jointly_critical) == (False, False, False)

    def test_requires_controllable(self):
        with pytest.raises(UncontrollableError):
            classify(new_digraph(3, [1], [(1, 2)]))


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
