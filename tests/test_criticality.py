import functools
from itertools import combinations

import pytest
from hypothesis import given, settings

from robonet import criticality
from robonet.criticality import (
    AgentIndexRecord,
    EdgeIndexRecord,
    agent_controllability_index,
    agent_criticality_index,
    agent_link_indices,
    agent_records,
    edge_records,
    enumerate_critical_sets,
    is_agent_critical,
    is_link_critical,
    link_controllability_index,
    link_criticality_index,
    rank_agents,
)
from robonet.digraph import Digraph, new_digraph, removal_breaks_controllability
from robonet.errors import (
    EdgeIsCriticalError,
    InstanceTooLargeError,
    RootQueriedError,
    UncontrollableError,
    UnknownEdgeError,
)
from robonet.connectivity import WitnessSet, _Flow, link_controllability
from robonet.families import circulant_rooted, complete_rooted, kautz_rooted, preset
from robonet.report import build_report

from conftest import digraphs, literal_ac, literal_lc, seeded_sweep


@pytest.fixture(scope="module")
def chord():
    # path 1 -> 2 -> 3 plus the shortcut (1, 3); the shortcut and (2, 3)
    # are the simplest uncritical links
    return new_digraph(3, [1], [(1, 2), (2, 3), (1, 3)])


@pytest.fixture(scope="module")
def uncontrollable():
    return new_digraph(3, [1], [(1, 2)])


class TestLinkCriticality:
    def test_every_path_edge_is_critical(self, path3):
        assert all(is_link_critical(path3, e) for e in path3.sorted_edges)

    def test_complete_digraphs_have_only_critical_links(self, complete4):
        # the link degree equals every in-degree, so each removal drops it
        assert all(is_link_critical(complete4, e) for e in complete4.sorted_edges)

    def test_chord_graph_criticals(self, chord):
        assert is_link_critical(chord, (1, 2))
        assert not is_link_critical(chord, (1, 3))
        assert not is_link_critical(chord, (2, 3))

    def test_drop_test_matches_enumerated_membership(self, chord):
        sets, truncated = enumerate_critical_sets(chord, "link")
        assert not truncated
        members = {e for w in sets for e in w.edges}
        assert members == {e for e in chord.sorted_edges if is_link_critical(chord, e)}

    def test_uncontrollable_graph_reports_all_critical(self, uncontrollable):
        assert all(is_link_critical(uncontrollable, e) for e in uncontrollable.sorted_edges)

    def test_unknown_edge(self, path3):
        with pytest.raises(UnknownEdgeError):
            is_link_critical(path3, (3, 1))


class TestAgentCriticality:
    def test_path(self, path3):
        assert is_agent_critical(path3, 2)
        assert not is_agent_critical(path3, 3)

    def test_star_followers_all_critical(self, star4):
        assert all(is_agent_critical(star4, v) for v in star4.followers)

    def test_g4_criticals_match_pair_enumeration(self, g4):
        sets, _ = enumerate_critical_sets(g4, "agent")
        assert [sorted(w.vertices) for w in sets] == [[3, 6]]
        in_some_cut = {v for w in sets for v in w.vertices}
        assert {v for v in g4.followers if is_agent_critical(g4, v)} == in_some_cut

    def test_root_queried(self, path3):
        with pytest.raises(RootQueriedError):
            is_agent_critical(path3, 1)

    def test_matches_unit_criticality_index_on_the_seeded_sweep(self):
        # outside the all-directly-fed corner ac = |V| - |R|, a follower is
        # critical exactly when stripping its out-edges lowers ac by one;
        # both sides are read literally, on built graphs, and the public
        # functions must agree with them
        checked = 0
        for seed, g in seeded_sweep(500):
            if not g.followers or not g.is_controllable():
                continue
            acv = literal_ac(g)
            if acv >= len(g.vertices) - len(g.roots):
                continue
            for v in g.followers:
                checked += 1
                critical = literal_ac(g.remove_vertices({v})) == acv - 1
                index = acv - literal_ac(g.remove_edges(g.out_edges(v)))
                assert critical == (index == 1), (seed, v)
                assert is_agent_critical(g, v) == critical, (seed, v)
                assert agent_criticality_index(g, v) == index, (seed, v)
        assert checked > 500


class TestEdgeIndex:
    def test_path_bridge(self, path3):
        assert agent_controllability_index(path3, (2, 3)) == 1

    def test_two_direct_edges_have_zero_index(self):
        g = new_digraph(3, [1, 2], [(1, 3), (2, 3)])
        assert agent_controllability_index(g, (1, 3)) == 0
        assert agent_controllability_index(g, (2, 3)) == 0

    def test_other_in_edges_of_direct_vertex_are_zero(self):
        g = new_digraph(3, [1], [(1, 2), (1, 3), (3, 2)])
        # 2 is directly fed, so its other in-edge cannot matter
        assert agent_controllability_index(g, (3, 2)) == 0

    def test_sole_direct_edge_can_exceed_one(self, star4):
        # removing the only feed of a follower makes the graph
        # uncontrollable, so the agent degree drops to zero at once
        assert agent_controllability_index(star4, (1, 2)) == 3

    def test_requires_controllable_baseline(self, uncontrollable):
        with pytest.raises(UncontrollableError):
            agent_controllability_index(uncontrollable, (1, 2))


class TestVertexIndices:
    def test_path_values(self, path3):
        assert agent_criticality_index(path3, 2) == 1
        assert link_criticality_index(path3, 2) == 1
        assert agent_criticality_index(path3, 3) == 0
        assert link_criticality_index(path3, 3) == 0

    def test_star_is_flat(self, star4):
        assert all(agent_criticality_index(star4, v) == 0 for v in star4.followers)

    def test_root_rejected(self, path3):
        with pytest.raises(RootQueriedError):
            agent_criticality_index(path3, 1)


class TestLinkControllabilityIndex:
    def test_rejected_for_critical_links(self, complete4):
        with pytest.raises(EdgeIsCriticalError):
            link_controllability_index(complete4, (2, 3))

    def test_chord_values(self, chord):
        assert link_controllability_index(chord, (1, 3)) == 1
        assert link_controllability_index(chord, (2, 3)) == 1

    def test_zero_when_critical_set_unchanged(self):
        g = new_digraph(4, [1], [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
        assert not is_link_critical(g, (2, 4))
        assert link_controllability_index(g, (2, 4)) == 0


class TestAgentLinkIndices:
    def test_path_counts(self, path3):
        assert agent_link_indices(path3, 2) == (1, 0)

    def test_star_is_vacuous(self, star4):
        assert all(agent_link_indices(star4, v) == (0, 0) for v in star4.followers)

    def test_g4_values(self, g4):
        # every G4 edge is critical, so the uncritical growth is zero and
        # the critical count equals the out-degree
        for v in g4.followers:
            crit, growth = agent_link_indices(g4, v)
            assert crit == len(g4.out_edges(v))
            assert growth == 0


class TestEnumeration:
    def test_path_link_sets(self, path3):
        sets, truncated = enumerate_critical_sets(path3, "link")
        assert [sorted(w.edges) for w in sets] == [[(1, 2)], [(2, 3)]]
        assert not truncated

    def test_path_agent_sets(self, path3):
        sets, _ = enumerate_critical_sets(path3, "agent")
        assert [sorted(w.vertices) for w in sets] == [[2]]

    def test_loop_agent_sets(self, loop5):
        sets, _ = enumerate_critical_sets(loop5, "agent")
        assert [sorted(w.vertices) for w in sets] == [[2], [3], [4]]

    def test_complete3_link_sets(self):
        sets, _ = enumerate_critical_sets(complete_rooted(3), "link")
        assert [sorted(w.edges) for w in sets] == [
            [(1, 2), (1, 3)],
            [(1, 2), (3, 2)],
            [(1, 3), (2, 3)],
        ]

    def test_cap_truncates(self, loop5):
        sets, truncated = enumerate_critical_sets(loop5, "agent", cap=2)
        assert len(sets) == 2 and truncated

    def test_budget_guard(self, complete4):
        with pytest.raises(InstanceTooLargeError):
            enumerate_critical_sets(complete4, "link", budget=3)

    def test_witnesses_replay(self, g4):
        for kind in ("link", "agent"):
            for w in enumerate_critical_sets(g4, kind)[0]:
                assert removal_breaks_controllability(g4, w.edges, w.vertices)

    def test_matches_the_literal_enumeration_on_the_seeded_sweep(self):
        # reference: a minimality filter on every breaking set, and the
        # stranded followers read off the reduced graph built from it
        def literal(g, kind):
            pool = g.sorted_edges if kind == "link" else g.followers
            size = literal_lc(g) if kind == "link" else literal_ac(g)

            def breaks(subset):
                if kind == "link":
                    return removal_breaks_controllability(g, edges=subset)
                return removal_breaks_controllability(g, vertices=subset)

            found = []
            for combo in combinations(pool, size):
                if not breaks(combo) or any(
                    breaks(combo[:i] + combo[i + 1 :]) for i in range(len(combo))
                ):
                    continue
                edges = frozenset(combo) if kind == "link" else frozenset()
                vertices = frozenset() if kind == "link" else frozenset(combo)
                reduced = g.remove_edges(edges).remove_vertices(vertices)
                found.append(WitnessSet(kind, edges, vertices, reduced.unreachable_followers()))
            return found

        for seed, g in seeded_sweep(500):
            if not g.is_controllable():
                continue
            for kind in ("link", "agent"):
                expected = literal(g, kind)
                assert enumerate_critical_sets(g, kind) == (expected, False), (seed, kind)
                assert enumerate_critical_sets(g, kind, cap=1) == (expected[:1], len(expected) > 1)


class TestRanking:
    def test_path_order(self, path3):
        assert rank_agents(path3) == [2, 3]

    def test_star_falls_back_to_id_order(self, star4):
        assert rank_agents(star4) == [2, 3, 4]

    def test_g4_order_is_stable(self, g4):
        assert rank_agents(g4) == [3, 6, 2, 4, 5]
        assert rank_agents(g4) == rank_agents(g4)


class TestRecords:
    def test_uncontrollable_records_are_undefined(self, uncontrollable):
        for record in edge_records(uncontrollable):
            assert record.critical
            assert record.agent_controllability_index is None
        for record in agent_records(uncontrollable):
            assert record.critical
            assert record.agent_criticality_index is None

    def test_critical_edges_have_no_growth_index(self, path3):
        for record in edge_records(path3):
            assert record.critical
            assert record.link_controllability_index is None

    def test_records_match_the_public_degree_drops(self, g4, monkeypatch):
        # the records and the public per-element functions read every drop
        # off the graph's two kernels; the reference takes each one from its
        # literal definition, the degrees of built reduced graphs, which (like
        # the uncritical link indices) are solved again and again, so those
        # solves are remembered per graph
        monkeypatch.setattr(
            criticality, "link_controllability", functools.cache(link_controllability)
        )
        families = {"g4": g4, "kautz(2,3)": kautz_rooted(2, 3), "double-loop 20": preset("double_loop", 20)}
        families["circulant(12,{1,2,3})"] = circulant_rooted(12, (1, 2, 3))
        families.update((f"complete {n}", complete_rooted(n)) for n in range(5, 9))
        seen = set()
        for case, g in seeded_sweep(500) + list(families.items()):
            edges, agents = _reference_records(g)
            # records and public functions each on a graph of their own,
            # so neither reads what the other proved on the kernels
            built = [(edge_records(g), agent_records(g))]
            if g.is_controllable():  # the public indices need a controllable graph
                built.append(_public_records(Digraph(g.vertices, g.roots, g.edges)))
            for got_edges, got_agents in built:
                assert len(got_edges) == len(edges) and len(got_agents) == len(agents), case
                for record, expected in zip(got_edges, edges):
                    assert record == expected, case
                for record, expected in zip(got_agents, agents):
                    assert record == expected, case
            if case in families:
                continue
            if not g.is_controllable():
                seen.add("uncontrollable")
            seen.update("uncritical link" for r in edges if not r.critical)
            seen.update("agent ctrl index >= 2" for r in edges if (r.agent_controllability_index or 0) >= 2)
            seen.update(
                "criticality index >= 2"
                for r in agents
                if max(r.agent_criticality_index or 0, r.link_criticality_index or 0) >= 2
            )
        assert seen >= {
            "uncontrollable", "uncritical link", "agent ctrl index >= 2", "criticality index >= 2"
        }

    def test_index_reads_run_flows_to_the_deleted_edges_heads_alone(self, g4, monkeypatch):
        # each exact drop reads the deleted edges' heads from the floor the
        # deletion proves, and most heads' in-edge brackets settle there;
        # reading every surviving follower ran 40, 298, 1,814, 1,187 and 410
        # flows on these graphs.  Where that floor is under one link, one
        # walk of the reduced graph raises it to 1 or shows a stranded
        # follower, so Kautz(2,3) and double-loop 20 run none (14 and 32
        # from the floor base - |E| alone)
        flows = []
        original = _Flow.max_flow

        def counting(self, cap, source, sink, limit=None):
            flows.append(sink)
            return original(self, cap, source, sink, limit)

        monkeypatch.setattr(_Flow, "max_flow", counting)
        most = {
            "g4": (g4, 20),
            "kautz(2,3)": (kautz_rooted(2, 3), 0),
            "kautz(2,4)": (kautz_rooted(2, 4), 40),
            "double-loop 20": (preset("double_loop", 20), 0),
            "circulant(12,{1,2,3})": (circulant_rooted(12, (1, 2, 3)), 45),
        }
        for case, (g, bound) in most.items():
            flows.clear()
            build_report(g, ("indices",))
            assert len(flows) <= bound, (case, len(flows))


def _reference_records(g):
    """The edge and agent records of ``g`` from the literal definitions.

    Every degree drop is the difference of ``lc`` or ``ac`` of ``g`` and of
    a reduced graph built with ``remove_edges``/``remove_vertices``, and
    every critical-link count counts such drops of one.  The degree of
    each graph is solved once.
    """
    if not g.is_controllable():
        return (
            [EdgeIndexRecord(e, True, None, None) for e in g.sorted_edges],
            [AgentIndexRecord(v, True, None, None, None, None) for v in g.followers],
        )
    _lc, _ac = functools.cache(literal_lc), functools.cache(literal_ac)

    def critical_links(h):
        if not h.is_controllable():
            return set(h.edges)
        return {e for e in h.edges if _lc(h.remove_edges({e})) == _lc(h) - 1}

    lcv, acv, critical = _lc(g), _ac(g), critical_links(g)

    def growth(gone):
        return len(critical_links(g.remove_edges(gone))) - len(critical) if gone else 0

    edges = [
        EdgeIndexRecord(
            e,
            e in critical,
            acv - _ac(g.remove_edges({e})),
            None if e in critical else growth({e}),
        )
        for e in g.sorted_edges
    ]
    agents = []
    for v in g.followers:
        out = g.out_edges(v)
        stripped = g.remove_edges(out)
        agents.append(
            AgentIndexRecord(
                v,
                _ac(g.remove_vertices({v})) == acv - 1,
                acv - _ac(stripped),
                lcv - _lc(stripped),
                len(critical.intersection(out)),
                growth([e for e in out if e not in critical]),
            )
        )
    return edges, agents


def _public_records(g):
    """The edge and agent records of a controllable ``g``, built from the public per-element functions."""
    edges = []
    for e in g.sorted_edges:
        critical = is_link_critical(g, e)
        growth = None if critical else link_controllability_index(g, e)
        edges.append(EdgeIndexRecord(e, critical, agent_controllability_index(g, e), growth))
    agents = [
        AgentIndexRecord(
            v,
            is_agent_critical(g, v),
            agent_criticality_index(g, v),
            link_criticality_index(g, v),
            *agent_link_indices(g, v),
        )
        for v in g.followers
    ]
    return edges, agents


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=6, max_edges=10))
def test_criticality_matches_enumeration_everywhere(g):
    if not g.is_controllable():
        return
    link_sets, _ = enumerate_critical_sets(g, "link")
    link_members = {e for w in link_sets for e in w.edges}
    assert {e for e in g.sorted_edges if is_link_critical(g, e)} == link_members
    agent_sets, _ = enumerate_critical_sets(g, "agent")
    agent_members = {v for w in agent_sets for v in w.vertices}
    assert {v for v in g.followers if is_agent_critical(g, v)} == agent_members