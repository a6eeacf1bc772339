import pytest

from robonet.connectivity import agent_controllability, link_controllability
from robonet.digraph import new_digraph
from robonet.errors import (
    IndexOutOfRangeError,
    InvalidConnectionSetError,
    ParameterOverflowError,
)
from robonet.families import (
    circulant_edges,
    circulant_rooted,
    complete_rooted,
    kautz_edges,
    kautz_rooted,
    preset,
)


class TestComplete:
    def test_two_vertices(self):
        assert complete_rooted(2).sorted_edges == ((1, 2),)

    def test_edge_count(self):
        g = complete_rooted(4)
        assert len(g.edges) == 4 * 3 - 3 == 9

    def test_requires_two_vertices(self):
        with pytest.raises(IndexOutOfRangeError):
            complete_rooted(1)

    def test_edge_cap(self):
        # n(n - 1) edges: 1001 vertices is the first count over the cap
        with pytest.raises(ParameterOverflowError, match="1001000 edges"):
            complete_rooted(1001)

    def test_root_must_be_a_vertex(self):
        with pytest.raises(IndexOutOfRangeError, match=r"^root 5 outside 1\.\.3$"):
            complete_rooted(3, root=5)

    def test_always_validates_and_is_controllable(self):
        for n in range(2, 8):
            assert complete_rooted(n).is_controllable()


class TestKautz:
    def test_base_parameters(self):
        n, edges = kautz_edges(2, 2)
        assert n == 6
        assert len(edges) == 12
        assert {j for i, j in edges if i == 1} == {2, 3}
        # uniform out-degree before rooting, no self-loops by construction
        for v in range(1, 7):
            assert len([e for e in edges if e[0] == v]) == 2

    def test_kappa_one_is_the_complete_digraph(self):
        assert kautz_rooted(3, 1) == complete_rooted(4)

    def test_rooted_instance(self):
        g = kautz_rooted(2, 2)
        assert g.n == 6 and len(g.edges) == 10
        assert g.is_controllable()

    def test_parameter_validation(self):
        with pytest.raises(ParameterOverflowError):
            kautz_rooted(1, 2)
        with pytest.raises(ParameterOverflowError):
            kautz_rooted(2, 40)


class TestCirculant:
    def test_g1_is_the_simple_loop(self):
        g = circulant_rooted(5, (1,))
        assert g.sorted_edges == ((1, 2), (2, 3), (3, 4), (4, 5))

    def test_g4_edges(self):
        g = circulant_rooted(6, (2, 3, 5))
        assert len(g.edges) == 6 * 3 - 3
        assert g.out_cut({1}).members == frozenset({(1, 3), (1, 4), (1, 6)})

    def test_connection_set_validation(self):
        with pytest.raises(InvalidConnectionSetError, match="n >= 2"):
            circulant_rooted(1, (1,))
        with pytest.raises(InvalidConnectionSetError):
            circulant_rooted(5, ())
        with pytest.raises(InvalidConnectionSetError):
            circulant_rooted(5, (5,))
        with pytest.raises(InvalidConnectionSetError):
            circulant_rooted(5, (0,))

    def test_duplicate_offsets_collapse(self):
        assert circulant_edges(5, (1, 1)) == circulant_edges(5, (1,))

    def test_link_degree_matches_offset_count(self):
        for n, offsets in [(5, (1,)), (5, (1, 4)), (6, (2, 3, 5)), (8, (1, 2, 5))]:
            g = circulant_rooted(n, offsets)
            if g.is_controllable():
                assert link_controllability(g) == len(offsets)


class TestPresets:
    def test_equivalences(self):
        assert preset("simple_loop", 5) == circulant_rooted(5, (1,))
        assert preset("double_loop", 5) == circulant_rooted(5, (1, 4))
        assert preset("daisy_chain", 5) == circulant_rooted(5, (1, 3))

    def test_size_floor(self):
        with pytest.raises(InvalidConnectionSetError):
            preset("double_loop", 2)

    def test_unknown_kind(self):
        with pytest.raises(InvalidConnectionSetError):
            preset("figure_eight", 5)


class TestAlternateRoot:
    def test_circulant_degrees_are_root_independent(self):
        base = circulant_rooted(6, (2, 3, 5), root=1)
        moved = circulant_rooted(6, (2, 3, 5), root=4)
        assert moved.roots == (4,)
        assert link_controllability(moved) == link_controllability(base)
        assert agent_controllability(moved) == agent_controllability(base)

    def test_kautz_degrees_are_root_independent(self):
        base = kautz_rooted(2, 2, root=1)
        moved = kautz_rooted(2, 2, root=5)
        assert link_controllability(moved) == link_controllability(base)
        assert agent_controllability(moved) == agent_controllability(base)


def test_uncontrollable_circulant_is_still_a_valid_graph():
    # offsets {2} on an even cycle leave the odd orbit unreachable
    g = circulant_rooted(4, (2,))
    assert not g.is_controllable()
    assert g == new_digraph(4, [1], [(1, 3), (2, 4), (4, 2)])