import os
from itertools import combinations

import pytest
from hypothesis import strategies as st

import robonet
from robonet.connectivity import max_edge_disjoint, max_vertex_disjoint
from robonet.digraph import new_digraph, removal_breaks_controllability
from robonet.families import circulant_rooted, complete_rooted, preset
from robonet.oracle import random_digraph

# child processes that run `python -m robonet` import the same source tree
# as the tests, also when pytest alone put it on the path
_SOURCE_ROOT = os.path.dirname(os.path.dirname(robonet.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SOURCE_ROOT, os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def path3():
    return new_digraph(3, [1], [(1, 2), (2, 3)])


@pytest.fixture(scope="session")
def loop5():
    return preset("simple_loop", 5)


@pytest.fixture(scope="session")
def double_loop5():
    return preset("double_loop", 5)


@pytest.fixture(scope="session")
def daisy5():
    return preset("daisy_chain", 5)


@pytest.fixture(scope="session")
def g4():
    return circulant_rooted(6, (2, 3, 5))


@pytest.fixture(scope="session")
def complete4():
    return complete_rooted(4)


@pytest.fixture(scope="session")
def star4():
    # one root feeding three followers directly; no follower out-edges
    return new_digraph(4, [1], [(1, 2), (1, 3), (1, 4)])


@st.composite
def digraphs(draw, max_n: int = 7, max_edges: int = 14):
    """Small random rooted digraphs for property tests."""
    n = draw(st.integers(2, max_n))
    root_count = draw(st.integers(1, n - 1))
    pool = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(root_count + 1, n + 1)
        if a != b
    ]
    cap = min(max_edges, len(pool))
    edges = draw(st.frozensets(st.sampled_from(pool), max_size=cap))
    return new_digraph(n, range(1, root_count + 1), edges)


def seeded_sweep(size: int = 500) -> list:
    """The deterministic (seed, graph) population the oracle cross-checks run on.

    Graph ``seed`` has 3-8 vertices, one or two roots and at most 16
    edges, drawn by :func:`~robonet.oracle.random_digraph`.
    """
    population = []
    for seed in range(size):
        n = 3 + seed % 6
        roots = 1 + seed % 2
        cap = min(16, (n - roots) * (n - 1))
        population.append((seed, random_digraph(n, (seed * 7919) % (cap + 1), roots, seed)))
    return population


def literal_lc(g) -> int:
    """``lc`` by its definition: the least per-follower edge-disjoint flow, 0 without followers or control.

    The reference for the ``lc`` kernel's degree reads: each flow is a
    full cut of one follower, which shares no bound or stopping rule with
    those reads.
    """
    if not g.followers or not g.is_controllable():
        return 0
    return min(max_edge_disjoint(g, v).value for v in g.followers)


def literal_ac(g) -> int:
    """``ac`` by its definition: the least per-follower vertex-disjoint flow, 0 without followers or control.

    The reference for the ``ac`` kernel's degree reads, as :func:`literal_lc` is for ``lc``.
    """
    if not g.followers or not g.is_controllable():
        return 0
    return min(max_vertex_disjoint(g, v).value for v in g.followers)


_literal_degrees: dict = {}


def literal_degree(g, mode: int) -> int:
    """:func:`literal_lc` (``mode`` 0) or :func:`literal_ac` (``mode`` 1) of ``g``, solved once per graph in a session.

    The slowest references take the degrees of reduced graphs built from
    the seeded sweep, and several tests build the same ones: this cache
    shares each solve among them.  It keeps no graph alive: its key holds
    the vertices and the edges as bit masks, a fraction of the memory of
    the graph's frozensets.
    """
    width = max(g.vertices).bit_length()  # each head fits below its tail's bits
    key = (mode, g.roots, sum(1 << v for v in g.vertices), sum(1 << (t << width | h) for t, h in g.edges))
    if key not in _literal_degrees:
        _literal_degrees[key] = (literal_lc, literal_ac)[mode](g)
    return _literal_degrees[key]


def literal_link_critical(g, unit_index) -> bool:
    """The link-critical class by its definition: some minimal breaking set of ``ac`` followers, each with an out-edge ``unit_index`` accepts.

    The reference for :func:`robonet.joint._link_critical`: it tries every
    set of :func:`literal_ac` followers in id order, and checks that a set
    breaks, and that no member can be spared, through the public removal
    test, so it shares no cut, bracket or walk with the kernel's read.
    """
    for combo in combinations(g.followers, literal_ac(g)):
        if not removal_breaks_controllability(g, vertices=combo):
            continue
        if any(removal_breaks_controllability(g, vertices=combo[:i] + combo[i + 1 :]) for i in range(len(combo))):
            continue
        if all(any(unit_index(e) for e in g.out_edges(v)) for v in combo):
            return True
    return False
