"""Per-element criticality tests, importance indices, and agent ranking.

An element is critical when it belongs to some minimal breaking set of
minimum size.  Testing that membership directly is exponential, so the
implementation uses the degree-drop equivalence instead: an edge is
critical iff removing it lowers the link controllability degree by one
(a minimum breaking set of the reduced graph plus the edge is a minimum
breaking set of the original, and conversely).  The same argument works
for followers and the agent degree.  The exhaustive enumeration operation
below serves as the independent cross-check for that shortcut: it tests
each candidate set with one masked walk (:meth:`Digraph._breaks
<robonet.digraph.Digraph._breaks>`), which also gives a breaking set's
stranded followers.

The per-element functions read every degree drop of the graph itself
from its ``lc`` and ``ac`` kernels (:attr:`Digraph._kernels
<robonet.digraph.Digraph._kernels>`), with the deleted edges or follower
masked on one network per mode, so no graph or network is built per
element.  The record builders read the same kernels directly, without
checking each element and the graph's controllability again.  The
critical links are read once per head on the ``lc`` kernel
(:meth:`~robonet.connectivity._DeletionDegrees.uncritical_tails`): a link
lowers ``lc`` only through a cheapest cut of its head, which the head's
in-edge bracket settles for all its in-edges at once, or else one flow
and a search of its residual.  A report reads every head once for its
edge records and hands their flags to its agent records.  A follower is
critical when ``ac`` after its deletion is at most one less (a bounded
read: it lowers ``ac`` by at most one).  The indices take the exact
read: deleting a root edge or all of a follower's out-edges can lower a
degree by more.  Every index
deletes edges only, so that read runs flows to the deleted edges' heads
alone, and it starts from a floor: the degree less the deleted links
(``lc``), or less their tails when all are followers (``ac``).  Where
that floor is under 1, the graph's dominator tree tells before the first
flow whether the deletion strands a follower (the degree is 0) or not
(the floor rises to 1): each index deletes one edge or every out-edge of
one follower, and the tree answers both without a walk.
:func:`is_link_critical`, :func:`link_controllability_index` and the
uncritical link index of :func:`agent_link_indices` keep the literal
definitions: they build each reduced graph and solve its degree with
:func:`~robonet.connectivity.link_controllability`, one network per
follower, and count the critical links of each reduced graph that way.

All index operations presuppose a controllable baseline.  For an
uncontrollable graph the degrees are zero, every element counts as
critical, and the record builders report indices as undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Collection, Iterable

from .budget import DEFAULT_SUBSET_BUDGET
from .connectivity import WitnessSet, _DeletionDegrees, link_controllability
from .digraph import Digraph, Edge
from .errors import (
    EdgeIsCriticalError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    RootQueriedError,
    UncontrollableError,
)


def _check_edge(g: Digraph, edge: Edge) -> Edge:
    (edge,) = g._checked_edges((edge,))
    return edge


def _check_follower(g: Digraph, v: int) -> int:
    v = int(v)
    if v not in g.vertices:
        raise IndexOutOfRangeError(f"unknown vertex {v}")
    if v in g.root_set:
        raise RootQueriedError(f"vertex {v} is a root; indices apply to followers")
    return v


def _require_controllable(g: Digraph) -> None:
    if not g.is_controllable():
        raise UncontrollableError(
            "the graph is uncontrollable: degrees are zero and every element is critical"
        )


def _drop(kernel: _DeletionDegrees, edges: frozenset[Edge]) -> int:
    """How much deleting the edges lowers the kernel's degree (the exact read)."""
    return kernel.base - kernel.without(edges=edges)


def _unit_drop(kernel: _DeletionDegrees, edge: Edge) -> bool:
    """Does deleting the edge lower the kernel's degree by exactly 1 (the exact read)?

    Asked on the ``ac`` kernel, where it is a unit agent controllability
    index (a root edge can lower ``ac`` by more).  On the ``lc`` kernel it
    is link criticality, which the records read per head instead
    (:func:`_uncritical_links`).
    """
    return _drop(kernel, frozenset((edge,))) == 1


def _uncritical_links(link: _DeletionDegrees, heads: Iterable[int]) -> set[Edge]:
    """The links into the heads of a controllable graph that are not critical, each head read once on its ``lc`` kernel."""
    return {(tail, head) for head in heads for tail in link.uncritical_tails(head)}


def is_link_critical(g: Digraph, edge: Edge) -> bool:
    """True when the edge belongs to some minimum breaking edge set.

    Every link of an uncontrollable graph counts as critical.
    """
    edge = _check_edge(g, edge)
    if not g.is_controllable():
        return True
    return link_controllability(g.remove_edges({edge})) == link_controllability(g) - 1


def _is_critical_agent(agent: _DeletionDegrees, v: int) -> bool:
    """:func:`is_agent_critical` on the ``ac`` kernel of a controllable graph."""
    return agent.at_most(agent.base - 1, followers=frozenset((v,)))


def is_agent_critical(g: Digraph, v: int) -> bool:
    """True when the follower belongs to some minimum breaking agent set.

    That is, when deleting it lowers ``ac`` by one, read on the graph's
    ``ac`` kernel.
    """
    v = _check_follower(g, v)
    if not g.is_controllable():
        return True
    return _is_critical_agent(g._kernels[1], v)


def agent_controllability_index(g: Digraph, edge: Edge) -> int:
    """Drop in the agent controllability degree caused by deleting one edge."""
    edge = _check_edge(g, edge)
    _require_controllable(g)
    return _drop(g._kernels[1], frozenset((edge,)))


def agent_criticality_index(g: Digraph, v: int) -> int:
    """Drop in the agent degree when all out-edges of the follower are deleted."""
    v = _check_follower(g, v)
    _require_controllable(g)
    return _drop(g._kernels[1], frozenset(g.out_edges(v)))


def link_criticality_index(g: Digraph, v: int) -> int:
    """Drop in the link degree when all out-edges of the follower are deleted."""
    v = _check_follower(g, v)
    _require_controllable(g)
    return _drop(g._kernels[0], frozenset(g.out_edges(v)))


def _critical_link_count(g: Digraph) -> int:
    if not g.is_controllable():
        return len(g.edges)
    return sum(1 for e in g.sorted_edges if is_link_critical(g, e))


def link_controllability_index(g: Digraph, edge: Edge) -> int:
    """How many links turn critical when this uncritical link is removed.

    Defined for uncritical links only; ranking two uncritical links by
    this index tells which one matters more.
    """
    edge = _check_edge(g, edge)
    if is_link_critical(g, edge):
        raise EdgeIsCriticalError(
            f"edge {edge[0]}->{edge[1]} is critical; the index applies to uncritical links"
        )
    return _uncritical_link_index(g, [edge])


def agent_link_indices(g: Digraph, v: int) -> tuple[int, int]:
    """(critical link index, uncritical link index) of a follower.

    The first counts critical links among the follower's out-edges, read
    on the graph's ``lc`` kernel; the second is the growth in the total
    critical-link count after removing the uncritical ones.
    """
    v = _check_follower(g, v)
    _require_controllable(g)
    return _link_indices(g, v, _uncritical_links(g._kernels[0], g._succ[v]))


def _link_indices(g: Digraph, v: int, uncritical_links: Collection[Edge]) -> tuple[int, int]:
    """:func:`agent_link_indices`, with ``uncritical_links`` holding the uncritical ones among the follower's out-edges."""
    out = g._out[v]
    uncritical = [e for e in out if e in uncritical_links]
    return len(out) - len(uncritical), _uncritical_link_index(g, uncritical)


def _uncritical_link_index(g: Digraph, uncritical: list[Edge]) -> int:
    """Growth in the critical-link count of ``g`` when the uncritical links go."""
    if not uncritical:
        return 0
    return _critical_link_count(g.remove_edges(uncritical)) - _critical_link_count(g)


def enumerate_critical_sets(
    g: Digraph,
    kind: str,
    cap: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[list[WitnessSet], bool]:
    """All minimal breaking sets of minimum size, in lexicographic order.

    Every breaking set of the minimum size is minimal: a breaking proper
    subset would be smaller than the degree.  ``kind`` selects links or
    agents.  Returns ``(sets, truncated)``; ``truncated`` is set when
    ``cap`` stopped the enumeration early.  Raises
    :class:`InstanceTooLargeError` when the number of candidate subsets
    exceeds the budget.
    """
    if kind not in ("link", "agent"):
        raise ValueError(f"kind must be 'link' or 'agent', not {kind!r}")
    _require_controllable(g)
    link, agent = g._kernels
    if kind == "link":
        pool: tuple = g.sorted_edges
        size = link.base
    else:
        pool = g.followers
        size = agent.base
    candidates = comb(len(pool), size)
    if candidates > budget:
        raise InstanceTooLargeError(
            f"{candidates} candidate {kind} sets exceed the budget of {budget}"
        )

    found: list[WitnessSet] = []
    for combo in combinations(pool, size):
        edges = frozenset(combo) if kind == "link" else frozenset()
        vertices = frozenset() if kind == "link" else frozenset(combo)
        stranded = g._breaks(vertices, edges)
        if stranded is None:
            continue
        if cap is not None and len(found) >= cap:
            return found, True
        found.append(WitnessSet(kind, edges, vertices, stranded))
    return found, False


@dataclass(frozen=True)
class EdgeIndexRecord:
    edge: Edge
    critical: bool
    agent_controllability_index: int | None
    link_controllability_index: int | None


@dataclass(frozen=True)
class AgentIndexRecord:
    vertex: int
    critical: bool
    agent_criticality_index: int | None
    link_criticality_index: int | None
    critical_link_index: int | None
    uncritical_link_index: int | None

    def sort_key(self) -> tuple:
        return (
            -(self.agent_criticality_index or 0),
            -(self.link_criticality_index or 0),
            -(self.critical_link_index or 0),
            -(self.uncritical_link_index or 0),
            self.vertex,
        )


def edge_records(g: Digraph) -> list[EdgeIndexRecord]:
    """Per-edge criticality and indices; indices are None when undefined."""
    if not g.is_controllable():
        return [EdgeIndexRecord(edge, True, None, None) for edge in g.sorted_edges]
    link, agent = g._kernels
    uncritical = _uncritical_links(link, g.followers)
    records = []
    for edge in g.sorted_edges:
        critical = edge not in uncritical
        records.append(
            EdgeIndexRecord(
                edge=edge,
                critical=critical,
                agent_controllability_index=_drop(agent, frozenset((edge,))),
                link_controllability_index=None if critical else _uncritical_link_index(g, [edge]),
            )
        )
    return records


def agent_records(g: Digraph, _uncritical: Collection[Edge] | None = None) -> list[AgentIndexRecord]:
    """Per-follower criticality and the four importance indices.

    ``_uncritical``, the uncritical links of :func:`edge_records` (a
    report passes them), answers each out-edge's link criticality.
    Without it, the heads of the followers' out-edges are read once each
    on the graph's ``lc`` kernel.
    """
    if not g.is_controllable():
        return [AgentIndexRecord(v, True, None, None, None, None) for v in g.followers]
    link, agent = g._kernels
    if _uncritical is None:
        _uncritical = _uncritical_links(link, {head for v in g.followers for head in g._succ[v]})
    records = []
    for v in g.followers:
        link_indices = _link_indices(g, v, _uncritical)
        out = frozenset(g._out[v])
        records.append(
            AgentIndexRecord(
                v,
                _is_critical_agent(agent, v),
                _drop(agent, out),
                _drop(link, out),
                *link_indices,
            )
        )
    return records


def rank_agents(g: Digraph) -> list[int]:
    """Followers ordered by decreasing importance.

    Sorts on the agent criticality index, then the link criticality
    index, then the critical and uncritical link indices, with vertex id
    as the final tie-break.
    """
    _require_controllable(g)
    return [r.vertex for r in sorted(agent_records(g), key=AgentIndexRecord.sort_key)]
