"""Per-element criticality tests, importance indices, and agent ranking.

An element is critical when it belongs to some minimal breaking set of
minimum size.  Testing that membership directly is exponential, so the
implementation uses the degree-drop equivalence instead: an edge is
critical iff removing it lowers the link controllability degree by one
(a minimum breaking set of the reduced graph plus the edge is a minimum
breaking set of the original, and conversely).  The same argument works
for followers and the agent degree.  The exhaustive enumeration operation
below serves as the independent cross-check for that shortcut.

All index operations presuppose a controllable baseline.  For an
uncontrollable graph the degrees are zero, every element counts as
critical, and the record builders report indices as undefined.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .budget import DEFAULT_SUBSET_BUDGET
from .connectivity import (
    WitnessSet,
    agent_controllability,
    link_controllability,
)
from .digraph import Digraph, Edge, removal_breaks_controllability
from .errors import (
    EdgeIsCriticalError,
    IndexOutOfRangeError,
    InstanceTooLargeError,
    RootQueriedError,
    UncontrollableError,
    UnknownEdgeError,
)


def _check_edge(g: Digraph, edge: Edge) -> Edge:
    edge = (int(edge[0]), int(edge[1]))
    if edge not in g.edges:
        raise UnknownEdgeError(f"edge {edge[0]}->{edge[1]} is not in the graph")
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


def is_link_critical(g: Digraph, edge: Edge) -> bool:
    """True when the edge belongs to some minimum breaking edge set.

    Every link of an uncontrollable graph counts as critical.
    """
    edge = _check_edge(g, edge)
    if not g.is_controllable():
        return True
    return link_controllability(g.remove_edges({edge})) == link_controllability(g) - 1


def is_agent_critical(g: Digraph, v: int) -> bool:
    """True when the follower belongs to some minimum breaking agent set."""
    v = _check_follower(g, v)
    if not g.is_controllable():
        return True
    return agent_controllability(g.remove_vertices({v})) == agent_controllability(g) - 1


def agent_controllability_index(g: Digraph, edge: Edge) -> int:
    """Drop in the agent controllability degree caused by deleting one edge."""
    edge = _check_edge(g, edge)
    _require_controllable(g)
    return agent_controllability(g) - agent_controllability(g.remove_edges({edge}))


def agent_criticality_index(g: Digraph, v: int) -> int:
    """Drop in the agent degree when all out-edges of the follower are deleted."""
    v = _check_follower(g, v)
    _require_controllable(g)
    stripped = g.remove_edges(g.out_edges(v))
    return agent_controllability(g) - agent_controllability(stripped)


def link_criticality_index(g: Digraph, v: int) -> int:
    """Drop in the link degree when all out-edges of the follower are deleted."""
    v = _check_follower(g, v)
    _require_controllable(g)
    stripped = g.remove_edges(g.out_edges(v))
    return link_controllability(g) - link_controllability(stripped)


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
    return _critical_link_count(g.remove_edges({edge})) - _critical_link_count(g)


def agent_link_indices(g: Digraph, v: int) -> tuple[int, int]:
    """(critical link index, uncritical link index) of a follower.

    The first counts critical links among the follower's out-edges; the
    second is the growth in the total critical-link count after removing
    the uncritical ones.
    """
    v = _check_follower(g, v)
    _require_controllable(g)
    out = g.out_edges(v)
    critical = [e for e in out if is_link_critical(g, e)]
    uncritical = [e for e in out if e not in critical]
    if not uncritical:
        return len(critical), 0
    grown = _critical_link_count(g.remove_edges(uncritical)) - _critical_link_count(g)
    return len(critical), grown


def enumerate_critical_sets(
    g: Digraph,
    kind: str,
    cap: int | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[list[WitnessSet], bool]:
    """All minimal breaking sets of minimum size, in lexicographic order.

    ``kind`` selects links or agents.  Returns ``(sets, truncated)``;
    ``truncated`` is set when ``cap`` stopped the enumeration early.
    Raises :class:`InstanceTooLargeError` when the number of candidate
    subsets exceeds the budget.
    """
    if kind not in ("link", "agent"):
        raise ValueError(f"kind must be 'link' or 'agent', not {kind!r}")
    _require_controllable(g)
    if kind == "link":
        pool: tuple = g.sorted_edges
        size = link_controllability(g)
    else:
        pool = g.followers
        size = agent_controllability(g)
    candidates = comb(len(pool), size)
    if candidates > budget:
        raise InstanceTooLargeError(
            f"{candidates} candidate {kind} sets exceed the budget of {budget}"
        )

    def breaks(subset: tuple) -> bool:
        if kind == "link":
            return removal_breaks_controllability(g, edges=subset)
        return removal_breaks_controllability(g, vertices=subset)

    found: list[WitnessSet] = []
    truncated = False
    for combo in combinations(pool, size):
        if not breaks(combo):
            continue
        if any(breaks(combo[:i] + combo[i + 1 :]) for i in range(len(combo))):
            continue  # not minimal
        if cap is not None and len(found) >= cap:
            truncated = True
            break
        if kind == "link":
            edges, vertices = frozenset(combo), frozenset()
        else:
            edges, vertices = frozenset(), frozenset(combo)
        stranded = g.remove_edges(edges).remove_vertices(vertices).unreachable_followers()
        found.append(
            WitnessSet(kind=kind, edges=edges, vertices=vertices, unreachable=stranded)
        )
    return found, truncated


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
    records = []
    controllable = g.is_controllable()
    for edge in g.sorted_edges:
        if not controllable:
            records.append(EdgeIndexRecord(edge, True, None, None))
            continue
        critical = is_link_critical(g, edge)
        records.append(
            EdgeIndexRecord(
                edge=edge,
                critical=critical,
                agent_controllability_index=agent_controllability_index(g, edge),
                link_controllability_index=(
                    None if critical else link_controllability_index(g, edge)
                ),
            )
        )
    return records


def agent_records(g: Digraph) -> list[AgentIndexRecord]:
    """Per-follower criticality and the four importance indices."""
    records = []
    controllable = g.is_controllable()
    for v in g.followers:
        if not controllable:
            records.append(AgentIndexRecord(v, True, None, None, None, None))
            continue
        crit_links, uncrit_growth = agent_link_indices(g, v)
        records.append(
            AgentIndexRecord(
                vertex=v,
                critical=is_agent_critical(g, v),
                agent_criticality_index=agent_criticality_index(g, v),
                link_criticality_index=link_criticality_index(g, v),
                critical_link_index=crit_links,
                uncritical_link_index=uncrit_growth,
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
