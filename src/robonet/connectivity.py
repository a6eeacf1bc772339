"""Max-flow machinery: controllability degrees and cut witnesses.

The link controllability degree (``lc``) is the size of the smallest edge
set whose removal breaks controllability; the agent controllability
degree (``ac``) is the analogue for follower removals.  Both reduce to
minimum cuts: the degree equals the minimum over followers of the number
of edge-disjoint (respectively internally vertex-disjoint) paths from the
contracted root-set to that follower.

Cuts are recovered from residual reachability after a maximum flow.  The
source-side residual set is the same for every maximum flow, so the
returned cuts are canonical and all results are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .digraph import Digraph, Edge, removal_breaks_controllability
from .errors import (
    IndexOutOfRangeError,
    TargetIsRootError,
    UncontrollableError,
)


@dataclass(frozen=True)
class FlowResult:
    """Value and canonical minimum cut of one root-to-target flow.

    ``value == len(cut_edges)`` in edge mode and ``value ==
    len(cut_vertices)`` in vertex mode (max-flow/min-cut duality).
    """

    value: int
    cut_edges: frozenset[Edge]
    cut_vertices: frozenset[int]


@dataclass(frozen=True)
class WitnessSet:
    """A minimal breaking set together with its replayed effect.

    ``unreachable`` lists the followers that lose root access when the
    witness is removed.  It is empty only for the degenerate witness that
    deletes every follower (possible when all followers are directly
    root-connected), where the break is by convention.
    """

    kind: str  # "link" | "agent" | "mixed"
    edges: frozenset[Edge]
    vertices: frozenset[int]
    unreachable: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edges) + len(self.vertices)


class _Flow:
    """Dinic's algorithm over an explicit arc list with integer capacities.

    Arcs are stored as parallel lists; arc ``i ^ 1`` is the reverse of
    arc ``i``.  Insertion order is fixed by the callers, which makes the
    residual structure (and hence every derived cut) deterministic.
    """

    def __init__(self, node_count: int) -> None:
        self.node_count = node_count
        self.adj: list[list[int]] = [[] for _ in range(node_count)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.tag: list[object] = []

    def add_arc(self, tail: int, head: int, cap: int, tag: object = None) -> None:
        self.adj[tail].append(len(self.to))
        self.to.append(head)
        self.cap.append(cap)
        self.tag.append(tag)
        self.adj[head].append(len(self.to))
        self.to.append(tail)
        self.cap.append(0)
        self.tag.append(None)

    def max_flow(self, source: int, sink: int, limit: int | None = None) -> int:
        """Value of a maximum flow, or stop as soon as it reaches ``limit``.

        A limited call returns some value ``>= limit`` when the maximum
        flow is at least ``limit``, and the exact value otherwise.
        """
        total = 0
        while True:
            level = self._levels(source)
            if level[sink] < 0:
                return total
            it = [0] * self.node_count
            while True:
                pushed = self._augment(source, sink, level, it)
                if not pushed:
                    break
                total += pushed
                if limit is not None and total >= limit:
                    return total

    def _levels(self, source: int) -> list[int]:
        level = [-1] * self.node_count
        level[source] = 0
        queue = [source]
        for v in queue:
            for arc in self.adj[v]:
                if self.cap[arc] > 0 and level[self.to[arc]] < 0:
                    level[self.to[arc]] = level[v] + 1
                    queue.append(self.to[arc])
        return level

    def _augment(self, source: int, sink: int, level: list[int], it: list[int]) -> int:
        """Push the bottleneck of one level-increasing source-sink path; 0 if none is left.

        An explicit arc stack replaces recursion, so path length is not
        bounded by the interpreter's recursion limit.
        """
        adj, to, cap = self.adj, self.to, self.cap
        path: list[int] = []
        v = source
        while v != sink:
            arcs = adj[v]
            next_level = level[v] + 1
            i = it[v]
            while i < len(arcs):
                arc = arcs[i]
                if cap[arc] > 0 and level[to[arc]] == next_level:
                    break
                i += 1
            it[v] = i
            if i < len(arcs):
                path.append(arc)
                v = to[arc]
            elif path:
                v = to[path.pop() ^ 1]  # dead end: retreat and skip the arc
                it[v] += 1
            else:
                return 0
        pushed = min(map(cap.__getitem__, path))
        for arc in path:
            cap[arc] -= pushed
            cap[arc ^ 1] += pushed
        return pushed

    def source_side(self, source: int) -> set[int]:
        """Nodes reachable from the source in the final residual graph."""
        seen = {source}
        stack = [source]
        while stack:
            v = stack.pop()
            for arc in self.adj[v]:
                head = self.to[arc]
                if self.cap[arc] > 0 and head not in seen:
                    seen.add(head)
                    stack.append(head)
        return seen

    def crossing_tags(self, side: set[int]) -> list[object]:
        tags = []
        for v in side:
            for arc in self.adj[v]:
                if arc % 2 == 0 and self.cap[arc] == 0 and self.to[arc] not in side:
                    if self.tag[arc] is not None:
                        tags.append(self.tag[arc])
        return tags


def _check_target(g: Digraph, target: int) -> None:
    if target not in g.vertices:
        raise IndexOutOfRangeError(f"unknown vertex {target}")
    if target in g.root_set:
        raise TargetIsRootError(f"vertex {target} is a root")


def _edge_network(g: Digraph) -> tuple[_Flow, dict[int, int]]:
    """The unit-capacity edge network of ``g`` with the root-set contracted.

    Node 0 is the root-set and the followers are nodes ``1..|F|`` in
    ascending order (returned as ``ids``).  Edge ``k`` of
    ``g.sorted_edges`` is arc ``2k``, tagged with the edge.
    """
    ids = {v: i + 1 for i, v in enumerate(g.followers)}
    net = _Flow(len(ids) + 1)
    for edge in g.sorted_edges:
        tail, head = edge
        net.add_arc(ids.get(tail, 0), ids[head], 1, tag=edge)
    return net, ids


class _DeletionDegrees:
    """``lc`` of one graph after deleting follower sets, on one network.

    The edge network of the graph is built once.  Deleting a follower set
    zeroes the capacity of every arc that touches it, which leaves the
    network of the vertex-deleted graph with the deleted nodes isolated.
    Each surviving follower's flow starts from those masked capacities and
    is capped at the running minimum, since only the minimum is wanted;
    an unreachable survivor gives 0 at once.  Values are memoised per
    deleted set.
    """

    def __init__(self, g: Digraph) -> None:
        self._net, self._ids = _edge_network(g)
        self._base = list(self._net.cap)
        to = self._net.to
        self._arcs_at: list[list[int]] = [[] for _ in range(self._net.node_count)]
        for arc in range(0, len(to), 2):
            self._arcs_at[to[arc]].append(arc)
            self._arcs_at[to[arc + 1]].append(arc)
        self._memo: dict[frozenset[int], int] = {}

    def lc_without(self, removed: frozenset[int]) -> int:
        """``link_controllability(g.remove_vertices(removed))`` for a set of followers."""
        value = self._memo.get(removed)
        if value is None:
            value = self._memo[removed] = self._solve(removed)
        return value

    def _solve(self, removed: frozenset[int]) -> int:
        gone = {self._ids[v] for v in removed}
        if len(gone) == len(self._ids):
            return 0  # no follower survives: the vacuous degree
        masked = self._base[:]
        for node in gone:
            for arc in self._arcs_at[node]:
                masked[arc] = 0
        net = self._net
        best = len(masked) // 2  # no flow exceeds the edge count
        for node in range(1, net.node_count):
            if node in gone:
                continue
            net.cap[:] = masked
            best = min(best, net.max_flow(0, node, best))
            if best == 0:
                break
        return best


def max_edge_disjoint(g: Digraph, target: int) -> FlowResult:
    """Maximum number of edge-disjoint root-to-target paths.

    The root-set is contracted to a single super-source.  ``cut_edges``
    is the canonical minimum edge cut induced by the residual source
    side.
    """
    _check_target(g, target)
    net, ids = _edge_network(g)
    value = net.max_flow(0, ids[target])
    side = net.source_side(0)
    cut = frozenset(net.crossing_tags(side))
    assert len(cut) == value, "max-flow/min-cut duality violated"
    return FlowResult(value=value, cut_edges=cut, cut_vertices=frozenset())


def _min_vertex_cut(
    g: Digraph, target: int, cost: Callable[[int], int]
) -> tuple[int, frozenset[int]]:
    """Cheapest set of followers other than the target that separates it from the roots.

    Computed by node splitting: every follower other than the target
    becomes an in-node/out-node gadget whose arc carries the vertex's
    positive ``cost``, edges get capacities no cut can afford, and the
    roots are contracted to a super-source.  Returns the cut's total cost
    and its canonical vertex set.  The caller guarantees that no edge
    runs from a root straight to the target, so a finite cut exists.
    """
    middle = sorted(g.vertices - g.root_set - {target})
    node_in = {v: 1 + 2 * i for i, v in enumerate(middle)}
    node_out = {v: 2 + 2 * i for i, v in enumerate(middle)}
    sink = 1 + 2 * len(middle)
    net = _Flow(sink + 1)
    costs = {v: cost(v) for v in middle}
    big = sum(costs.values()) + 1
    for v in middle:
        net.add_arc(node_in[v], node_out[v], costs[v], tag=v)
    for tail, head in g.sorted_edges:
        if tail == target:
            continue
        tail_node = 0 if tail in g.root_set else node_out[tail]
        head_node = sink if head == target else node_in[head]
        net.add_arc(tail_node, head_node, big)
    value = net.max_flow(0, sink)
    side = net.source_side(0)
    cut = frozenset(net.crossing_tags(side))
    assert sum(costs[v] for v in cut) == value, "max-flow/min-cut duality violated"
    return value, cut


def max_vertex_disjoint(g: Digraph, target: int) -> FlowResult:
    """Minimum number of intermediate vertices separating the target.

    Every follower other than the target costs one in the node-split
    network of :func:`_min_vertex_cut`.  When some edge connects a root
    directly to the target no follower set can separate it; the value is
    then reported as ``|V| - |R|`` with the full follower set as the only
    consistent witness.
    """
    _check_target(g, target)
    followers = g.followers
    if any(tail in g.root_set for tail, head in g.edges if head == target):
        cap = len(g.vertices) - len(g.roots)
        return FlowResult(value=cap, cut_edges=frozenset(), cut_vertices=frozenset(followers))
    value, cut = _min_vertex_cut(g, target, lambda v: 1)
    return FlowResult(value=value, cut_edges=frozenset(), cut_vertices=cut)


def link_controllability(g: Digraph) -> int:
    """Largest ``p`` such that any ``p - 1`` edge removals keep the graph controllable.

    Zero for an uncontrollable graph.  A graph without followers also
    reports zero: no removal can break it, so the degree is vacuous
    there (the value is documented rather than meaningful).
    """
    if not g.followers or not g.is_controllable():
        return 0
    return min(max_edge_disjoint(g, v).value for v in g.followers)


def agent_controllability_vertex(g: Digraph, v: int) -> int:
    """Minimum number of follower removals that disconnect ``v``, capped at ``|V| - |R|``."""
    return max_vertex_disjoint(g, v).value


def agent_controllability(g: Digraph) -> int:
    """Largest ``q`` such that any ``q - 1`` follower removals keep the graph controllable."""
    if not g.followers or not g.is_controllable():
        return 0
    return min(agent_controllability_vertex(g, v) for v in g.followers)


def _replay(g: Digraph, edges: frozenset[Edge], vertices: frozenset[int]) -> tuple[int, ...]:
    """Verify a witness breaks the graph minimally; return the stranded followers."""
    assert removal_breaks_controllability(g, edges, vertices), "witness does not break the graph"
    for edge in sorted(edges):
        assert not removal_breaks_controllability(g, edges - {edge}, vertices), (
            f"witness is not minimal: dropping {edge} still breaks"
        )
    for v in sorted(vertices):
        assert not removal_breaks_controllability(g, edges, vertices - {v}), (
            f"witness is not minimal: dropping {v} still breaks"
        )
    return g.remove_edges(edges).remove_vertices(vertices).unreachable_followers()


def min_link_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking edge set of size ``lc(g)``.

    Ties across followers are broken toward the smallest follower id;
    the cut itself is the canonical residual cut of that follower.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every link is already critical")
    flows = {v: max_edge_disjoint(g, v) for v in g.followers}
    best = min(flows, key=lambda v: (flows[v].value, v))
    cut = flows[best].cut_edges
    unreachable = _replay(g, cut, frozenset())
    return WitnessSet(kind="link", edges=cut, vertices=frozenset(), unreachable=unreachable)


def min_agent_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking follower set of size ``ac(g)``.

    When every follower is directly root-connected the only breaking set
    is the full follower set, which is returned with an empty stranded
    list (the break is by convention, see
    :func:`~robonet.digraph.removal_breaks_controllability`).
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every agent is already critical")
    cap = len(g.vertices) - len(g.roots)
    flows = {v: max_vertex_disjoint(g, v) for v in g.followers}
    best = min(flows, key=lambda v: (flows[v].value, v))
    if flows[best].value >= cap:
        cut = frozenset(g.followers)
    else:
        cut = flows[best].cut_vertices
    unreachable = _replay(g, frozenset(), cut)
    return WitnessSet(kind="agent", edges=frozenset(), vertices=cut, unreachable=unreachable)
