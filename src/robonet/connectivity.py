"""Max-flow machinery: controllability degrees and cut witnesses.

The link controllability degree (``lc``) is the size of the smallest edge
set whose removal breaks controllability; the agent controllability
degree (``ac``) is the analogue for follower removals.  Both reduce to
minimum cuts: the degree equals the minimum over followers of the number
of edge-disjoint (respectively internally vertex-disjoint) paths from the
contracted root-set to that follower.

Every cut is a minimum cut of one network, :func:`_network`, in which
links and followers carry costs: links only for ``lc``, followers only
for ``ac``, and both for the mixed cuts of :mod:`robonet.joint`.

The report's degrees, its unit-index tests and its joint region read
their degrees from :class:`_DeletionDegrees`: one network per graph and
mode, on which deleting followers or edges masks arcs instead of building
a new graph and network.  :func:`link_controllability`,
:func:`agent_controllability` and the witnesses still build one network
per target.

Cuts are recovered from residual reachability after a maximum flow.  The
source-side residual set is the same for every maximum flow, so the
returned cuts are canonical and all results are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .digraph import Digraph, Edge, removal_breaks_controllability, stranded_followers
from .errors import (
    IndexOutOfRangeError,
    TargetIsRootError,
    UncontrollableError,
)


@dataclass(frozen=True)
class FlowResult:
    """Value and canonical minimum cut of one root-to-target flow.

    A link cut leaves ``cut_vertices`` empty and an agent cut leaves
    ``cut_edges`` empty; every element costs one, so ``value`` is the
    size of the cut (max-flow/min-cut duality).
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


def _network(
    g: Digraph, edge_cost: int | None, vertex_cost: int | None
) -> tuple[_Flow, dict[int, int]]:
    """The flow network of ``g`` whose cuts are sets of links and followers.

    Node 0 is the contracted root-set.  Each edge is an arc tagged with the
    edge and costing ``edge_cost``; with ``edge_cost`` None it is untagged
    and costs more than all followers together, so no minimum cut holds it.
    Without a ``vertex_cost`` the followers are nodes ``1..|F|`` in
    ascending order.  With one, each follower is split (Even & Tarjan) into
    an in-node and the out-node after it, joined by an arc tagged with the
    follower and costing ``vertex_cost``.  The edge arcs come last, in
    ``g.sorted_edges`` order.  Returns the network and each follower's
    entry node, the sink when that follower is the target.
    """
    if vertex_cost is None:
        entry = {v: i + 1 for i, v in enumerate(g.followers)}
        leave = entry
        net = _Flow(len(entry) + 1)
    else:
        entry = {v: 2 * i + 1 for i, v in enumerate(g.followers)}
        leave = {v: node + 1 for v, node in entry.items()}
        net = _Flow(2 * len(entry) + 1)
        for v, node in entry.items():
            net.add_arc(node, node + 1, vertex_cost, tag=v)
    if edge_cost is None:
        uncuttable = vertex_cost * len(entry) + 1
        for tail, head in g.sorted_edges:
            net.add_arc(leave.get(tail, 0), entry[head], uncuttable)
    else:
        for edge in g.sorted_edges:
            tail, head = edge
            net.add_arc(leave.get(tail, 0), entry[head], edge_cost, tag=edge)
    return net, entry


def _min_cut(
    g: Digraph, target: int, edge_cost: int | None, vertex_cost: int | None
) -> tuple[int, frozenset]:
    """Cheapest cut of :func:`_network` that separates the target from the roots.

    Returns its total cost and its canonical elements: edges and followers
    other than the target.  With ``edge_cost`` None no cut exists when an
    edge runs from a root straight to the target; the caller excludes that.
    """
    net, entry = _network(g, edge_cost, vertex_cost)
    value = net.max_flow(0, entry[target])
    cut = frozenset(net.crossing_tags(net.source_side(0)))
    assert value == sum(
        vertex_cost if type(element) is int else edge_cost for element in cut
    ), "max-flow/min-cut duality violated"
    return value, cut


class _DeletionDegrees:
    """One degree of one graph after deleting followers and edges, on one network.

    The network of ``g`` with the given costs (see :func:`_network`) is
    built once: ``(1, None)`` gives ``lc`` and ``(None, 1)`` gives ``ac``.
    Deleting a follower zeroes the capacity of every arc at its node, or at
    both of its split nodes, and deleting an edge zeroes the edge's arc;
    this leaves the network of the reduced graph with the deleted parts
    isolated.  Each surviving follower's flow starts from those masked
    capacities and is capped at the running minimum, since only the
    minimum is wanted; the minimum starts at the mode's own cap, the edge
    count for ``lc`` and the surviving follower count (``|V| - |R|`` when
    none is deleted) for ``ac``.  An unreachable survivor gives 0 at once,
    and in agent mode a survivor with a surviving edge from a root takes
    the cap without a flow, as in :func:`max_vertex_disjoint`.  Values are
    memoised per deleted (followers, edges) pair.
    """

    def __init__(self, g: Digraph, edge_cost: int | None, vertex_cost: int | None) -> None:
        self._net, self._entry = _network(g, edge_cost, vertex_cost)
        self._base = list(self._net.cap)
        self._split = vertex_cost is not None
        to = self._net.to
        owner = [0] * self._net.node_count  # the follower of each node, 0 at the roots
        for v, node in self._entry.items():
            owner[node] = v
            if self._split:
                owner[node + 1] = v  # the out-node
        self._arcs_at: dict[int, list[int]] = {v: [] for v in self._entry}
        for arc in range(0, len(to), 2):
            for v in {owner[to[arc]], owner[to[arc + 1]]} - {0}:
                self._arcs_at[v].append(arc)
        first = len(to) - 2 * len(g.edges)  # the edge arcs come last
        self._arc_of = {edge: first + 2 * k for k, edge in enumerate(g.sorted_edges)}
        self._from_root: dict[int, list[int]] = {v: [] for v in self._entry}
        if self._split:
            for (tail, head), arc in self._arc_of.items():
                if tail in g.root_set:
                    self._from_root[head].append(arc)
        self._memo: dict[tuple[frozenset[int], frozenset[Edge]], int] = {}

    @cached_property
    def base(self) -> int:
        """The degree of ``g`` itself."""
        return self._min_flow(self._base, frozenset())

    def without(
        self, followers: frozenset[int] = frozenset(), edges: frozenset[Edge] = frozenset()
    ) -> int:
        """The degree of ``g.remove_vertices(followers).remove_edges(edges)``."""
        if not followers and not edges:
            return self.base
        key = (followers, edges)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = self._solve(followers, edges)
        return value

    def _solve(self, followers: frozenset[int], edges: frozenset[Edge]) -> int:
        masked = self._base[:]
        for v in followers:
            for arc in self._arcs_at[v]:
                masked[arc] = 0
        for edge in edges:
            masked[self._arc_of[edge]] = 0
        return self._min_flow(masked, followers)

    def _min_flow(self, masked: list[int], gone: frozenset[int]) -> int:
        net = self._net
        targets = [(v, node) for v, node in self._entry.items() if v not in gone]
        if not targets:
            return 0  # no follower survives: the vacuous degree
        best = len(targets) if self._split else len(self._arc_of)
        for v, sink in targets:
            if any(masked[arc] for arc in self._from_root[v]):
                continue  # a root edge no follower set can cut: the cap
            net.cap[:] = masked
            best = min(best, net.max_flow(0, sink, best))
            if best == 0:
                break
        return best


def _degree_kernels(g: Digraph) -> tuple[_DeletionDegrees, _DeletionDegrees]:
    """The ``lc`` and the ``ac`` kernel of ``g``, in that order."""
    return _DeletionDegrees(g, 1, None), _DeletionDegrees(g, None, 1)


def max_edge_disjoint(g: Digraph, target: int) -> FlowResult:
    """Maximum number of edge-disjoint root-to-target paths.

    The minimum cut in which every link costs one and no follower can be
    cut; ``cut_edges`` is its canonical edge set.
    """
    _check_target(g, target)
    value, cut = _min_cut(g, target, 1, None)
    return FlowResult(value=value, cut_edges=cut, cut_vertices=frozenset())


def max_vertex_disjoint(g: Digraph, target: int) -> FlowResult:
    """Minimum number of intermediate vertices separating the target.

    The minimum cut in which every follower other than the target costs
    one and no link can be cut.  When some edge connects a root directly
    to the target no follower set can separate it; the value is then
    reported as ``|V| - |R|`` with the full follower set as the only
    consistent witness.
    """
    _check_target(g, target)
    if any(tail in g.root_set for tail, head in g.edges if head == target):
        cap = len(g.vertices) - len(g.roots)
        return FlowResult(value=cap, cut_edges=frozenset(), cut_vertices=frozenset(g.followers))
    value, cut = _min_cut(g, target, None, 1)
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
    return stranded_followers(g, edges, vertices)


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
