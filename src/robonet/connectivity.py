"""Max-flow machinery: controllability degrees and cut witnesses.

The link controllability degree (``lc``) is the size of the smallest edge
set whose removal breaks controllability; the agent controllability
degree (``ac``) is the analogue for follower removals.  Both reduce to
minimum cuts: the degree equals the minimum over followers of the number
of edge-disjoint (respectively internally vertex-disjoint) paths from the
contracted root-set to that follower.

Every degree, cut and witness is read off :class:`_DeletionDegrees`, the
one holder of a flow network (:class:`_Flow`).  Each graph carries its
``lc`` and ``ac`` kernels (:attr:`Digraph._kernels
<robonet.digraph.Digraph._kernels>`): every analysis of the graph reads
them, and masks its deletions, from the region's follower sets to the
indices' deleted edges and followers, on their two networks.  Each
witness reads the cheapest cut of one network per graph and cost pair.
:func:`agent_controllability` and :func:`max_vertex_disjoint` read the
graph's ``ac`` kernel; :func:`link_controllability` still builds one
network per target, through :func:`max_edge_disjoint`.
Each read stops at a proven bound: a degree at the cost no cut goes below
(one element on a controllable graph; two for ``lc`` or ``ac`` of the
graph itself when its dominator tree shows that no single link, or no
single follower, breaks it), a yes/no question "is the degree after this
deletion at most ``b``?" at the first follower that answers it, and, for
``b`` under the degree of the graph, only the followers the deletion
exposes are tried (the head rule).  Deleting edges never raises a degree,
so the exact degree after an edge-only deletion is read by the head rule
too, from a floor of the graph's degree less what the deleted edges can
carry: their cost in links, or, when links cannot be cut and no tail is a
root, their tails.  Deleting a follower can raise a degree, so a deletion
with followers still reads every survivor.  Bounds come before flows:
each follower's cut cost is first bracketed from its surviving in-edges
in the graph itself (a cut of each in-edge at its cheapest element above
it, a packing of paths of at most two edges below it), and a flow runs
only when that bracket leaves the answer open.  A deletion read whose
floor is under one element's cost first walks the reduced graph once: a
stranded follower makes the degree 0, and otherwise the floor rises to
that cost.  The brackets and the walk read the graph, not the network,
so a network's arc lists, masked capacities and flow structure are all
built at its first flow, and a kernel whose reads run no flow builds no
network.

Cuts are recovered from residual reachability after a maximum flow.  The
source-side residual set is the same for every maximum flow, so the
returned cuts are canonical and all results are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable

from .digraph import Digraph, Edge
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
    """The flow network of ``g`` whose cuts are sets of links and followers, and Dinic's algorithm.

    Node 0 is the contracted root-set.  Each edge is an arc tagged with the
    edge and costing ``edge_cost``; with ``edge_cost`` None it is untagged
    and costs more than all followers together, so no minimum cut holds it.
    Without a ``vertex_cost`` the followers are nodes ``1..|F|`` in
    ascending order.  With one, each follower is split (Even & Tarjan) into
    an in-node and the out-node after it, joined by an arc tagged with the
    follower and costing ``vertex_cost``; these split arcs come first, in
    follower order, and the edge arcs from ``first_edge`` on, in
    ``g.sorted_edges`` order.  ``entry`` maps each follower to its in-node,
    the sink when it is the target.

    The arcs are parallel lists ``to``, ``cap`` and ``tag``; arc ``i ^ 1``
    is the reverse of arc ``i``, with capacity 0 and no tag, so
    ``to[i ^ 1]`` is the tail of arc ``i``.  Each node
    lists its arcs in arc order, which makes the residual structure (and
    hence every derived cut) deterministic.  The network holds no
    reference to ``g``, and a flow pushes on the capacity list its caller
    passes, which then holds the residual, so flows on one network from
    several threads do not meet.
    """

    def __init__(self, g: Digraph, edge_cost: int | None, vertex_cost: int | None) -> None:
        to: list[int] = []
        if vertex_cost is None:
            entry = {v: i + 1 for i, v in enumerate(g.followers)}
            leave = entry
            self.node_count = len(entry) + 1
            cap: list[int] = []
            tag: list[object] = []
        else:
            entry = {v: 2 * i + 1 for i, v in enumerate(g.followers)}
            leave = {v: node + 1 for v, node in entry.items()}
            self.node_count = 2 * len(entry) + 1
            for node in entry.values():
                to += (node + 1, node)
            cap = [vertex_cost, 0] * len(entry)
            tag = [element for v in entry for element in (v, None)]
        self.first_edge = len(to)
        edges = g.sorted_edges
        for tail, head in edges:
            to += (entry[head], leave.get(tail, 0))
        cap += [_link_capacity(g, edge_cost, vertex_cost), 0] * len(edges)
        if edge_cost is None:
            tag += [None, None] * len(edges)
        else:
            for edge in edges:
                tag += (edge, None)
        self.to, self.cap, self.tag, self.entry = to, cap, tag, entry
        self.adj = adj = [[] for _ in range(self.node_count)]
        for arc in range(0, len(to), 2):
            adj[to[arc + 1]].append(arc)
            adj[to[arc]].append(arc + 1)

    def max_flow(self, cap: list[int], source: int, sink: int, limit: int | None = None) -> int:
        """Value of a maximum flow pushed on ``cap``, or stop as soon as it reaches ``limit``.

        A limited call returns some value ``>= limit`` when the maximum
        flow is at least ``limit``, and the exact value otherwise.
        """
        total = 0
        while True:
            level = self._levels(cap, source)
            if level[sink] < 0:
                return total
            it = [0] * self.node_count
            while True:
                pushed = self._augment(cap, source, sink, level, it)
                if not pushed:
                    break
                total += pushed
                if limit is not None and total >= limit:
                    return total

    def _levels(self, cap: list[int], source: int) -> list[int]:
        adj, to = self.adj, self.to
        level = [-1] * self.node_count
        level[source] = 0
        queue = [source]
        for v in queue:
            for arc in adj[v]:
                if cap[arc] > 0 and level[to[arc]] < 0:
                    level[to[arc]] = level[v] + 1
                    queue.append(to[arc])
        return level

    def _augment(self, cap: list[int], source: int, sink: int, level: list[int], it: list[int]) -> int:
        """Push the bottleneck of one level-increasing source-sink path; 0 if none is left.

        An explicit arc stack replaces recursion, so path length is not
        bounded by the interpreter's recursion limit.
        """
        adj, to = self.adj, self.to
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

    def source_side(self, cap: list[int], source: int) -> set[int]:
        """Nodes reachable from the source in the residual capacities ``cap``."""
        adj, to = self.adj, self.to
        seen = {source}
        stack = [source]
        while stack:
            v = stack.pop()
            for arc in adj[v]:
                head = to[arc]
                if cap[arc] > 0 and head not in seen:
                    seen.add(head)
                    stack.append(head)
        return seen

    def crossing_tags(self, cap: list[int], side: set[int]) -> list[object]:
        adj, to, tag = self.adj, self.to, self.tag
        tags = []
        for v in side:
            for arc in adj[v]:
                if arc % 2 == 0 and cap[arc] == 0 and to[arc] not in side and tag[arc] is not None:
                    tags.append(tag[arc])
        return tags


def _check_target(g: Digraph, target: int) -> None:
    if target not in g.vertices:
        raise IndexOutOfRangeError(f"unknown vertex {target}")
    if target in g.root_set:
        raise TargetIsRootError(f"vertex {target} is a root")


def _link_capacity(g: Digraph, edge_cost: int | None, vertex_cost: int | None) -> int:
    """An edge arc's capacity: ``edge_cost``, or with None more than all followers together."""
    return vertex_cost * len(g.followers) + 1 if edge_cost is None else edge_cost


class _DeletionDegrees:
    """One flow network of one graph and cost pair, for its degrees and cuts.

    The network is a :class:`_Flow`: ``(1, None)`` gives ``lc``,
    ``(None, 1)`` ``ac`` and ``(1, 1)`` ``jc``.  Deleting followers and
    edges zeroes their arcs.  A read goes through the surviving followers
    and brackets each one's cut cost from its surviving in-edges in ``g``
    (:meth:`_bracket`) before it runs any flow.  A follower whose bracket
    cannot lower the least cost found so far is skipped, and one whose
    bracket closes costs that much; only the others run a flow, capped at
    the least cost so far.  The read stops as soon as a proven bound
    settles its answer:

    - :attr:`base` starts at :meth:`_cap` and stops at a floor that no cut
      of ``g`` goes below: ``least`` when given, else one element's cost
      when ``g`` is controllable (0 when it is not).  In the ``lc`` and
      ``ac`` networks, the first follower that would run a flow first
      doubles that floor when :meth:`_no_single_break` proves it, so the
      dominator tree is built only for a read its brackets leave open;
    - :meth:`at_most` starts at ``bound + 1`` and stops at the first
      follower that costs at most ``bound``, or whose bracket's upper end
      is at most ``bound``; under :attr:`base` it tries only the followers
      a deletion exposes (the head rule, see :meth:`_solve`);
    - :meth:`without`, the exact read, stops at the lower end of what the
      deletion's earlier reads proved; for an edge-only deletion it tries
      only the deleted edges' heads, under :attr:`base`, and that end is
      raised to :attr:`base` less what the deleted edges can carry
      (:meth:`_edge_floor`).

    A deletion read whose floor is under one element's cost walks the
    reduced graph once before its first flow (:meth:`_reach_floor`): a
    stranded follower makes the degree 0, and otherwise the floor rises to
    that cost.  The brackets and the walk read ``g`` itself, so the network
    (:meth:`_built_net`), its arc maps and the masked capacities are built
    at the first flow, and a kernel whose reads need no flow builds none.
    Each flow pushes on a copy of the capacities it reads, so one kernel
    can serve several threads.  Each deleted (followers, edges) pair keeps
    an interval ``(lo, hi)`` around its degree, shared by all its reads.
    """

    def __init__(
        self,
        g: Digraph,
        edge_cost: int | None,
        vertex_cost: int | None,
        least: int | None = None,
    ) -> None:
        self._g = g
        self._edge_cost = edge_cost
        self._vertex_cost = vertex_cost
        self._least = least
        # an edge arc's capacity (see _Flow), the cost of an in-edge from
        # a follower at its cheapest element, and the cheapest element's cost
        self._link = _link_capacity(g, edge_cost, vertex_cost)
        self._relay = self._link if vertex_cost is None else min(self._link, vertex_cost)
        self._one = min(c for c in (edge_cost, vertex_cost) if c is not None)
        self._memo: dict[tuple[frozenset[int], frozenset[Edge]], tuple[int, int]] = {}
        self._net: _Flow | None = None

    def _cap(self, survivors: int) -> int:
        """The cost of a breaking set needing no cut: every edge, or every surviving follower."""
        return len(self._g.edges) if self._vertex_cost is None else self._vertex_cost * survivors

    def _built_net(self) -> _Flow:
        """The network, built at the first flow."""
        if self._net is None:
            self._net = _Flow(self._g, self._edge_cost, self._vertex_cost)
        return self._net

    @cached_property
    def _arc_of(self) -> dict[Edge, int]:
        first = self._built_net().first_edge
        return {edge: first + 2 * k for k, edge in enumerate(self._g.sorted_edges)}

    @cached_property
    def _arcs_at(self) -> dict[int, list[int]]:
        """The arcs at each follower's nodes: its split arc, then its edges' arcs."""
        net = self._built_net()
        arcs_at: dict[int, list[int]] = {v: [] for v in net.entry}
        for v, arc in zip(net.entry, range(0, net.first_edge, 2)):  # split arcs come first
            arcs_at[v].append(arc)
        for edge, arc in self._arc_of.items():
            for v in edge:
                if v in arcs_at:
                    arcs_at[v].append(arc)
        return arcs_at

    def _bracket(
        self, followers: frozenset[int], edges: frozenset[Edge], target: int
    ) -> tuple[int, int]:
        """Bounds ``lo <= cost <= hi`` on the target's cut cost, from its surviving in-edges alone.

        Read off ``g`` (:attr:`Digraph._pred`) with the followers and edges
        deleted, on the network's costs.  ``hi`` is a cut: each in-edge is
        cut at its cheapest element, the edge or its tail follower.  ``lo``
        is a flow of disjoint paths of at most two edges: each in-edge from
        a root, and through each follower tail the least of that cut and
        the tail's surviving in-edges from the roots.
        """
        pred = self._g._pred
        link, relay = self._link, self._relay
        roots, tails = pred[target]
        lo = link * len(roots)
        if edges:
            for root in roots:
                if (root, target) in edges:
                    lo -= link
        hi = lo
        for tail in tails:
            if (followers and tail in followers) or (edges and (tail, target) in edges):
                continue
            hi += relay
            feeds = pred[tail][0]
            fed = link * len(feeds)
            if edges:
                for root in feeds:
                    if (root, tail) in edges:
                        fed -= link
            lo += relay if relay < fed else fed
        return lo, hi

    @cached_property
    def _unmasked(self) -> tuple[int, int | None]:
        g = self._g
        floor, lift = self._least, None
        if floor is None:
            controllable = g.is_controllable()
            floor = self._one if controllable else 0  # a cut holds an element
            # lc and ac only: the all-unit network keeps the floor 1, so that
            # `verify` checks jc against a read independent of theirs
            if controllable and None in (self._edge_cost, self._vertex_cost):
                lift = self._dominator_floor
        value, winner, _ = self._min_flow(
            frozenset(), frozenset(), g.followers, self._cap(len(g.followers)), floor, lift
        )
        return value, winner

    def _dominator_floor(self) -> int:
        """Two elements' cost when :meth:`_no_single_break` proves it, else one."""
        return 2 * self._one if self._no_single_break() else self._one

    def _no_single_break(self) -> bool:
        """Whether no one link (``lc``) or one follower (``ac``) breaks the controllable ``g``.

        If so, no cut costs less than two elements.  Read off the
        dominator tree of ``g`` (:attr:`Digraph._dominators`): one
        follower breaks ``g`` exactly when it is the only follower or
        dominates another, and one link exactly when no other in-edge of
        its head comes from a root or from a tail that the head does not
        dominate (every root path to such a tail runs through the head).
        """
        g = self._g
        dominators = g._dominators
        if self._edge_cost is None:
            return len(g.followers) > 1 and all(dominators[v][0] is None for v in g.followers)
        spared = dict.fromkeys(g.followers, 0)
        for tail, head in g.edges:
            _, first, end = dominators[head]
            if tail in g.root_set or not first <= dominators[tail][1] < end:
                spared[head] += 1
        return min(spared.values()) > 1

    def _reach_floor(self, followers: frozenset[int], edges: frozenset[Edge]) -> int | None:
        """One element's cost when every surviving follower is still reached; None when one is not.

        One walk of ``g`` with the deletion masked (:meth:`Digraph._reach`).
        A stranded follower needs no cut, so the degree is 0; when every
        survivor is reached, each cut holds at least one element.
        """
        g = self._g
        reached = g._reach(g.roots, followers, edges)
        return self._one if len(reached) == g.n - len(followers) else None

    @property
    def base(self) -> int:
        """The degree of ``g`` itself."""
        return self._unmasked[0]

    def cheapest(self) -> tuple[int, frozenset] | None:
        """The smallest follower of least cut cost and its cut; None if none is under the cap."""
        winner = self._unmasked[1]
        return None if winner is None else (winner, self.cut(winner)[1])

    def cut(self, target: int) -> tuple[int, frozenset]:
        """Cost and canonical edges and followers of the cheapest cut separating the target.

        A target no cut separates (a root edge when links cannot be cut)
        gets the cap and the full follower set, without a flow.
        """
        g = self._g
        if self._edge_cost is None and g._pred[target][0]:
            return self._cap(len(g.followers)), frozenset(g.followers)
        net = self._built_net()
        residual = net.cap[:]
        value = net.max_flow(residual, 0, net.entry[target])
        cut = frozenset(net.crossing_tags(residual, net.source_side(residual, 0)))
        assert value == sum(
            self._vertex_cost if type(element) is int else self._edge_cost for element in cut
        ), "max-flow/min-cut duality violated"
        return value, cut

    def without(
        self, followers: frozenset[int] = frozenset(), edges: frozenset[Edge] = frozenset()
    ) -> int:
        """The degree of ``g.remove_vertices(followers).remove_edges(edges)``.

        An edge-only deletion never raises the degree, so it is read under
        the head rule (see :meth:`_solve`) below :attr:`base`, from the
        floor of :meth:`_edge_floor`.  A deletion with followers reads every
        survivor: deleting a follower can raise a degree (with roots 1 and
        2 and edges 1->3, 1->4, 2->4, ``lc`` is 1, and 2 without 3).
        """
        if not followers and not edges:
            return self.base
        key = (followers, edges)
        lo, hi = self._interval(key)
        if lo < hi:
            if followers:
                hi = self._solve(followers, edges, hi, lo, heads_only=False)[0]
            else:
                floor = max(lo, self._edge_floor(edges))
                hi = self._solve(followers, edges, min(hi, self.base), floor, heads_only=True)[0]
            self._memo[key] = hi, hi
        return hi

    def _edge_floor(self, edges: frozenset[Edge]) -> int:
        """A degree no deletion of just these edges goes below.

        When links can be cut, a cut after the deletion plus the deleted
        edges is a cut of ``g``: ``base - edge_cost * |edges|``.  When they
        cannot, the tails stand in for the edges if all are followers:
        ``base - vertex_cost * |tails|``.  A cut after the deletion that
        strands ``w`` is a cut of ``g`` with the tails other than ``w``
        added, since a simple root path to ``w`` uses none of ``w``'s
        out-edges.  A root tail gives no floor (0): its edge can be the
        only thing that made its head uncuttable, so deleting it can lower
        the capped degree by more than one follower.
        """
        if self._edge_cost is not None:
            return self.base - self._edge_cost * len(edges)
        tails = {tail for tail, _ in edges}
        if not tails.isdisjoint(self._g.root_set):
            return 0
        return self.base - self._vertex_cost * len(tails)

    def at_most(
        self,
        bound: int,
        followers: frozenset[int] = frozenset(),
        edges: frozenset[Edge] = frozenset(),
    ) -> bool:
        """Is ``without(followers, edges) <= bound``?"""
        if not followers and not edges:
            return self.base <= bound
        key = (followers, edges)
        lo, hi = self._interval(key)
        if lo <= bound < hi:
            value, exact = self._solve(followers, edges, bound + 1, bound, bound < self.base)
            if value > bound:
                lo = bound + 1
            else:
                hi = value
                if exact:
                    lo = value
            self._memo[key] = lo, hi
        return hi <= bound

    def _interval(self, key: tuple[frozenset[int], frozenset[Edge]]) -> tuple[int, int]:
        """What is proven about a deletion's degree: ``lo <= degree <= hi``."""
        known = self._memo.get(key)
        if known is None:
            survivors = len(self._g.followers) - len(key[0])
            known = (0, self._cap(survivors) if survivors else 0)  # no survivor: the vacuous 0
        return known

    def _masked(self, followers: frozenset[int], edges: frozenset[Edge]) -> list[int]:
        """The capacities with the deleted followers' and edges' arcs zeroed."""
        capacities = self._built_net().cap
        if not followers and not edges:
            return capacities
        masked = capacities[:]
        for v in followers:
            for arc in self._arcs_at[v]:
                masked[arc] = 0
        for edge in edges:
            masked[self._arc_of[edge]] = 0
        return masked

    def _solve(
        self,
        followers: frozenset[int],
        edges: frozenset[Edge],
        below: int,
        floor: int,
        heads_only: bool,
    ) -> tuple[int, bool]:
        """``min(below, degree)`` with the deletion masked, stopping at ``floor``.

        ``floor`` must be a proven lower bound on the degree, or the bound
        of an :meth:`at_most` question.  Under one element's cost it is
        raised by :meth:`_reach_floor` before the first flow.  The head
        rule, for ``heads_only`` (``below`` at most :attr:`base`): a cut
        cheaper than :attr:`base` after the deletion is not a cut of ``g``,
        so a deleted edge or an out-edge of a deleted follower crosses it,
        and the follower at its head is separated by it too.  So only those
        heads need a flow, and the degree is the least of theirs when it is
        under ``below``.  For an edge-only deletion with ``below`` an upper
        bound on the degree (:meth:`without`), that least value is the
        degree itself, since deleting edges never raises it.  Returns the
        value and whether :meth:`at_most` may take it as the exact degree:
        with the head rule, a value under ``below`` found at the last head
        is, unless that head's upper bracket alone gave it.
        """
        if heads_only:
            heads = {h for _, h in edges}
            if followers:
                succ = self._g._succ
                for v in followers:
                    heads.update(succ[v])
                heads -= followers
            targets = sorted(heads)
        else:
            targets = [v for v in self._g.followers if v not in followers]
        lift = partial(self._reach_floor, followers, edges) if floor < self._one else None
        value, winner, exact = self._min_flow(followers, edges, targets, below, floor, lift)
        return value, heads_only and exact and winner is not None and winner == targets[-1]

    def _min_flow(
        self,
        followers: frozenset[int],
        edges: frozenset[Edge],
        targets: Iterable[int],
        best: int,
        floor: int,
        lift: Callable[[], int | None] | None = None,
    ) -> tuple[int, int | None, bool]:
        """The least of ``best`` and the targets' cut costs, its first target, and if it is exact.

        The cut costs are read with the followers and edges deleted.  Each
        target's :meth:`_bracket` comes first.  A target whose lower end is
        at least the least cost so far cannot lower it and is skipped; one
        whose ends meet costs that much.  One whose upper end is down to
        ``floor`` ends the loop with that end, which is only an upper bound
        on its cost (its exact cost when ``floor`` is a proven lower bound).
        Any other target runs a flow capped at the least cost so far, on
        capacities masked at the first such flow.  The loop stops once that
        cost is down to ``floor``.  The target is None when no cut costs
        less than ``best``.  ``lift``, called once before the first flow,
        proves a new floor (:meth:`_dominator_floor`, :meth:`_reach_floor`),
        or returns None when the degree is 0.
        """
        winner = None
        masked = None
        for v in targets:
            if best <= floor:
                break
            lo, hi = self._bracket(followers, edges, v)
            if lo >= best:
                continue
            if lo == hi:
                best, winner = lo, v
            elif hi <= floor:
                return hi, v, False
            else:
                if lift is not None:
                    raised, lift = lift(), None
                    if raised is None:
                        return 0, None, True
                    floor = max(floor, raised)
                    if best <= floor:
                        break
                    if hi <= floor:
                        return hi, v, False
                if masked is None:
                    masked, net = self._masked(followers, edges), self._built_net()
                value = net.max_flow(masked[:], 0, net.entry[v], best)
                if value < best:
                    best, winner = value, v
        return best, winner, True


def max_edge_disjoint(g: Digraph, target: int) -> FlowResult:
    """Maximum number of edge-disjoint root-to-target paths.

    The minimum cut in which every link costs one and no follower can be
    cut; ``cut_edges`` is its canonical edge set.
    """
    _check_target(g, target)
    value, cut = _DeletionDegrees(g, 1, None).cut(target)
    return FlowResult(value=value, cut_edges=cut, cut_vertices=frozenset())


def max_vertex_disjoint(g: Digraph, target: int) -> FlowResult:
    """Minimum number of intermediate vertices separating the target.

    The minimum cut in which every follower other than the target costs
    one and no link can be cut, read on the graph's ``ac`` kernel.  When
    some edge connects a root directly to the target no follower set can
    separate it; the value is then reported as ``|V| - |R|`` with the full
    follower set as the only consistent witness.
    """
    _check_target(g, target)
    value, cut = g._kernels[1].cut(target)
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
    """Largest ``q`` such that any ``q - 1`` follower removals keep the graph controllable.

    Read on the graph's ``ac`` kernel; zero when it is uncontrollable or has no followers.
    """
    return g._kernels[1].base


def _replay(g: Digraph, edges: frozenset[Edge], vertices: frozenset[int]) -> tuple[int, ...]:
    """Verify a witness breaks the graph minimally; return the stranded followers.

    The witness is a cut of ``g``, so each check is one masked walk with no
    validation, and the first walk gives the stranded followers.
    """
    every = len(g.followers)  # deleting them all breaks by convention

    def breaks(gone_edges: frozenset[Edge], gone_vertices: frozenset[int]) -> bool:
        gone = len(gone_vertices)
        return gone == every or len(g._reach(g.roots, gone_vertices, gone_edges)) + gone < g.n

    reached = g._reach(g.roots, vertices, edges)
    stranded = tuple(v for v in g.followers if v not in reached and v not in vertices)
    assert stranded or len(vertices) == every, "witness does not break the graph"
    for element in [*sorted(edges), *sorted(vertices)]:
        assert not breaks(edges - {element}, vertices - {element}), (
            f"witness is not minimal: dropping {element} still breaks"
        )
    return stranded


def _cheapest_witness(kind: str, network: _DeletionDegrees) -> WitnessSet:
    """The replayed cheapest cut of one network, or the breaking set that meets its cap.

    That set is every follower, or every edge when followers cannot be
    cut (all of them then feed the only follower).
    """
    g = network._g
    found = network.cheapest()
    if found is None:
        cut = frozenset(g.edges if network._vertex_cost is None else g.followers)
    else:
        cut = found[1]
    vertices = frozenset(element for element in cut if type(element) is int)
    edges = cut - vertices
    return WitnessSet(kind, edges, vertices, unreachable=_replay(g, edges, vertices))


def min_link_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking edge set of size ``lc(g)``, the cheapest cut of the graph's ``lc`` kernel.

    Ties across followers are broken toward the smallest follower id;
    the cut itself is the canonical residual cut of that follower.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every link is already critical")
    return _cheapest_witness("link", g._kernels[0])


def min_agent_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking follower set of size ``ac(g)``, the cheapest cut of the graph's ``ac`` kernel.

    When every follower is directly root-connected the only breaking set
    is the full follower set, which is returned with an empty stranded
    list (the break is by convention, see
    :func:`~robonet.digraph.removal_breaks_controllability`).
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every agent is already critical")
    return _cheapest_witness("agent", g._kernels[1])
