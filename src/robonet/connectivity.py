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
indices' deleted edges and followers, on their two networks.
:func:`agent_controllability` and :func:`max_vertex_disjoint` read the
graph's ``ac`` kernel; :func:`link_controllability` still builds one
network per target, through :func:`max_edge_disjoint`.

A read that goes through every surviving follower, such as the degree of
the graph itself, goes in sink order (Hao & Orlin): each follower, once
read, is merged into the source for the later ones (on a split network,
its in-node alone).  The least of these reads is still the degree, and
the merged followers close most of the later followers' brackets.  A
merged read is not the follower's own cut, so each witness scans the
followers again, without merging, for the smallest one whose cut costs
the degree, and takes the cut from that follower's flow.  A kernel
replays its witness once.  The mixed witness of a graph with ``lc <=
ac`` is its link witness (see
:func:`~robonet.joint.critical_agent_link_witness`).

The degree of an uncontrollable graph is 0 with no read: a stranded
follower needs no cut.  Every other read stops at a proven bound: a
degree at the cost no cut goes below (one element; two for ``lc`` or
``ac`` of the graph itself when its dominator tree shows that no single
link, or no single follower, breaks it), a yes/no question "is the degree
after this deletion at most ``b``?" at the first follower that answers
it, and, for ``b`` under the degree of the graph, only the followers the
deletion exposes are tried (the head rule).  Deleting edges never raises
a degree, so the exact degree after an edge-only deletion is read by the
head rule too, from a floor of the graph's degree less what the deleted
edges can carry: their cost in links, or, when links cannot be cut and no
tail is a root, their tails.  Deleting a follower can raise a degree, so
a deletion with followers reads every survivor unless its bound is at
most the degree of the graph.  Bounds come before flows: each follower's
cut cost is first bracketed from its surviving in-edges in the graph
itself (a cut of each in-edge at its cheapest element above it, a packing
of paths of at most two edges below it), and a flow runs only when that
bracket leaves the answer open.  A deletion read whose floor is under one
element's cost first asks whether the deletion strands a follower: a
stranded follower makes the degree 0, and otherwise the floor rises to
that cost.  A single deletion of a controllable graph (one follower, one
edge, or every out-edge of one follower) is answered by the graph's
dominator tree, built once per graph; any other deletion walks the
reduced graph once.  The brackets, the tree and the walk read the graph,
not the network, so a network's arc lists, masked capacities and flow
structure are all built at its first flow, and a kernel whose reads run
no flow builds no network.

Every flow is found by shortest augmenting paths (Edmonds & Karp), one
breadth-first search per path, which suits these small networks and
small cut values.  Cuts are recovered from residual reachability after a
maximum flow: the nodes its last search, the one that misses the sink,
reaches.  The source-side residual set is the same for every maximum
flow, so the returned cuts are canonical and all results are
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Sequence

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
    """The flow network of ``g`` whose cuts are sets of links and followers, and its maximum flow.

    Node 0 is the contracted root-set.  Each edge is an arc costing
    ``edge_cost``; with ``edge_cost`` None it costs more than all followers
    together, so no minimum cut holds it.  Without a ``vertex_cost`` the
    followers are nodes ``1..|F|`` in ascending order.  With one, each
    follower is split (Even & Tarjan) into an in-node and the out-node
    after it, joined by an arc costing ``vertex_cost``; these split arcs
    come first, in follower order, and the edge arcs from ``first_edge``
    on, in ``g.sorted_edges`` order.  So an arc's position names its
    element: arc ``2k`` below ``first_edge`` is the ``k``-th follower, and
    arc ``first_edge + 2k`` the ``k``-th edge (:attr:`arc_of`).  ``entry``
    maps each follower to its in-node, the sink when it is the target.

    The arcs are parallel lists ``to`` and ``cap``; arc ``i ^ 1`` is the
    reverse of arc ``i``, with capacity 0, so ``to[i ^ 1]`` is the tail of
    arc ``i``.  Each node
    lists its arcs in arc order, which makes the residual structure (and
    hence every derived cut) deterministic.  The network holds no
    reference to ``g`` and no state of a flow: a flow pushes on the
    capacity list its caller passes, which then holds the residual, from
    the source nodes its caller names (node 0, and the entry nodes a read
    in sink order merged into it), and returns its last search's marks,
    so flows on one network from several threads do not meet.
    """

    def __init__(self, g: Digraph, edge_cost: int | None, vertex_cost: int | None) -> None:
        to: list[int] = []
        if vertex_cost is None:
            entry = {v: i + 1 for i, v in enumerate(g.followers)}
            leave = entry
            self.node_count = len(entry) + 1
            cap: list[int] = []
        else:
            entry = {v: 2 * i + 1 for i, v in enumerate(g.followers)}
            leave = {v: node + 1 for v, node in entry.items()}
            self.node_count = 2 * len(entry) + 1
            for node in entry.values():
                to += (node + 1, node)
            cap = [vertex_cost, 0] * len(entry)
        self.first_edge = len(to)
        self.followers, self.edges = g.followers, g.sorted_edges
        for tail, head in self.edges:
            to += (entry[head], leave.get(tail, 0))
        cap += [_link_capacity(g, edge_cost, vertex_cost), 0] * len(self.edges)
        self.to, self.cap, self.entry = to, cap, entry
        self.adj = adj = [[] for _ in range(self.node_count)]
        for arc in range(0, len(to), 2):
            adj[to[arc + 1]].append(arc)
            adj[to[arc]].append(arc + 1)

    @cached_property
    def arc_of(self) -> dict[Edge, int]:
        """Each edge's arc, built at the first mask that deletes something."""
        return {edge: self.first_edge + 2 * k for k, edge in enumerate(self.edges)}

    def max_flow(
        self, cap: list[int], sources: Sequence[int], sink: int, limit: int | None = None
    ) -> tuple[int, list[int | None]]:
        """Value of a maximum flow pushed on ``cap``, or stop as soon as it reaches ``limit``; and the last search's marks.

        Shortest augmenting paths (Edmonds & Karp): each round is one
        breadth-first search from every node of ``sources`` at once, as if
        a source joined them by arcs no cut holds; they are node 0 and, in
        a read in sink order, the nodes merged into it, so no arc is added.
        The search marks each node it reaches with the arc that first
        reached it (-1 at a source, None where it did not reach) and stops
        at the sink; the round then pushes that path's bottleneck.  A
        limited call returns some value ``>= limit`` when the maximum flow
        is at least ``limit``, and the exact value otherwise.  Under the
        limit the flow ends with a search that misses the sink, so its
        marks are set exactly on the residual reach of the sources: the
        source side of the canonical cut.
        """
        adj, to = self.adj, self.to
        total = 0
        while True:
            via: list[int | None] = [None] * self.node_count
            for source in sources:
                via[source] = -1
            queue = list(sources)
            for v in queue:
                for arc in adj[v]:
                    if cap[arc] > 0 and via[to[arc]] is None:
                        via[to[arc]] = arc
                        queue.append(to[arc])
                if via[sink] is not None:
                    break
            else:
                return total, via
            path = []
            v = sink
            while via[v] >= 0:
                path.append(via[v])
                v = to[via[v] ^ 1]
            pushed = min(map(cap.__getitem__, path))
            for arc in path:
                cap[arc] -= pushed
                cap[arc ^ 1] += pushed
            total += pushed
            if limit is not None and total >= limit:
                return total, via

    def cut_elements(self, cap: list[int], marks: list[int | None]) -> list[object]:
        """The followers and edges, by arc position, of the saturated arcs from the marked nodes to the others."""
        adj, to, first = self.adj, self.to, self.first_edge
        elements = []
        for v, mark in enumerate(marks):
            if mark is None:
                continue
            for arc in adj[v]:
                if arc % 2 == 0 and cap[arc] == 0 and marks[to[arc]] is None:
                    elements.append(self.followers[arc // 2] if arc < first else self.edges[(arc - first) // 2])
        return elements

    def reaching(self, cap: list[int], sink: int) -> list[bool]:
        """Which nodes reach the sink through arcs with capacity left in ``cap``: a search backwards from it."""
        adj, to = self.adj, self.to
        reach = [False] * self.node_count
        reach[sink] = True
        queue = [sink]
        for v in queue:
            for arc in adj[v]:
                if cap[arc ^ 1] > 0 and not reach[to[arc]]:
                    reach[to[arc]] = True
                    queue.append(to[arc])
        return reach


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
    ``(None, 1)`` ``ac`` and ``(1, 1)`` ``jc``.  Deleting edges zeroes
    their arcs, and deleting a follower the arcs into it (:meth:`_masked`).
    A read goes through the surviving followers
    and brackets each one's cut cost from its surviving in-edges in ``g``
    (:meth:`_bracket`) before it runs any flow.  A follower whose bracket
    cannot lower the least cost found so far is skipped, and one whose
    bracket closes costs that much; only the others run a flow, capped at
    the least cost so far.  A read of every surviving follower goes in
    sink order: each follower, once read, joins the source for the later
    ones (:meth:`_min_flow`).  The read stops as soon as a proven bound
    settles its answer:

    - :attr:`base` is 0 without a read when ``g`` is uncontrollable.
      Otherwise it starts at :meth:`_cap` and stops at one element's cost,
      which no cut of ``g`` goes below.  In the ``lc`` and ``ac`` networks,
      the first follower that would run a flow first doubles that floor
      when :meth:`_no_single_break` proves it, so the dominator tree is
      built only for a read its brackets leave open;
    - :meth:`at_most` starts at ``bound + 1`` and stops at the first
      follower that costs at most ``bound``, or whose bracket's upper end
      is at most ``bound``; under :attr:`base` it tries only the followers
      a deletion exposes (the head rule, see :meth:`_solve`), and over it
      reads every survivor in sink order;
    - :meth:`without`, the exact read, stops at the lower end of the
      deletion's :meth:`_interval`.  An edge-only deletion's interval
      runs from :attr:`base` less what the deleted edges can carry
      (:meth:`_edge_floor`) to :attr:`base`, so its exact read tries only
      the deleted edges' heads, and an :meth:`at_most` bound outside it
      needs no read.

    A deletion read whose floor is under one element's cost asks before
    its first flow whether the deletion strands a follower
    (:meth:`Digraph._strands`: the dominator tree answers a single
    deletion, one walk of the reduced graph any other): if so the degree
    is 0, and otherwise the floor rises to that cost.  Each read takes
    only its deletion, its bound and its proven floor; :meth:`_min_flow`
    derives its targets and floor lift from them.  The brackets, the tree
    and the walk read ``g`` itself, so the network
    (:meth:`_built_net`), its arc maps and the masked capacities are built
    at the first flow, and a kernel whose reads need no flow builds none.
    Each flow pushes on a copy of the capacities it reads, so one kernel
    can serve several threads.  A read keeps nothing, so its answer
    depends only on its deletion, its bound and ``g``.
    :meth:`tight_cuts` scans the followers whose cuts cost :attr:`base`,
    with one flow per follower it cannot skip; the witness cut
    (:meth:`cheapest`) is its first, and :attr:`_witness` keeps its replay.
    :meth:`uncritical_tails` reads which in-edges of one follower lie in
    no such cut, with at most one flow, and :meth:`tight_cut_within`
    whether one holds only given followers, at most one flow per follower.
    """

    def __init__(self, g: Digraph, edge_cost: int | None, vertex_cost: int | None) -> None:
        self._g = g
        self._edge_cost = edge_cost
        self._vertex_cost = vertex_cost
        # an edge arc's capacity (see _Flow), the cost of an in-edge from
        # a follower at its cheapest element, and the cheapest element's cost
        self._link = _link_capacity(g, edge_cost, vertex_cost)
        self._relay = self._link if vertex_cost is None else min(self._link, vertex_cost)
        self._one = min(c for c in (edge_cost, vertex_cost) if c is not None)
        self._net: _Flow | None = None

    def _cap(self, survivors: int) -> int:
        """The cost of a breaking set needing no cut: every edge, or every surviving follower."""
        return len(self._g.edges) if self._vertex_cost is None else self._vertex_cost * survivors

    def _built_net(self) -> _Flow:
        """The network, built at the first flow."""
        if self._net is None:
            self._net = _Flow(self._g, self._edge_cost, self._vertex_cost)
        return self._net

    def _bracket(
        self,
        followers: frozenset[int],
        edges: frozenset[Edge],
        target: int,
        merged: Collection[int] = (),
    ) -> tuple[int, int]:
        """Bounds ``lo <= cost <= hi`` on the target's cut cost, from its surviving in-edges alone.

        Read off ``g`` (:attr:`Digraph._pred`) with the followers and edges
        deleted, on the network's costs, with the ``merged`` followers'
        entry nodes in the source (see :meth:`_min_flow`).  ``hi`` is a
        cut: each in-edge is cut at its cheapest element, the edge or its
        tail follower.  ``lo`` is a flow of disjoint paths of at most two
        edges: each in-edge from a root or a merged follower, and through
        each other follower tail the least of that cut and the tail's
        surviving in-edges from the roots.  Without split followers a
        merged follower is a root, so it feeds those tails too; with them
        its one split arc could then carry two of the paths, so it does not.
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
            if fed < relay and merged:  # a merged tail or feed can only raise a short fed
                if tail in merged:
                    fed = relay
                elif self._vertex_cost is None:
                    for w in pred[tail][1]:
                        if w in merged and not (edges and (w, tail) in edges):
                            fed += link
            lo += relay if relay < fed else fed
        return lo, hi

    @cached_property
    def base(self) -> int:
        """The degree of ``g`` itself, read in sink order (see :meth:`_min_flow`).

        It is 0 with no read when ``g`` is uncontrollable, since a stranded
        follower needs no cut; on a controllable ``g`` every cut holds an
        element, so the read stops at one element's cost.
        """
        g = self._g
        if not g.is_controllable():
            return 0
        return self._min_flow(frozenset(), frozenset(), None, self._cap(len(g.followers)), self._one)

    def _no_single_break(self) -> bool:
        """Whether no one link (``lc``) or one follower (``ac``) breaks the controllable ``g``.

        If so, no cut costs less than two elements.  Read off the
        dominator tree of ``g`` (:attr:`Digraph._single_cuts`): one
        follower breaks ``g`` exactly when it is the only follower or
        dominates another, and one link exactly when it is its head's only
        way in.
        """
        g = self._g
        followers, edges = g._single_cuts
        if self._edge_cost is None:
            return len(g.followers) > 1 and not followers
        return not edges

    def tight_cuts(self) -> Iterator[tuple[int, frozenset]]:
        """Each follower whose cut costs :attr:`base`, in ascending order, and its cut.

        A follower whose lower bracket is over the degree is skipped; any
        other runs one flow, capped at the degree plus one, and one whose
        flow stops at the degree has its cut read off that flow.
        """
        degree = self.base
        nothing: frozenset = frozenset()
        for v in self._g.followers:
            if self._bracket(nothing, nothing, v)[0] > degree:
                continue
            value, cut = self._crossing(v, degree + 1)
            if value == degree:
                yield v, cut

    def tight_cut_within(self, allowed: Callable[[int], bool]) -> bool:
        """Does some follower have a cut of :attr:`base` followers, all ``allowed``, under the cap?

        On the ``ac`` network, a follower with a lower bracket over the
        degree (one a root feeds) is skipped, one with the degree as in-degree
        and only allowed tails says yes, and any other runs a flow capped at
        the degree plus one in which a follower not allowed costs that cap.
        """
        assert (self._edge_cost, self._vertex_cost) == (None, 1), "agent cuts are read on the ac network"
        degree, followers = self.base, self._g.followers
        priced = None
        for v in followers:
            if self._bracket(frozenset(), frozenset(), v)[0] > degree:
                continue
            tails = self._g._pred[v][1]
            if len(tails) == degree and all(map(allowed, tails)):
                return True
            net = self._built_net()
            if priced is None:
                priced = net.cap[:]
                priced[: net.first_edge : 2] = [1 if allowed(u) else degree + 1 for u in followers]
            if net.max_flow(priced[:], (0,), net.entry[v], degree + 1)[0] == degree:
                return True
        return False

    def uncritical_tails(self, target: int) -> tuple[int, ...]:
        """The tails of the target's in-edges that lie in no cheapest cut of the controllable ``g``, on the ``lc`` network.

        These are its uncritical links; the others are critical, since an
        edge's deletion lowers ``lc`` only through a cut that separates its
        head too (the head rule).  An in-degree equal to the degree (the
        upper end of the target's bracket) makes every in-edge critical and
        a lower bracket over it none, with no flow.  Any other target runs
        one flow, capped at the degree plus one; at the cap no in-edge is
        critical.  A flow that stops at the degree is maximum, and an arc
        into the sink lies in some minimum cut exactly when its tail does
        not reach the sink in the residual (Picard & Queyranne): one search
        backwards from the sink (:meth:`_Flow.reaching`) answers every
        in-edge.  The roots, the source, never reach it.
        """
        assert (self._edge_cost, self._vertex_cost) == (1, None), "critical links are read on the lc network"
        degree = self.base
        roots, tails = self._g._pred[target]
        if len(roots) + len(tails) == degree:
            return ()
        if self._bracket(frozenset(), frozenset(), target)[0] > degree:
            return roots + tails
        net = self._built_net()
        residual = net.cap[:]
        sink = net.entry[target]
        if net.max_flow(residual, (0,), sink, degree + 1)[0] > degree:
            return roots + tails
        reach = net.reaching(residual, sink)
        return tuple([tail for tail in tails if reach[net.entry[tail]]])

    def cheapest(self) -> tuple[int, frozenset] | None:
        """The first of :meth:`tight_cuts`; None if no cut is under the cap."""
        if self.base >= self._cap(len(self._g.followers)):
            return None
        found = next(self.tight_cuts(), None)
        assert found is not None, "no follower's cut costs the degree"
        return found

    @cached_property
    def _witness(self) -> tuple[frozenset[Edge], frozenset[int], tuple[int, ...]]:
        """The replayed cheapest cut, or the breaking set that meets the cap: edges, followers, stranded.

        That set is every follower, or every edge when followers cannot be
        cut (all of them then feed the only follower).  It is kept, so a
        report whose link and mixed witnesses are one cut replays it once.
        """
        g = self._g
        found = self.cheapest()
        if found is None:
            cut = frozenset(g.edges if self._vertex_cost is None else g.followers)
        else:
            cut = found[1]
        vertices = frozenset(element for element in cut if type(element) is int)
        edges = cut - vertices
        return edges, vertices, _replay(g, edges, vertices)

    def cut(self, target: int) -> tuple[int, frozenset]:
        """Cost and canonical edges and followers of the cheapest cut separating the target.

        A target no cut separates (a root edge when links cannot be cut)
        gets the cap and the full follower set, without a flow; its other
        followers, cheaper than one uncuttable edge, cut any other.
        """
        g = self._g
        if self._edge_cost is None and g._pred[target][0]:
            return self._cap(len(g.followers)), frozenset(g.followers)
        return self._crossing(target)

    def _crossing(self, target: int, limit: int | None = None) -> tuple[int, frozenset | None]:
        """A flow to the target, and the elements it saturates out of its last search's marks; None at ``limit``.

        A flow under ``limit`` ends on a search that misses the sink, so
        its marks are the residual reach of the source, the same for every
        maximum flow, and the cut is canonical.  An edge that cannot be cut
        counts as infinite, so one in the cut fails the duality check.  A
        flow that reaches ``limit`` may stop on a search that reached the
        sink, so it gets no cut.
        """
        net = self._built_net()
        residual = net.cap[:]
        value, marks = net.max_flow(residual, (0,), net.entry[target], limit)
        if limit is not None and value >= limit:
            return value, None
        cut = frozenset(net.cut_elements(residual, marks))
        assert value == sum(
            self._vertex_cost if type(element) is int else self._edge_cost or float("inf") for element in cut
        ), "max-flow/min-cut duality violated"
        return value, cut

    def without(
        self, followers: frozenset[int] = frozenset(), edges: frozenset[Edge] = frozenset()
    ) -> int:
        """The degree of ``g.remove_vertices(followers).remove_edges(edges)``.

        One :meth:`_solve` from the deletion's :meth:`_interval`; an
        edge-only deletion's is up to :attr:`base`, so it takes the head
        rule.  A deletion with followers takes it only when its upper end
        is at most :attr:`base`, and otherwise reads every survivor:
        deleting a follower can raise a degree (with roots 1 and 2 and
        edges 1->3, 1->4, 2->4, ``lc`` is 1, and 2 without 3).
        """
        lo, hi = self._interval(followers, edges)
        return self._solve(followers, edges, hi, lo) if lo < hi else hi

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
        """Is ``without(followers, edges) <= bound``?

        A bound outside the deletion's :meth:`_interval` needs no read.
        Otherwise one :meth:`_solve`, capped at ``bound + 1`` and stopping
        at ``bound``, settles it, by the head rule when ``bound`` is under
        :attr:`base`.
        """
        lo, hi = self._interval(followers, edges)
        if lo <= bound < hi:
            return self._solve(followers, edges, bound + 1, bound) <= bound
        return hi <= bound

    def _interval(self, followers: frozenset[int], edges: frozenset[Edge]) -> tuple[int, int]:
        """What is proven about a deletion's degree before any read: ``lo <= degree <= hi``.

        Deleting edges never raises the degree, so an edge-only deletion
        (or none) lies in ``[_edge_floor, base]``, and one with followers
        in ``[0, cap]``.
        """
        if not followers:
            return max(0, self._edge_floor(edges)), self.base
        survivors = len(self._g.followers) - len(followers)
        return 0, (self._cap(survivors) if survivors else 0)  # no survivor: the vacuous 0

    def _masked(self, followers: frozenset[int], edges: frozenset[Edge]) -> list[int]:
        """The capacities with the deleted edges' arcs, and the arcs into each deleted follower, zeroed.

        No flow enters a follower whose in-arcs are all zero, so it is cut
        off whether or not it is split.
        """
        capacities = self._built_net().cap
        if not followers and not edges:
            return capacities
        masked = capacities[:]
        arc_of, pred = self._built_net().arc_of, self._g._pred
        for v in followers:
            for tails in pred[v]:
                for tail in tails:
                    masked[arc_of[tail, v]] = 0
        for edge in edges:
            masked[arc_of[edge]] = 0
        return masked

    def _solve(self, followers: frozenset[int], edges: frozenset[Edge], below: int, floor: int) -> int:
        """``min(below, degree)`` with the deletion masked, stopping at ``floor``.

        ``floor`` must be a proven lower bound on the degree, or the bound
        of an :meth:`at_most` question.  The head rule, for ``below`` at
        most :attr:`base`: a cut cheaper than :attr:`base` after the
        deletion is not a cut of ``g``, so a deleted edge or an out-edge of
        a deleted follower crosses it, and the follower at its head is
        separated by it too.  So only those heads need a flow, and the
        degree is the least of theirs when it is under ``below``.  For an
        edge-only deletion with ``below`` an upper bound on the degree
        (:meth:`without`), that least value is the degree itself, since
        deleting edges never raises it.  A ``below`` over :attr:`base`
        reads every survivor.  A value under ``below`` is at least the
        degree, and is the degree when ``floor`` is a proven lower bound.
        """
        targets = None
        if below <= self.base:
            heads = {h for _, h in edges}
            if followers:
                succ = self._g._succ
                for v in followers:
                    heads.update(succ[v])
                heads -= followers
            targets = sorted(heads)
        return self._min_flow(followers, edges, targets, below, floor)

    def _min_flow(
        self,
        followers: frozenset[int],
        edges: frozenset[Edge],
        targets: Iterable[int] | None,
        best: int,
        floor: int,
    ) -> int:
        """The least of ``best`` and the targets' cut costs, read with the followers and edges deleted.

        Each target's :meth:`_bracket` comes first.  A target whose lower
        end is at least the least cost so far cannot lower it and is
        skipped; one whose ends meet costs that much.  One whose upper end
        is down to ``floor`` ends the loop with that end, which is only an
        upper bound on its cost (its exact cost when ``floor`` is a proven
        lower bound).  Any other target runs a flow capped at the least cost
        so far, on capacities masked at the first such flow (:meth:`_masked`).
        The loop stops once that cost is down to ``floor``.

        Before the first flow the floor is lifted once.  A deletion whose
        floor is under one element's cost asks :meth:`Digraph._strands`,
        which reads a single deletion off the dominator tree and walks the
        reduced graph for any other: a stranded survivor needs no cut, so
        the degree is 0, and otherwise every cut holds an element.  The
        graph itself on the ``lc`` or ``ac`` network takes two elements'
        cost when :meth:`_no_single_break` proves it; the all-unit network
        keeps its floor, so that ``verify`` checks ``jc`` against a read
        independent of theirs.

        Targets None are every surviving follower, read in sink order (Hao
        & Orlin): each target, once read, joins the source for the later
        ones, and their brackets and flows see it there.  Each cost read so
        is at least the target's own, and the least of them is still the
        degree: the first target on the sink side of a cheapest cut comes
        after only followers on its source side, so that cut still
        separates it.  A split follower joins with its in-node alone, so
        its split arc stays cuttable and a cut through it stays a cut.  The
        costs are then not each target's own.
        """
        merge = targets is None
        if merge:
            targets = [v for v in self._g.followers if v not in followers]
        masked = None
        merged: set[int] = set()
        for v in targets:
            if best <= floor:
                break
            lo, hi = self._bracket(followers, edges, v, merged)
            if lo >= best:
                pass
            elif lo == hi:
                best = lo
            elif hi <= floor:
                return hi
            else:
                if masked is None:
                    if followers or edges:
                        if floor < self._one:
                            if self._g._strands(followers, edges):
                                return 0
                            floor = self._one
                    elif None in (self._edge_cost, self._vertex_cost) and self._no_single_break():
                        floor = 2 * self._one
                    if best <= floor:
                        break
                    if hi <= floor:
                        return hi
                    masked, net = self._masked(followers, edges), self._built_net()
                sources = [0, *map(net.entry.__getitem__, merged)]
                best = min(best, net.max_flow(masked[:], sources, net.entry[v], best)[0])
            if merge:
                merged.add(v)
        return best


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

    The witness is a cut of ``g``, so each check is one unchecked
    :meth:`~robonet.digraph.Digraph._breaks`, and the first gives the
    stranded followers.
    """
    stranded = g._breaks(vertices, edges)
    assert stranded is not None, "witness does not break the graph"
    for element in [*sorted(edges), *sorted(vertices)]:
        assert g._breaks(vertices - {element}, edges - {element}) is None, (
            f"witness is not minimal: dropping {element} still breaks"
        )
    return stranded


def min_link_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking edge set of size ``lc(g)``, the cheapest cut of the graph's ``lc`` kernel.

    Ties across followers are broken toward the smallest follower id;
    the cut itself is the canonical residual cut of that follower.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every link is already critical")
    return WitnessSet("link", *g._kernels[0]._witness)


def min_agent_cut_witness(g: Digraph) -> WitnessSet:
    """One minimal breaking follower set of size ``ac(g)``, the cheapest cut of the graph's ``ac`` kernel.

    When every follower is directly root-connected the only breaking set
    is the full follower set, which is returned with an empty stranded
    list (the break is by convention, see
    :func:`~robonet.digraph.removal_breaks_controllability`).
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every agent is already critical")
    return WitnessSet("agent", *g._kernels[1]._witness)
