"""Rooted directed information-flow graphs and their basic operations.

The model is a digraph on integer vertices with a distinguished nonempty
root-set.  Roots stand for leader agents driven by external inputs and
never receive edges; every other vertex is a follower.  Parallel arcs and
explicit self-loops are forbidden (follower self-loops are implicit in
the model).  A graph is controllable exactly when every follower is
reachable from some root.

Graphs are immutable values: removal operations return new graphs and
surviving vertices keep their original ids.  Vertex ids are 1-based in
all public interfaces.
"""
from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import (
    EmptyRootSetError,
    GraphTooLargeError,
    IndexOutOfRangeError,
    RootInEdgeHeadError,
    RootRemovalError,
    SelfLoopError,
    UnknownEdgeError,
)

if TYPE_CHECKING:
    from .connectivity import _DeletionDegrees

Edge = tuple[int, int]

# Largest vertex count new_digraph accepts, checked before anything is
# allocated per vertex; graph files and the family generators share it.
MAX_GENERATED_VERTICES = 100_000
# Largest edge set a family generator builds, checked from its parameters
# before the first edge is made; graph files are held to it while they are
# read, before any edge is validated or built.
MAX_GENERATED_EDGES = 1_000_000


def _normalize_edge(value: Iterable[int]) -> Edge:
    tail, head = value
    return (int(tail), int(head))


@dataclass(frozen=True)
class Cut:
    """Boundary edge set of a vertex set.

    ``side == "out"`` holds the edges whose tails are inside the set and
    heads outside; ``side == "in"`` is the mirror image.
    """

    members: frozenset[Edge]
    side: str

    def __len__(self) -> int:
        return len(self.members)

    @property
    def sorted_members(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class Digraph:
    """A rooted digraph; construct fresh instances through :func:`new_digraph`.

    The constructor validates every invariant, so any reachable in-memory
    value is well formed: roots are nonempty and have no incoming edges,
    edge endpoints exist, and there are no self-loops.  The edges are
    checked in one unsorted pass; only a graph with a fault sorts them, to
    report the first faulty edge in ascending order.  :func:`new_digraph`
    makes the same checks in its own loop and builds a graph without a
    fault without this second pass.
    """

    vertices: frozenset[int]
    roots: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vertices = frozenset(map(int, self.vertices))
        roots = tuple(sorted(set(map(int, self.roots))))
        edges = frozenset((int(tail), int(head)) for tail, head in self.edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "edges", edges)

        if not roots:
            raise EmptyRootSetError("the root-set must not be empty")
        missing_roots = [r for r in roots if r not in vertices]
        if missing_roots:
            raise IndexOutOfRangeError(f"root {missing_roots[0]} is not a vertex")
        root_set = frozenset(roots)
        faults = [
            (tail, head)
            for tail, head in edges
            if tail == head or head in root_set or tail not in vertices or head not in vertices
        ]
        if not faults:
            return
        tail, head = min(faults)
        if tail == head:
            raise SelfLoopError(
                f"self-loop {tail}->{head}: follower self-loops are implicit "
                "in the model and must be omitted"
            )
        if tail not in vertices or head not in vertices:
            raise IndexOutOfRangeError(f"edge {tail}->{head} uses an unknown vertex")
        raise RootInEdgeHeadError(
            f"edge {tail}->{head} enters root {head}; roots never receive edges"
        )

    @classmethod
    def _validated(cls, vertices: frozenset[int], roots: tuple[int, ...], edges: frozenset[Edge]) -> Digraph:
        """The graph of parts already normalised and validated, as :func:`new_digraph` leaves them."""
        g = object.__new__(cls)
        vars(g).update(vertices=vertices, roots=roots, edges=edges)
        return g

    # ---- derived views ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def root_set(self) -> frozenset[int]:
        return frozenset(self.roots)

    @cached_property
    def followers(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices - self.root_set))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _succ(self) -> Mapping[int, tuple[int, ...]]:
        """Each vertex's out-neighbours, ascending: :attr:`sorted_edges` lists them in order."""
        heads: dict[int, list[int]] = {v: [] for v in self.vertices}
        for tail, head in self.sorted_edges:
            heads[tail].append(head)
        return {v: tuple(vs) for v, vs in heads.items()}

    @cached_property
    def _pred(self) -> Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each vertex's in-neighbours, split into the roots and the followers, each ascending."""
        tails: dict[int, list[int]] = {v: [] for v in self.vertices}
        for tail, head in self.sorted_edges:
            tails[head].append(tail)
        root_set = self.root_set
        return {
            v: ((), tuple(vs)) if root_set.isdisjoint(vs)
            else (tuple([t for t in vs if t in root_set]), tuple([t for t in vs if t not in root_set]))
            for v, vs in tails.items()
        }

    @cached_property
    def _out(self) -> Mapping[int, tuple[Edge, ...]]:
        """Each vertex's out-edges, by ascending head: every per-follower index reads them."""
        return {v: tuple([(v, h) for h in heads]) for v, heads in self._succ.items()}

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        if v not in self.vertices:
            raise IndexOutOfRangeError(f"unknown vertex {v}")
        return self._out[v]

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        """The edges into ``v``, ascending."""
        if v not in self.vertices:
            raise IndexOutOfRangeError(f"unknown vertex {v}")
        roots, followers = self._pred[v]
        return tuple([(tail, v) for tail in sorted(roots + followers)])

    def out_cut(self, x: Iterable[int]) -> Cut:
        inside = self._checked_subset(x)
        members = frozenset(e for e in self.edges if e[0] in inside and e[1] not in inside)
        return Cut(members=members, side="out")

    def in_cut(self, x: Iterable[int]) -> Cut:
        inside = self._checked_subset(x)
        members = frozenset(e for e in self.edges if e[1] in inside and e[0] not in inside)
        return Cut(members=members, side="in")

    def _checked_subset(self, x: Iterable[int]) -> frozenset[int]:
        inside = frozenset(int(v) for v in x)
        unknown = inside - self.vertices
        if unknown:
            raise IndexOutOfRangeError(f"unknown vertex {min(unknown)}")
        return inside

    def _checked_followers(self, loss: Iterable[int]) -> frozenset[int]:
        """The vertices as a set, once each is known to be a follower."""
        gone = self._checked_subset(loss)
        doomed_roots = gone & self.root_set
        if doomed_roots:
            raise RootRemovalError(f"root {min(doomed_roots)} cannot fail")
        return gone

    def _checked_edges(self, loss: Iterable[Edge]) -> frozenset[Edge]:
        """The edges as a set, once each is known to be in the graph."""
        gone = frozenset(_normalize_edge(e) for e in loss)
        unknown = gone - self.edges
        if unknown:
            tail, head = min(unknown)
            raise UnknownEdgeError(f"edge {tail}->{head} is not in the graph")
        return gone

    # ---- reachability ----------------------------------------------------

    def _reach(
        self,
        seeds: Iterable[int],
        gone_vertices: frozenset[int] = frozenset(),
        gone_edges: frozenset[Edge] = frozenset(),
    ) -> set[int]:
        """Vertices reachable from the seeds once the given followers and links are gone.

        The walk runs over this graph's adjacency and masks the removed
        elements as it goes, so no reduced graph is built.  Removed
        vertices are never entered and are not in the result; no seed
        may be among them.
        """
        stack = list(seeds)
        seen = set(gone_vertices)
        seen.update(stack)
        succ = self._succ
        while stack:
            v = stack.pop()
            for head in succ[v]:
                if head not in seen and not (gone_edges and (v, head) in gone_edges):
                    seen.add(head)
                    stack.append(head)
        return seen - gone_vertices if gone_vertices else seen

    def _stranded(self, gone_vertices: frozenset[int], gone_edges: frozenset[Edge]) -> tuple[int, ...]:
        """Surviving followers the roots no longer reach after the deletion: one unchecked walk."""
        reached = self._reach(self.roots, gone_vertices, gone_edges)
        return tuple(v for v in self.followers if v not in reached and v not in gone_vertices)

    def _breaks(
        self, gone_vertices: frozenset[int], gone_edges: frozenset[Edge] = frozenset()
    ) -> tuple[int, ...] | None:
        """The followers an unchecked deletion strands if it breaks the graph, else None.

        Deleting every follower breaks by convention (see
        :func:`removal_breaks_controllability`) and strands no one: ``()``.
        """
        if gone_vertices and len(gone_vertices) == len(self.followers):
            return ()
        return self._stranded(gone_vertices, gone_edges) or None

    @cached_property
    def _dominators(self) -> dict[int, tuple[int | None, int, int]]:
        """The dominator tree of the followers the roots reach, with the roots contracted.

        Maps each such follower to ``(idom, first, end)``: its immediate
        dominator (None for the contracted roots) and the range
        ``first <= i < end`` of dominator-tree preorder numbers in its
        subtree, so ``v`` dominates ``u`` exactly when ``u``'s ``first``
        lies in ``v``'s range.  Semidominators come from Lengauer &
        Tarjan's path-compressed forest and immediate dominators from
        their nearest common ancestor step (Semi-NCA); every walk is
        iterative, so a long path does not meet the recursion limit.
        """
        succ = self._succ
        # a depth-first preorder from the roots, node 0 for all of them:
        # vertex[i] is node i and parent[i] its tree parent
        number = dict.fromkeys(self.roots, 0)
        vertex: list[int | None] = [None]
        parent = [0]
        stack = [(0, iter([h for r in self.roots for h in succ[r]]))]
        while stack:
            i, heads = stack[-1]
            for h in heads:
                if h not in number:
                    number[h] = len(vertex)
                    vertex.append(h)
                    parent.append(i)
                    stack.append((number[h], iter(succ[h])))
                    break
            else:
                stack.pop()
        pred: list[list[int]] = [[] for _ in vertex]
        for tail, i in number.items():
            for h in succ[tail]:
                pred[number[h]].append(i)
        # semidominators, in reverse preorder, over the linked forest
        count = len(vertex)
        semi = list(range(count))
        label = list(range(count))
        ancestor = [-1] * count
        for w in range(count - 1, 0, -1):
            for v in pred[w]:
                if ancestor[v] >= 0:  # linked: compress its forest path
                    path = []
                    u = v
                    while ancestor[ancestor[u]] >= 0:
                        path.append(u)
                        u = ancestor[u]
                    for u in reversed(path):
                        a = ancestor[u]
                        if semi[label[a]] < semi[label[u]]:
                            label[u] = label[a]
                        ancestor[u] = ancestor[a]
                    v = label[v]
                if semi[v] < semi[w]:
                    semi[w] = semi[v]
            ancestor[w] = parent[w]
        # immediate dominators, in preorder, and each dominator subtree's range
        idom = [0] * count
        for w in range(1, count):
            d = parent[w]
            while d > semi[w]:
                d = idom[d]
            idom[w] = d
        size = [1] * count
        for w in range(count - 1, 0, -1):
            size[idom[w]] += size[w]
        first = [0] * count
        free = [1] * count  # the next preorder number under each node
        for w in range(1, count):
            d = idom[w]
            first[w] = free[d]
            free[d] += size[w]
            free[w] = first[w] + 1
        return {
            vertex[w]: (vertex[idom[w]], first[w], first[w] + size[w])
            for w in range(1, count)
        }

    @cached_property
    def _single_cuts(self) -> tuple[frozenset[int], frozenset[Edge]]:
        """Of a controllable graph: the followers, and the edges, whose deletion alone strands a follower.

        Read off :attr:`_dominators` (Italiano, Laura & Santaroni's
        reading of it).  Deleting a follower ``v``, or every out-edge of
        ``v``, strands exactly the other followers ``v`` dominates, so the
        followers are those whose dominator subtree holds another.  An
        in-edge of a follower ``h`` from a root, or from a tail ``h`` does
        not dominate, is a way in: a root path reaches that tail without
        passing ``h``.  Deleting one edge strands a follower only if it
        strands the edge's head, since a root path to any follower the
        edge serves runs through that head, and it strands the head
        exactly when the edge is the head's only way in.  So the edges are
        the followers' sole ways in.
        """
        dominators, pred = self._dominators, self._pred
        dominating = frozenset(v for v, (_, first, end) in dominators.items() if end - first > 1)
        sole = []
        for head, (_, first, end) in dominators.items():
            roots, tails = pred[head]
            ways = [tail for tail in tails if not first <= dominators[tail][1] < end]
            if len(roots) + len(ways) == 1:
                sole.append((roots[0] if roots else ways[0], head))
        return dominating, frozenset(sole)

    def _strands(self, gone_vertices: frozenset[int], gone_edges: frozenset[Edge]) -> bool:
        """``bool(self._stranded(gone_vertices, gone_edges))``, for edges of this graph.

        On a controllable graph, the deletion of one follower, of one
        edge, or of every out-edge of one follower is read off
        :attr:`_single_cuts` without a walk; any other deletion, and every
        deletion from an uncontrollable graph, walks.
        """
        if self._controllable:
            if not gone_edges and len(gone_vertices) == 1:
                return not gone_vertices.isdisjoint(self._single_cuts[0])
            if not gone_vertices and len(gone_edges) == 1:
                return not gone_edges.isdisjoint(self._single_cuts[1])
            tails = {tail for tail, _ in gone_edges}
            if not gone_vertices and len(tails) == 1:
                (tail,) = tails
                if tail not in self.root_set and len(gone_edges) == len(self._succ[tail]):
                    return tail in self._single_cuts[0]
        return bool(self._stranded(gone_vertices, gone_edges))

    @cached_property
    def _kernels(self) -> tuple[_DeletionDegrees, _DeletionDegrees]:
        """The ``lc`` and the ``ac`` kernel of this graph, in that order, built at the first read.

        Every reader of the two degrees, of their drops under deletions and
        of their cuts shares these two (see
        :class:`~robonet.connectivity._DeletionDegrees`), so what one read
        proves serves the later ones.  They hold the graph through a weak
        proxy, so the graph and its kernels form no reference cycle and are
        freed together as soon as the graph is; a kernel is read only while
        its graph lives.  So bind the graph to a name before reading a
        kernel: ``g.remove_edges(gone)._kernels[0].base`` frees the reduced
        graph before ``.base`` runs and raises ``ReferenceError``.
        """
        from .connectivity import _DeletionDegrees  # connectivity imports this module

        graph = weakref.proxy(self)
        return _DeletionDegrees(graph, 1, None), _DeletionDegrees(graph, None, 1)

    @cached_property
    def _root_reach(self) -> frozenset[int]:
        return frozenset(self._reach(self.roots))

    def reachable_from_roots(self) -> frozenset[int]:
        """All vertices reachable from the root-set (roots included), walked once per graph."""
        return self._root_reach

    def is_controllable(self) -> bool:
        """True when every follower is reachable from the root-set.

        A graph without followers is vacuously controllable; it serves as
        the degenerate base case for removal recursions.  The answer is
        kept, since every per-element index checks it.
        """
        return self._controllable

    @cached_property
    def _controllable(self) -> bool:
        return len(self.reachable_from_roots()) == self.n

    def unreachable_followers(self) -> tuple[int, ...]:
        reached = self.reachable_from_roots()
        return tuple(v for v in self.followers if v not in reached)

    # ---- removal ---------------------------------------------------------

    def remove_edges(self, loss: Iterable[Edge]) -> "Digraph":
        return Digraph(self.vertices, self.roots, self.edges - self._checked_edges(loss))

    def remove_vertices(self, loss: Iterable[int]) -> "Digraph":
        kept = self.vertices - self._checked_followers(loss)
        edges = frozenset(e for e in self.edges if e[0] in kept and e[1] in kept)
        return Digraph(kept, self.roots, edges)


def new_digraph(
    n: int,
    roots: Iterable[int],
    edges: Iterable[Edge],
    *,
    strip_self_loops: bool = False,
) -> Digraph:
    """Build and validate a digraph on vertices ``1..n``.

    Edge lists are deduplicated; ``strip_self_loops`` drops explicit
    self-loops instead of rejecting them, with a ``UserWarning`` for each
    (used by file ingestion).
    A vertex count above :data:`MAX_GENERATED_VERTICES` is rejected
    before anything is allocated for it.  Each edge is checked once, in
    one loop: an endpoint outside ``1..n`` raises there, in input order,
    and a graph with no other fault is built without the constructor's
    second scan; any other fault is left to the constructor, which
    reports the least faulty edge.
    """
    n = int(n)
    if n < 1:
        raise IndexOutOfRangeError(f"vertex count must be positive, got {n}")
    if n > MAX_GENERATED_VERTICES:
        raise GraphTooLargeError(
            f"vertex count {n} exceeds the limit of {MAX_GENERATED_VERTICES}"
        )
    root_list = [int(r) for r in roots]
    for r in root_list:
        if not 1 <= r <= n:
            raise IndexOutOfRangeError(f"root {r} outside 1..{n}")
    root_set = frozenset(root_list)
    faulty = not root_set
    edge_list = []
    for tail, head in edges:
        tail, head = int(tail), int(head)
        if not (1 <= tail <= n and 1 <= head <= n):
            raise IndexOutOfRangeError(f"edge {tail}->{head} outside 1..{n}")
        if tail == head:
            if strip_self_loops:
                warnings.warn(
                    f"dropped self-loop {tail}->{head}: follower self-loops are "
                    "implicit in the model",
                    stacklevel=2,
                )
                continue
            faulty = True
        elif head in root_set:
            faulty = True
        edge_list.append((tail, head))
    vertices = frozenset(range(1, n + 1))
    if faulty:  # the checking constructor raises the error for the least faulty edge
        return Digraph(vertices, tuple(root_list), frozenset(edge_list))
    return Digraph._validated(vertices, tuple(sorted(root_set)), frozenset(edge_list))


@dataclass(frozen=True, eq=True)
class EdgeDuplicate:
    """A digraph with every edge split through a fresh intermediate vertex.

    Each edge ``(tail, head)`` of the source graph becomes the two-edge
    path ``tail -> b -> head`` where ``b`` is a new "black" vertex owned
    by that edge; the original vertices are the "white" vertices and keep
    their ids.  ``white_of`` and ``black_of`` record the one-to-one
    correspondence between original vertices plus edges and the vertices
    of the transformed graph.
    """

    graph: Digraph
    white_of: Mapping[int, int]
    black_of: Mapping[Edge, int]

    @cached_property
    def _edge_of_black(self) -> Mapping[int, Edge]:
        return {b: edge for edge, b in self.black_of.items()}

    def edge_for_black(self, black: int) -> Edge:
        try:
            return self._edge_of_black[black]
        except KeyError:
            raise UnknownEdgeError(f"{black} is not a black vertex") from None


def edge_duplicate(g: Digraph) -> EdgeDuplicate:
    """Split every edge through a black vertex.

    Black vertices are numbered from ``max(vertices) + 1`` upward in
    lexicographic edge order, so the construction is deterministic.  The
    result has ``|V| + |E|`` vertices and ``2|E|`` edges, and every black
    vertex has in-degree and out-degree exactly one.
    """
    next_id = max(g.vertices) + 1 if g.vertices else 1
    black_of: dict[Edge, int] = {}
    new_edges: list[Edge] = []
    for edge in g.sorted_edges:
        tail, head = edge
        black = next_id
        next_id += 1
        black_of[edge] = black
        new_edges.append((tail, black))
        new_edges.append((black, head))
    vertices = g.vertices | frozenset(black_of.values())
    dup = Digraph(vertices, g.roots, frozenset(new_edges))
    white_of = {v: v for v in sorted(g.vertices)}
    return EdgeDuplicate(graph=dup, white_of=white_of, black_of=black_of)


def removal_breaks_controllability(
    g: Digraph,
    edges: Iterable[Edge] = (),
    vertices: Iterable[int] = (),
) -> bool:
    """True when removing the given links and followers breaks the graph.

    One convention beyond plain reachability: deleting *every* follower
    counts as a break even though the surviving all-root graph is
    vacuously controllable.  Without it the follower set of a graph whose
    followers are all directly root-connected would have no breaking set
    at all, and the agent controllability degree would lose its
    ``|V| - |R|`` ceiling.  Invalid elements raise as in :func:`stranded_followers`.
    """
    edge_set = g._checked_edges(edges)
    return g._breaks(g._checked_followers(vertices), edge_set) is not None


def stranded_followers(
    g: Digraph,
    edges: Iterable[Edge] = (),
    vertices: Iterable[int] = (),
) -> tuple[int, ...]:
    """Surviving followers that lose root access when the links and followers are removed.

    Answers ``g.remove_edges(edges).remove_vertices(vertices)
    .unreachable_followers()``, with the same errors for unknown
    elements and roots, from one masked walk over ``g`` that builds no
    graph.
    """
    edge_set = g._checked_edges(edges)
    return g._stranded(g._checked_followers(vertices), edge_set)
