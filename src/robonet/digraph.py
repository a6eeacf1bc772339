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
    report the first faulty edge in ascending order.
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
        """Each vertex's out-neighbours, ascending."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for tail, head in self.edges:
            adj[tail].append(head)
        for heads in adj.values():
            heads.sort()
        return {v: tuple(heads) for v, heads in adj.items()}

    @cached_property
    def _pred(self) -> Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each vertex's in-neighbours, split into the roots and the followers."""
        tails: dict[int, tuple[list[int], list[int]]] = {v: ([], []) for v in self.vertices}
        root_set = self.root_set
        for tail, head in self.edges:
            tails[head][tail not in root_set].append(tail)
        return {v: (tuple(roots), tuple(followers)) for v, (roots, followers) in tails.items()}

    @cached_property
    def _out(self) -> Mapping[int, tuple[Edge, ...]]:
        """Each vertex's out-edges, by ascending head: every per-follower index reads them."""
        return {v: tuple([(v, h) for h in heads]) for v, heads in self._succ.items()}

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        if v not in self.vertices:
            raise IndexOutOfRangeError(f"unknown vertex {v}")
        return self._out[v]

    def in_edges(self, v: int) -> tuple[Edge, ...]:
        if v not in self.vertices:
            raise IndexOutOfRangeError(f"unknown vertex {v}")
        return tuple(e for e in self.sorted_edges if e[1] == v)

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
        gone = frozenset(_normalize_edge(e) for e in loss)
        unknown = gone - self.edges
        if unknown:
            tail, head = min(unknown)
            raise UnknownEdgeError(f"edge {tail}->{head} is not in the graph")
        return Digraph(self.vertices, self.roots, self.edges - gone)

    def remove_vertices(self, loss: Iterable[int]) -> "Digraph":
        gone = frozenset(int(v) for v in loss)
        unknown = gone - self.vertices
        if unknown:
            raise IndexOutOfRangeError(f"unknown vertex {min(unknown)}")
        doomed_roots = gone & self.root_set
        if doomed_roots:
            raise RootRemovalError(f"root {min(doomed_roots)} cannot fail")
        kept = self.vertices - gone
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
    before anything is allocated for it.
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
    edge_list = []
    for tail, head in edges:
        tail, head = int(tail), int(head)
        if not (1 <= tail <= n and 1 <= head <= n):
            raise IndexOutOfRangeError(f"edge {tail}->{head} outside 1..{n}")
        if tail == head and strip_self_loops:
            warnings.warn(
                f"dropped self-loop {tail}->{head}: follower self-loops are "
                "implicit in the model",
                stacklevel=2,
            )
            continue
        edge_list.append((tail, head))
    return Digraph(frozenset(range(1, n + 1)), tuple(root_list), frozenset(edge_list))


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

    @property
    def white_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.white_of.values()))

    @property
    def black_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.black_of.values()))

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
    ``|V| - |R|`` ceiling.
    """
    vertex_set = frozenset(int(v) for v in vertices)
    if g.followers and vertex_set >= frozenset(g.followers):
        return True
    return bool(stranded_followers(g, edges, vertex_set))


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
    edge_set = frozenset(_normalize_edge(e) for e in edges)
    unknown_edges = edge_set - g.edges
    if unknown_edges:
        tail, head = min(unknown_edges)
        raise UnknownEdgeError(f"edge {tail}->{head} is not in the graph")
    vertex_set = frozenset(int(v) for v in vertices)
    unknown = vertex_set - g.vertices
    if unknown:
        raise IndexOutOfRangeError(f"unknown vertex {min(unknown)}")
    doomed_roots = vertex_set & g.root_set
    if doomed_roots:
        raise RootRemovalError(f"root {min(doomed_roots)} cannot fail")
    reached = g._reach(g.roots, vertex_set, edge_set)
    return tuple(v for v in g.followers if v not in reached and v not in vertex_set)
