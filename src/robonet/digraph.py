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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import (
    EmptyRootSetError,
    GraphTooLargeError,
    IndexOutOfRangeError,
    RootInEdgeHeadError,
    RootRemovalError,
    SelfLoopError,
    UnknownEdgeError,
)

Edge = tuple[int, int]

# Largest vertex count new_digraph accepts, checked before anything is
# allocated per vertex; graph files and the family generators share it.
MAX_GENERATED_VERTICES = 100_000


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
    edge endpoints exist, and there are no self-loops.
    """

    vertices: frozenset[int]
    roots: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vertices = frozenset(int(v) for v in self.vertices)
        roots = tuple(sorted({int(r) for r in self.roots}))
        edges = frozenset(_normalize_edge(e) for e in self.edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "edges", edges)

        if not roots:
            raise EmptyRootSetError("the root-set must not be empty")
        missing_roots = [r for r in roots if r not in vertices]
        if missing_roots:
            raise IndexOutOfRangeError(f"root {missing_roots[0]} is not a vertex")
        root_set = frozenset(roots)
        for tail, head in sorted(edges):
            if tail == head:
                raise SelfLoopError(
                    f"self-loop {tail}->{head}: follower self-loops are implicit "
                    "in the model and must be omitted"
                )
            if tail not in vertices or head not in vertices:
                raise IndexOutOfRangeError(f"edge {tail}->{head} uses an unknown vertex")
            if head in root_set:
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
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for tail, head in self.sorted_edges:
            adj[tail].append(head)
        return {v: tuple(heads) for v, heads in adj.items()}

    def out_edges(self, v: int) -> tuple[Edge, ...]:
        if v not in self.vertices:
            raise IndexOutOfRangeError(f"unknown vertex {v}")
        return tuple((v, h) for h in self._succ[v])

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

    def reachable_from_roots(self) -> frozenset[int]:
        """All vertices reachable from the root-set (roots included)."""
        seen = set(self.roots)
        stack = list(self.roots)
        while stack:
            v = stack.pop()
            for head in self._succ[v]:
                if head not in seen:
                    seen.add(head)
                    stack.append(head)
        return frozenset(seen)

    def is_controllable(self) -> bool:
        """True when every follower is reachable from the root-set.

        A graph without followers is vacuously controllable; it serves as
        the degenerate base case for removal recursions.
        """
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

    Edge lists are deduplicated; ``strip_self_loops`` downgrades explicit
    self-loops from an error to a silent drop (used by file ingestion).
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
    for raw in edges:
        tail, head = _normalize_edge(raw)
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
    stripped = g.remove_edges(edges).remove_vertices(vertex_set)
    return not stripped.is_controllable()
