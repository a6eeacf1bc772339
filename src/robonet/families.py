"""Deterministic generators for the benchmark digraph families.

All families come pre-rooted: one vertex is designated the root and its
incoming edges are dropped, which is the standard way to turn a strongly
connected template (complete, Kautz, circulant) into a valid
information-flow digraph.
"""
from __future__ import annotations

from .digraph import MAX_GENERATED_EDGES, MAX_GENERATED_VERTICES, Digraph, Edge, new_digraph
from .errors import (
    IndexOutOfRangeError,
    InvalidConnectionSetError,
    ParameterOverflowError,
)

PRESET_KINDS = ("simple_loop", "double_loop", "daisy_chain")


def _check_counts(family: str, n: int, edge_count: int) -> None:
    """Reject an instance whose counts exceed the limits, before any edge is built."""
    if n > MAX_GENERATED_VERTICES:
        raise ParameterOverflowError(
            f"{family} digraph would have {n} vertices, above the limit of {MAX_GENERATED_VERTICES}"
        )
    if edge_count > MAX_GENERATED_EDGES:
        raise ParameterOverflowError(
            f"{family} digraph would have {edge_count} edges, above the limit of {MAX_GENERATED_EDGES}"
        )


def _rootify(n: int, edges: set[Edge], root: int) -> Digraph:
    if not 1 <= root <= n:
        raise IndexOutOfRangeError(f"root {root} outside 1..{n}")
    kept = {e for e in edges if e[1] != root}
    return new_digraph(n, [root], kept)


def complete_rooted(n: int, root: int = 1) -> Digraph:
    """Complete digraph on n vertices with the root's in-edges removed.

    Has n(n-1) - (n-1) edges; the densest information-flow digraph on n
    vertices and the most failure-tolerant one.
    """
    n = int(n)
    if n < 2:
        raise IndexOutOfRangeError("a complete rooted digraph needs n >= 2")
    _check_counts("complete", n, n * (n - 1))
    edges = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b}
    return _rootify(n, edges, root)


def kautz_edges(d: int, kappa: int) -> tuple[int, set[Edge]]:
    """Vertex count and raw edge set of the Kautz digraph K(d, kappa).

    Vertices are 1..n with n = d**kappa + d**(kappa-1); vertex i points
    to the d vertices congruent to -i*d - tau (mod n) for tau in 1..d,
    residues mapped into 1..n.  The parameter constraint guarantees no
    self-loops arise.
    """
    d, kappa = int(d), int(kappa)
    if d < 2 or kappa < 1:
        raise ParameterOverflowError("Kautz parameters need d >= 2 and kappa >= 1")
    if kappa > MAX_GENERATED_VERTICES.bit_length():
        # d**kappa >= 2**kappa already exceeds the vertex limit
        raise ParameterOverflowError(
            f"Kautz digraph K({d},{kappa}) would have more than {MAX_GENERATED_VERTICES} vertices"
        )
    n = d**kappa + d ** (kappa - 1)
    _check_counts("Kautz", n, n * d)
    edges: set[Edge] = set()
    for i in range(1, n + 1):
        for tau in range(1, d + 1):
            j = (-i * d - tau) % n
            j = n if j == 0 else j
            assert j != i, "Kautz construction never yields self-loops"
            edges.add((i, j))
    return n, edges


def kautz_rooted(d: int, kappa: int, root: int = 1) -> Digraph:
    """Kautz digraph K(d, kappa), rooted by dropping the root's in-edges."""
    n, edges = kautz_edges(d, kappa)
    return _rootify(n, edges, root)


def circulant_edges(n: int, b_set) -> set[Edge]:
    """Raw circulant edges: i -> j whenever j - i is congruent to some b (mod n)."""
    n = int(n)
    if n < 2:
        raise InvalidConnectionSetError("a circulant digraph needs n >= 2")
    offsets = sorted({int(b) for b in b_set})
    if not offsets:
        raise InvalidConnectionSetError("the connection set must not be empty")
    bad = [b for b in offsets if not 1 <= b <= n - 1]
    if bad:
        raise InvalidConnectionSetError(f"offset {bad[0]} outside 1..{n - 1}")
    _check_counts("circulant", n, n * len(offsets))
    return {
        (i, (i - 1 + b) % n + 1)
        for i in range(1, n + 1)
        for b in offsets
    }


def circulant_rooted(n: int, b_set, root: int = 1) -> Digraph:
    """Circulant digraph with connection set b_set, rooted at one vertex."""
    return _rootify(int(n), circulant_edges(n, b_set), root)


def preset(kind: str, n: int, root: int = 1) -> Digraph:
    """Named circulant presets: simple loop, distributed double loop, daisy chain."""
    n = int(n)
    if kind not in PRESET_KINDS:
        raise InvalidConnectionSetError(f"unknown preset {kind!r}; pick one of {PRESET_KINDS}")
    if n < 3:
        raise InvalidConnectionSetError(f"preset {kind} needs n >= 3")
    offsets = {
        "simple_loop": (1,),
        "double_loop": (1, n - 1),
        "daisy_chain": (1, n - 2),
    }[kind]
    return circulant_rooted(n, offsets, root)

