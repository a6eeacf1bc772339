"""Seeded inputs of the benchmark workloads.

Every graph is generated here rather than by ``robonet.families`` or
``robonet.oracle.random_digraph``, so a change to the program cannot change
what it is measured on.  Family graphs carry their closed-form degrees for
the checks.  The seed relabels the vertices of each family graph (roots
included) and draws the ``small-batch`` graphs; the same seed always gives
the same inputs.  The 500-vertex chain is never relabeled: it is the one
operation expected to fail, and its input must not depend on the seed.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass

Edge = tuple[int, int]

WORKLOADS = ("flow-sparse", "region-dense", "witness-mixed", "small-batch")

SMALL_BATCH_SIZE = 100


@dataclass(frozen=True)
class Graph:
    """A rooted digraph on vertices 1..n with its closed-form degrees, if any."""

    name: str
    n: int
    roots: tuple[int, ...]
    edges: tuple[Edge, ...]
    lc: int | None = None
    ac: int | None = None
    complete: bool = False

    @property
    def followers(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if v not in self.roots)

    def canonical_json(self) -> str:
        """The canonical graph-file form: sorted keys, sorted edges, indent 2."""
        payload = {
            "n": self.n,
            "roots": sorted(self.roots),
            "edges": [list(e) for e in sorted(self.edges)],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Op:
    """One call of the ``robonet`` command on one graph file."""

    command: str
    graph: Graph
    flags: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.flags]

    @property
    def label(self) -> str:
        return " ".join((self.command, self.graph.name, *self.flags))


def _rooted(name: str, n: int, edges, lc: int, ac: int, complete: bool = False) -> Graph:
    """Root a strongly connected template at vertex 1 by dropping its in-edges."""
    kept = tuple(sorted({(a, b) for a, b in edges if b != 1}))
    return Graph(name, n, (1,), kept, lc, ac, complete)


def complete_graph(n: int) -> Graph:
    edges = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return _rooted(f"complete{n}", n, edges, n - 1, n - 1, complete=True)


def kautz_graph(d: int, kappa: int) -> Graph:
    """Kautz K(d, kappa): vertex i points to -i*d - t (mod n) for t in 1..d."""
    n = d**kappa + d ** (kappa - 1)
    edges = [(i, (-i * d - t) % n or n) for i in range(1, n + 1) for t in range(1, d + 1)]
    return _rooted(f"kautz{d}-{kappa}", n, edges, d, d)


def circulant_graph(n: int, offsets: tuple[int, ...], lc: int, ac: int, name: str) -> Graph:
    edges = [(i, (i - 1 + b) % n + 1) for i in range(1, n + 1) for b in offsets]
    return _rooted(name, n, edges, lc, ac)


def double_loop(n: int) -> Graph:
    return circulant_graph(n, (1, n - 1), 2, 2, f"double-loop{n}")


def chain(n: int) -> Graph:
    return Graph(f"chain{n}", n, (1,), tuple((i, i + 1) for i in range(1, n)), 1, 1)


G4 = circulant_graph(6, (2, 3, 5), 3, 2, "g4")
CIRCULANT_12 = circulant_graph(12, (1, 2, 3), 3, 3, "circulant12")


def relabel(g: Graph, rng: random.Random) -> Graph:
    """The same graph under a random permutation of its vertex ids."""
    image = list(range(1, g.n + 1))
    rng.shuffle(image)
    move = dict(zip(range(1, g.n + 1), image))
    return Graph(
        g.name,
        g.n,
        tuple(sorted(move[r] for r in g.roots)),
        tuple(sorted((move[a], move[b]) for a, b in g.edges)),
        g.lc,
        g.ac,
        g.complete,
    )


def random_graph(rng: random.Random, index: int) -> Graph:
    """One small rooted graph: 3-10 vertices, 1-2 roots, at most 12 edges.

    The vertex count, root count and edge count follow from ``index`` alone,
    so every seed draws a batch with the same size profile and only the edge
    placement varies.  The edge count is one per follower plus 0, 1/6 or 1/3
    of the way to the lesser of 20 and the number of valid placements; denser
    graphs would spend the pass in the indices of a few of them.  Nine graphs
    in ten grow from a random spanning tree and are controllable; the tenth
    places its edges uniformly and is often not.
    """
    n = 3 + index % 8
    root_count = 1 + (index // 8) % 2
    vertices = list(range(1, n + 1))
    roots = sorted(rng.sample(vertices, root_count))
    followers = [v for v in vertices if v not in roots]
    pool = [(a, b) for a in vertices for b in followers if a != b]
    lowest = len(followers)
    highest = min(20, len(pool))
    edge_count = lowest + (highest - lowest) * ((index // 16) % 3) // 6
    if index % 10 == 9:
        edges = set(rng.sample(pool, edge_count))
    else:
        edges = set()
        attached = list(roots)
        for v in rng.sample(followers, len(followers)):
            edges.add((rng.choice(attached), v))
            attached.append(v)
        spare = [e for e in pool if e not in edges]
        edges.update(rng.sample(spare, edge_count - len(edges)))
    return Graph(f"random{index:03d}", n, tuple(roots), tuple(sorted(edges)))


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one pass over a workload, in the order they run."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "flow-sparse":
        indexed = (G4, kautz_graph(2, 3), double_loop(20), CIRCULANT_12, complete_graph(8))
        ops = [Op("analyze", relabel(g, rng), ("--indices",)) for g in indexed]
        ops.append(Op("analyze", relabel(double_loop(200), rng), ("--degrees",)))
        ops.append(Op("analyze", chain(500), ("--degrees",)))
        return ops
    if workload == "region-dense":
        flags = ("--degrees", "--classify", "--region", "--workers", "1")
        graphs = (complete_graph(9), complete_graph(10), complete_graph(11), complete_graph(12), kautz_graph(3, 2))
        return [Op("analyze", relabel(g, rng), flags) for g in graphs]
    if workload == "witness-mixed":
        graphs = (
            CIRCULANT_12, circulant_graph(10, (1, 2, 3), 3, 3, "circulant10"), double_loop(20), kautz_graph(2, 4),
            complete_graph(5), kautz_graph(2, 3), complete_graph(8),
        )
        return [Op("analyze", relabel(g, rng), ("--witnesses",)) for g in graphs]
    if workload == "small-batch":
        ops = []
        for index in range(SMALL_BATCH_SIZE):
            g = random_graph(rng, index)
            ops += [Op("analyze", g, ("--json",)), Op("verify", g)]
        return ops
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")


def workload_graphs(ops: list[Op]) -> dict[str, Graph]:
    """Each distinct input graph of a pass, keyed by file name."""
    return {op.graph.name: op.graph for op in ops}
