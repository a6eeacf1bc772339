"""The pace of the machine, from a fixed reference kernel timed between passes.

The CPU speed a process gets on a shared host moves by a third or more for
tens of seconds at a time, so two runs of the same code can differ by that
much in wall time.  The benchmark therefore times this kernel, which shares
no code with ``robonet`` and never changes, next to the work it measures,
and reports times scaled to the kernel's pace on a reference machine:

    scaled seconds = measured seconds * REFERENCE_S / measured kernel seconds

A program that gets twice as fast reads half the scaled time, whatever the
machine's pace; a machine that gets slower leaves the scaled time where it
was.  The measured seconds and the pace are printed next to the scaled ones.
"""
from __future__ import annotations

import statistics
import time

# Median kernel time on the reference machine: a 2-core Intel Xeon at
# 2.1 GHz, Python 3.11.7.  It fixes only where the scale sits; scaled times
# stay comparable between runs whatever value it has.
REFERENCE_S = 0.009
ROUNDS = 15  # kernel runs before the first pass and after each pass
EVERY_S = 0.2  # least wall time between kernel runs inside a pass


def kernel() -> int:
    """Breadth-first searches over a fixed 500-vertex digraph: dict, set and list traffic."""
    n = 500
    adjacency = {v: ((v + 1) % n, (v + 7) % n, (3 * v) % n) for v in range(n)}
    reached = 0
    for source in range(0, n, 10):
        seen = {source}
        frontier = [source]
        while frontier:
            following = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in seen:
                        seen.add(w)
                        following.append(w)
            frontier = following
        reached += len(seen)
    return reached


def sample(rounds: int = ROUNDS) -> list[float]:
    """Wall times of ``rounds`` runs of the kernel, back to back."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(samples: list[float]) -> float:
    """The factor that turns seconds measured next to ``samples`` into scaled seconds."""
    return REFERENCE_S / statistics.median(samples)
