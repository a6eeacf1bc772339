"""Spans around the calls into robonet's layers, recorded from outside the program.

A :class:`Tracer` replaces each traced function with a wrapper at every
place a ``robonet`` module holds it.  The modules import each other's
functions by name (``criticality``, ``joint``, ``report`` and ``cli`` each
hold their own ``link_controllability``), so patching only the defining
module would miss most calls.  Methods are patched on their class.

A span is opened per call and closed when the call returns.  Its parent is
the innermost span open on the same thread; a span opened on a worker
thread has no parent.  Spans are folded into per-name totals as they close
(count, duration, self time), because a mixed-witness search opens a few
hundred thousand spans per pass (about 650,000 for complete 6) and a log of
each would cost tens of megabytes.  Self time is the duration minus the
time the span's children cover.
"""
from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# "module:function" or "module:Class.method", all under the robonet package.
TRACED = (
    "digraph:Digraph.__init__",
    "digraph:Digraph.reachable_from_roots",
    "digraph:removal_breaks_controllability",
    "connectivity:max_edge_disjoint",
    "connectivity:max_vertex_disjoint",
    "connectivity:link_controllability",
    "connectivity:agent_controllability",
    "connectivity:min_link_cut_witness",
    "connectivity:min_agent_cut_witness",
    "criticality:edge_records",
    "criticality:agent_records",
    "joint:joint_region",
    "joint:is_joint_rs_controllable",
    "joint:classify",
    "joint:critical_agent_link_witness",
    "oracle:oracle_lc",
    "oracle:oracle_ac",
    "oracle:oracle_jc",
    "oracle:oracle_region",
    "graphio:load_graph_file",
    "report:build_report",
    "report:render_text",
    "report:render_json",
    "cli:main",
)


class Tracer:
    """Installs span wrappers, keeps per-thread totals and removes the wrappers again."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, list]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _thread_state(self) -> tuple[list, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {})
            with self._lock:
                self._tables.append(state[1])
            self._local.state = state
        return state

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._thread_state()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                row = table.get(name)
                if row is None:
                    row = table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "robonet" or key.startswith("robonet.")]
        for target in TRACED:
            module_name, _, attr = target.partition(":")
            home = sys.modules.get(f"robonet.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, method, wrapper, original)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper, original)

    def _patch(self, owner, key: str, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) per traced name, summed over threads."""
        merged: dict[str, list] = {}
        with self._lock:
            for table in self._tables:
                for name, (calls, total, own) in table.items():
                    row = merged.setdefault(name, [0, 0.0, 0.0])
                    row[0] += calls
                    row[1] += total
                    row[2] += own
        return {name: tuple(row) for name, row in merged.items()}


def layer_metrics(totals: dict[str, tuple[int, float, float]]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by metric name."""

    def calls(*names: str) -> int:
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    flows = ("connectivity:max_edge_disjoint", "connectivity:max_vertex_disjoint")
    oracle = ("oracle:oracle_lc", "oracle:oracle_ac", "oracle:oracle_jc", "oracle:oracle_region")
    indexed_reports = calls("criticality:edge_records")
    return {
        "connectivity.flows": calls(*flows),
        "connectivity.flow_s": own(*flows),
        "connectivity.degree_calls": calls("connectivity:link_controllability", "connectivity:agent_controllability"),
        "connectivity.witness_s": own("connectivity:min_link_cut_witness", "connectivity:min_agent_cut_witness"),
        "criticality.edge_records_s": own("criticality:edge_records"),
        "criticality.agent_records_s": own("criticality:agent_records"),
        "criticality.agent_records_per_report": (
            calls("criticality:agent_records") / indexed_reports if indexed_reports else 0.0
        ),
        "joint.region_s": total("joint:joint_region"),
        "joint.rs_tests": calls("joint:is_joint_rs_controllable"),
        "joint.classify_s": own("joint:classify"),
        "joint.mixed_witness_s": own("joint:critical_agent_link_witness"),
        "digraph.graphs_built": calls("digraph:Digraph.__init__"),
        "digraph.build_s": own("digraph:Digraph.__init__"),
        "digraph.breaks_calls": calls("digraph:removal_breaks_controllability"),
        "digraph.reach_s": own("digraph:Digraph.reachable_from_roots"),
        "oracle.calls": calls(*oracle),
        "oracle.s": own(*oracle),
        "graphio.load_s": own("graphio:load_graph_file"),
        "report.build_s": own("report:build_report"),
        "report.render_s": own("report:render_text", "report:render_json"),
        "cli.main_s": total("cli:main"),
    }
