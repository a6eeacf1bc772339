"""Digests of the ``robonet`` command's output, to show that a change keeps its bytes.

Runs :func:`robonet.cli.main` in process on fixed input sets and prints one
line per set: the sha256 of the exit code, stdout and stderr of each call
in the set, in order, then the number of flows the set ran (calls of
``robonet.connectivity._Flow.max_flow``), then the set's name.  So one diff
shows both the bytes and the work.  The sets are

- ``analyze`` as text, ``analyze --json``, ``analyze --budget 1``,
  ``analyze --classify`` (the classification without the report's region),
  ``analyze --classify --budget 5`` and ``verify``, each on the seeded
  500-graph sweep of ``tests/conftest.py`` and on a list of family graphs;
- every operation of each of the four benchmark workloads at seeds 1-3,
  from ``perfbench/inputs.py`` (imported, never changed).

``robonet``, the sweep and the workloads are imported from the checkout
named on the command line, by default the one holding this script, and
the flow count wraps that checkout's ``_Flow``, so two checkouts compare
like this:

    python tools/report_digest.py > after.txt
    python tools/report_digest.py ../parent > before.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import sys
import tempfile
from pathlib import Path

MODES = (
    ("analyze",),
    ("analyze", "--json"),
    ("analyze", "--budget", "1"),
    ("analyze", "--classify"),
    ("analyze", "--classify", "--budget", "5"),
    ("verify",),
)

# family graphs: (name, generator in robonet.families, arguments)
FAMILIES = (
    ("g4", "circulant_rooted", (6, (2, 3, 5))),
    ("simple-loop5", "preset", ("simple_loop", 5)),
    ("double-loop5", "preset", ("double_loop", 5)),
    ("daisy-chain5", "preset", ("daisy_chain", 5)),
    ("complete5", "complete_rooted", (5,)),
    ("kautz2-2", "kautz_rooted", (2, 2)),
    ("kautz2-3", "kautz_rooted", (2, 3)),
    ("circulant12", "circulant_rooted", (12, (1, 2, 3))),
)


def _call(main, argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process call, as bytes."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # an error escaped the command
        code = type(exc).__name__
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def _digest(main, calls) -> str:
    h = hashlib.sha256()
    for argv in calls:
        h.update(_call(main, argv))
    return h.hexdigest()


def _counting(cls, name: str) -> list[int]:
    """Count the calls of the method ``cls.name`` from now on, in the returned one-item list."""
    method = getattr(cls, name)
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return method(*args, **kwargs)

    setattr(cls, name, counted)
    return count


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
    root = parser.parse_args(argv).checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    cli = importlib.import_module("robonet.cli")
    families = importlib.import_module("robonet.families")
    dumps_json_graph = importlib.import_module("robonet.graphio").dumps_json_graph
    seeded_sweep = importlib.import_module("conftest").seeded_sweep
    inputs = importlib.import_module("inputs")  # perfbench/inputs.py
    flows = _counting(importlib.import_module("robonet.connectivity")._Flow, "max_flow")

    def show(calls, name: str) -> None:
        flows[0] = 0
        digest = _digest(cli.main, calls)
        print(digest, f"{flows[0]:>9}", name, flush=True)

    os.environ.pop("ROBONET_BUDGET", None)  # the default budget, whatever the shell sets
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        directory = Path(tmp)
        graph_sets = {
            "sweep": [_write(directory, f"sweep{seed}", dumps_json_graph(g)) for seed, g in seeded_sweep(500)],
            "families": [
                _write(directory, name, dumps_json_graph(getattr(families, make)(*args)))
                for name, make, args in FAMILIES
            ],
        }
        for set_name, paths in graph_sets.items():
            for command, *flags in MODES:
                calls = ([command, path, *flags] for path in paths)
                show(calls, " ".join([set_name + ":", command, *flags]))
        for workload in inputs.WORKLOADS:
            for seed in (1, 2, 3):
                ops = inputs.workload_ops(workload, seed)
                paths = {
                    name: _write(directory, f"{workload}-{seed}-{name}", g.canonical_json())
                    for name, g in inputs.workload_graphs(ops).items()
                }
                calls = (op.argv(paths[op.graph.name]) for op in ops)
                show(calls, f"{workload} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
