"""Benchmark of the ``robonet`` command over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of flow-sparse, region-dense, witness-mixed or small-batch.  The
script finds the repository from its own location and imports ``robonet``
from ``src/``.  An operation is one call of ``robonet.cli.main`` in this
process with its output captured; it fails on an exception or a nonzero exit
code.  Set-up (a fresh interpreter that imports robonet and writes the graph
files) is timed apart, several times, as ``setup_s``.  Every end-to-end time
is scaled to the machine's pace, measured with ``pace.kernel`` next to it.

With ``--trace 0`` the script runs whole passes over the workload's
operations for about S seconds and reports the end-to-end metrics.  With
``--trace 1`` it runs one plain pass and one pass with spans around the
calls into each layer, and reports the per-layer metrics and the tracing
overhead.  Every output of the first pass is checked; later passes must
repeat it byte for byte.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import pace
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_p95_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_report"):
        return "calls/report"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


@dataclass(frozen=True)
class Outcome:
    code: int | str  # exit code, or the name of the exception that escaped
    stdout: str
    seconds: float

    @property
    def failed(self) -> bool:
        return self.code != 0


@dataclass(frozen=True)
class Pass:
    outcomes: list[Outcome]
    wall: float  # the operations' wall times, summed
    cpu: float  # the operations' CPU times, summed
    pace: tuple[float, ...] = ()  # kernel times taken between the operations
    scale: float = 1.0  # pace.scale of the kernel times taken during and on both sides of the pass


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_op(cli, op: inputs.Op, path: str) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv(path))
    except SystemExit as exc:  # argparse rejected the arguments
        code = f"SystemExit({exc.code})"
    except Exception as exc:  # the command let an error escape: a failed operation
        code = type(exc).__name__
    return Outcome(code, out.getvalue(), time.perf_counter() - start)


def run_pass(cli, ops: list[inputs.Op], paths: dict[str, str], pace_every: float = math.inf) -> Pass:
    """Every operation once, in order.

    The pace kernel runs once after each operation that ends at least
    ``pace_every`` seconds after its last run; those times are kept in
    ``Pass.pace`` and left out of the pass's wall and CPU time.
    """
    outcomes, cpu, samples = [], 0.0, []
    last = time.perf_counter()
    for op in ops:
        start = cpu_seconds()
        outcomes.append(run_op(cli, op, paths[op.graph.name]))
        cpu += cpu_seconds() - start
        if time.perf_counter() - last >= pace_every:
            samples += pace.sample(1)
            last = time.perf_counter()
    return Pass(outcomes, sum(o.seconds for o in outcomes), cpu, tuple(samples))


def measure_setup(workload: str, seed: int, out: Path, repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter that imports robonet and writes the inputs.

    Returns the median of the scaled times and that of the measured ones.
    Each set-up is scaled by the pace samples taken before and after it.

    The wait blocks in ``waitpid``: ``subprocess.run(timeout=...)`` polls at
    up to 50 ms intervals, which would round every set-up time up to that
    grid.  A timer kills a set-up that hangs instead.
    """
    command = [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    times, samples = [], [pace.sample()]
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.DEVNULL) as child:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                code = child.wait()
            finally:
                watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
        samples.append(pace.sample())
    scaled = [t * pace.scale(a + b) for t, a, b in zip(times, samples, samples[1:])]
    return statistics.median(scaled), statistics.median(times)


def timed_passes(cli, ops, paths, seconds: float) -> list[Pass]:
    """Whole passes until another one would overrun the run length (at least one).

    The pace kernel runs before the first pass, between operations and
    after each pass, and each pass is scaled by the samples taken during
    it and on both sides of it.
    """
    start = time.perf_counter()
    before = pace.sample()
    passes: list[Pass] = []
    while not passes or time.perf_counter() - start + statistics.median(p.wall for p in passes) <= seconds:
        done = run_pass(cli, ops, paths, pace.EVERY_S)
        after = pace.sample()
        passes.append(dataclasses.replace(done, scale=pace.scale([*before, *done.pace, *after])))
        before = after
    return passes


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations = [o.seconds * p.scale for p in passes for o in p.outcomes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu * p.scale for p in passes),
        "op_p50_s": statistics.median(durations),
        "op_p95_s": statistics.quantiles(durations, n=20, method="inclusive")[18],
        "peak_rss_mb": peak_rss_mb,
    }


def traced_passes(cli, ops, paths) -> tuple[list[Pass], dict[str, float], dict]:
    plain = run_pass(cli, ops, paths)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, ops, paths)
    finally:
        tracer.remove()
    if tracer.missing:
        print(f"not traced (gone from robonet): {', '.join(tracer.missing)}", file=sys.stderr)
    totals = tracer.totals()
    metrics = spans.layer_metrics(totals)
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    return [plain, traced], metrics, totals


def check_outputs(ops: list[inputs.Op], passes: list[Pass]) -> list[str]:
    """Check every successful output of the first pass; later passes must repeat it."""
    problems = []
    degrees: dict[str, tuple[int, int]] = {}
    first = passes[0].outcomes
    for op, outcome in zip(ops, first):
        if outcome.failed:
            continue
        if op.graph.name not in degrees:
            degrees[op.graph.name] = checks.expected_degrees(op.graph)
        try:
            checks.check_op(op, outcome.stdout, degrees[op.graph.name])
        except Exception as exc:  # a malformed output fails its check like a wrong one
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
    for later in passes[1:]:
        for op, a, b in zip(ops, first, later.outcomes):
            if (a.code, a.stdout) != (b.code, b.stdout):
                problems.append(f"{op.label}: output differs between passes")
    return problems


def print_summary(args, ops, passes, metrics, units, totals, problems) -> None:
    outcomes = [o for p in passes for o in p.outcomes]
    failed = {op.label: o.code for p in passes for op, o in zip(ops, p.outcomes) if o.failed}
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  operations per pass {len(ops)}")
    print("  pass wall s, measured: " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("  pass scale:            " + " ".join(f"{p.scale:.3f}" for p in passes))
    if totals:
        print(f"  {'span':<44}{'calls':>10}{'total s':>12}{'self s':>12}")
        for name, (calls, total, own) in sorted(totals.items()):
            print(f"  {name:<44}{calls:>10}{total:>12.4f}{own:>12.4f}")
    for name, value in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<40}{shown} {units[name]}")
    print(f"  attempted {len(outcomes)}  failed {sum(o.failed for o in outcomes)}")
    for label, code in failed.items():
        print(f"  failed: {label}: {code}")
    for problem in problems:
        print(f"  WRONG: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the robonet command.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robonet" / "__init__.py").is_file():
        print(f"error: no robonet sources under {SRC}", file=sys.stderr)
        return 2
    # The budget variable selects which mixed-witness algorithm runs.
    os.environ.pop("ROBONET_BUDGET", None)
    sys.path.insert(0, str(SRC))
    from robonet import cli

    ops = inputs.workload_ops(args.workload, args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        setup_s, setup_measured_s = measure_setup(args.workload, args.seed, workdir, 1 if args.trace else SETUP_REPEATS)
        paths = {}
        for name, g in inputs.workload_graphs(ops).items():
            path = workdir / f"{name}.json"
            if path.read_text(encoding="utf-8") != g.canonical_json():
                print(f"error: set-up wrote an unexpected {path.name}", file=sys.stderr)
                return 2
            paths[name] = str(path)
        if args.trace:
            passes, metrics, totals = traced_passes(cli, ops, paths)
            units = {name: layer_unit(name) for name in metrics}
        else:
            passes = timed_passes(cli, ops, paths, args.seconds)
            metrics, totals = end_to_end(passes, setup_s), {}
            units = END_TO_END_UNITS
        problems = check_outputs(ops, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_summary(args, ops, passes, metrics, units, totals, problems)
    print(f"  set-up s: {setup_s:.4f} scaled, {setup_measured_s:.4f} measured")
    outcomes = [o for p in passes for o in p.outcomes]
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
