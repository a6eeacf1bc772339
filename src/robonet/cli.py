"""Command-line front end.

Commands: ``generate`` (family instances), ``analyze`` (full report),
``verify`` (fast path against the brute-force oracle), ``export-region``
(CSV of the joint region).  Exit codes are a stable contract: 0 success,
2 input error, 3 enumeration budget exhausted, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import csv
import sys

from . import oracle
from .budget import DEFAULT_SUBSET_BUDGET, ENV_VAR, resolve_budget
from .connectivity import agent_controllability, link_controllability
from .errors import GraphValidationError, InstanceTooLargeError, RobonetError
from .families import PRESET_KINDS, FamilySpec, build
from .graphio import dumps_json_graph, load_graph_file
from .joint import joint_controllability, joint_controllability_via_duplicate, joint_region
from .report import SECTIONS, build_report, render_json, render_text

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robonet",
        description="Robustness analysis of rooted information-flow digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a family instance to a graph file")
    gen.add_argument(
        "kind",
        choices=("complete", "kautz", "circulant") + tuple(k.replace("_", "-") for k in PRESET_KINDS),
    )
    gen.add_argument("--n", type=int, default=0, help="vertex count")
    gen.add_argument("--d", type=int, default=0, help="Kautz degree")
    gen.add_argument("--kappa", type=int, default=0, help="Kautz exponent")
    gen.add_argument("--b", default="", help="circulant connection set, e.g. 2,3,5")
    gen.add_argument("--root", type=int, default=1)
    gen.add_argument("--out", required=True, help="output path (canonical JSON)")

    ana = sub.add_parser("analyze", help="analyze a graph file")
    ana.add_argument("input")
    for section in SECTIONS:
        ana.add_argument(f"--{section}", action="store_true", help=f"include the {section} section")
    ana.add_argument("--json", action="store_true", help="emit JSON instead of text")
    ana.add_argument("--out", help="write the report to a file instead of stdout")
    ana.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect (the analysis runs in one thread)",
    )
    ana.add_argument("--budget", type=int, help=f"subset budget (default {DEFAULT_SUBSET_BUDGET}, env {ENV_VAR})")
    ana.add_argument("--strip-self-loops", action="store_true")

    ver = sub.add_parser("verify", help="cross-check the fast path against the oracle")
    ver.add_argument("input")
    ver.add_argument("--budget", type=int)
    ver.add_argument("--skip-region", action="store_true", help="compare degrees only")
    ver.add_argument("--strip-self-loops", action="store_true")

    exp = sub.add_parser("export-region", help="write the joint region as CSV")
    exp.add_argument("input")
    exp.add_argument("--out", required=True)
    exp.add_argument("--budget", type=int)
    exp.add_argument("--strip-self-loops", action="store_true")
    return parser


def _family_spec(args: argparse.Namespace) -> FamilySpec:
    offsets = tuple(int(x) for x in args.b.split(",") if x.strip()) if args.b else ()
    return FamilySpec(
        kind=args.kind.replace("-", "_"),
        n=args.n,
        d=args.d,
        kappa=args.kappa,
        b_set=offsets,
        root=args.root,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    g = build(_family_spec(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(dumps_json_graph(g))
    print(f"{args.kind}: n={g.n} edges={len(g.edges)} -> {args.out}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    budget = resolve_budget(args.budget)
    g = load_graph_file(args.input, strip_self_loops=args.strip_self_loops)
    picked = tuple(s for s in SECTIONS if getattr(args, s))
    doc = build_report(g, sections=picked or None, budget=budget)
    text = render_json(doc) if args.json else render_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if doc["budget"]["exhausted_sections"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    subset_budget = resolve_budget(args.budget)
    g = load_graph_file(args.input, strip_self_loops=args.strip_self_loops)
    budget = oracle.OracleBudget(max_subset_candidates=subset_budget)
    rows = [
        ("lc", link_controllability(g), oracle.oracle_lc(g, budget)),
        ("ac", agent_controllability(g), oracle.oracle_ac(g, budget)),
    ]
    slow_jc = oracle.oracle_jc(g, budget)
    rows += [
        ("jc", joint_controllability(g), slow_jc),
        ("jc(duplicate)", joint_controllability_via_duplicate(g), slow_jc),
    ]
    mismatch = False
    print("quantity        fast  oracle")
    for name, fast, slow in rows:
        marker = "" if fast == slow else "  <- MISMATCH"
        mismatch = mismatch or fast != slow
        print(f"{name:<15} {fast:>4}  {slow:>6}{marker}")
    if not args.skip_region and g.is_controllable():
        fast_region = joint_region(g, budget=subset_budget).members
        slow_region = oracle.oracle_region(g, budget)
        ok = fast_region == slow_region
        mismatch = mismatch or not ok
        print(f"region          {len(fast_region):>4}  {len(slow_region):>6}"
              + ("" if ok else "  <- MISMATCH"))
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_export_region(args: argparse.Namespace) -> int:
    budget = resolve_budget(args.budget)
    g = load_graph_file(args.input, strip_self_loops=args.strip_self_loops)
    region = joint_region(g, budget=budget)
    members = set(region.members)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["r", "s", "member"])
        for r in range(region.lc + 1):
            for s in range(region.ac + 1):
                writer.writerow([r, s, 1 if (r, s) in members else 0])
    print(f"region of {args.input}: {len(members)} member pairs -> {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "export-region": _cmd_export_region,
    }
    try:
        return handlers[args.command](args)
    except InstanceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphValidationError, RobonetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
