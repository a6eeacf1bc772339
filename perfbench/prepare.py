"""Set-up step of one benchmark run, timed from a fresh interpreter.

Imports ``robonet`` the way the ``robonet`` command does, then writes every
input graph of the workload as a canonical JSON file into the output
directory.  ``run.py`` starts this script several times per run and reports
the median wall time as ``setup_s``.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import robonet.cli  # noqa: F401  (the import a user of the command pays for)

    import inputs

    out = Path(args.out)
    for name, g in inputs.workload_graphs(inputs.workload_ops(args.workload, args.seed)).items():
        (out / f"{name}.json").write_text(g.canonical_json(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
