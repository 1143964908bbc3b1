"""Command-line front end.

    plasmon-cqed run <config.json> [--out DIR] [--verify]

Exit codes: 0 success, 2 configuration/schema violation (message names the
field path), 3 numerical failure (message names the failing stage).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import PlasmonCqedError, SchemaError
from .scenario import load_scenario
from .tasks import run_scenario

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="plasmon-cqed",
        description="Emitter-nanoparticle effective-Hamiltonian simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a scenario configuration")
    run.add_argument("config", help="path to the scenario JSON file")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--verify", action="store_true",
                     help="run the independent-oracle check suite first")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
    except SchemaError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    if args.verify:
        from .verify import run_all

        failed = [r.name for r in run_all() if not r.passed]
        if failed:
            print(f"verification suite failed: {', '.join(failed)}",
                  file=sys.stderr)
            return EXIT_NUMERICAL

    try:
        writer = run_scenario(scenario, out_dir=args.out)
    except SchemaError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PlasmonCqedError as exc:
        print(f"numerical failure in task {scenario.task!r}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"task {scenario.task!r} wrote {len(writer.files)} files "
          f"to {writer.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
