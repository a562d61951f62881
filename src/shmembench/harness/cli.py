"""Command-line driver: parse a config, run it, emit results and a report.

Exit codes: 0 success, 1 ground-truth report failures, 2 configuration or
usage error, 3 simulation deadlock.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from ..pgas import DeadlockError
from .config import MEASUREMENT_TYPES, ConfigError, check_seed, parse_config
from .runner import FORMATS, emit_results, ground_truth_report, run_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmembench",
        description="Simulated one-sided-communication benchmark driver")
    parser.add_argument("--config", help="path to the benchmark config file")
    parser.add_argument("--output", help="write results here instead of stdout")
    parser.add_argument("--format", choices=FORMATS,
                        help="result format (default: config, then csv)")
    parser.add_argument("--seed", type=int,
                        help="override the config's base seed (u64)")
    parser.add_argument("--report", action="store_true",
                        help="print the ground-truth comparison report")
    parser.add_argument("--list", action="store_true",
                        help="list available measurement types and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list:
        print("\n".join(sorted(MEASUREMENT_TYPES)))
        return 0
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            if args.seed is not None:
                check_seed(args.seed, "--seed")
            # an unwritable output path is a usage error, found before
            # anything runs
            out = (stack.enter_context(open(args.output, "w",
                                            encoding="utf-8"))
                   if args.output else sys.stdout)
        except (OSError, UnicodeDecodeError, ConfigError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        try:
            rows = run_config(cfg, seed=args.seed)
        except DeadlockError as e:
            print(f"error: simulation deadlock: {e}", file=sys.stderr)
            return 3
        out.write(emit_results(rows, args.format or cfg.out_format))

    if args.report:
        report, failures = ground_truth_report(rows, cfg.tolerance)
        sys.stdout.write(report)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
