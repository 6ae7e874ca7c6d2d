"""Command-line entry point: ``vsmhl run --config <path> [options]``.

The config file says what to compute; --output-dir says where the CSV and
summary go, and is not recorded in them.

Exit codes: 0 on success, 2 on a config that cannot be read or fails
validation, a --threads below 1 or an output directory that cannot be
written, 3 when --assert is given and the experiment's pass criterion fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigurationError, ValidationError
from .experiments import ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vsmhl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON experiment config")
    run.add_argument("--output-dir", default="vsmhl_out", help="directory for the CSV and summary")
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes: replications fan out over them; pde_check forks one solver worker at 2 or "
        "more and nothing at 1",
    )
    run.add_argument(
        "--assert",
        dest="assert_pass",
        action="store_true",
        help="exit 3 when the experiment's acceptance threshold fails",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not JSON or not UTF-8
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = ExperimentConfig.from_dict(spec)
        result = run_experiment(cfg, out_dir=args.output_dir, threads=args.threads)
    except (ValidationError, ConfigurationError) as exc:
        for violation in exc.args:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    status = "PASS" if result.passed else "FAIL"
    print(f"{cfg.experiment}: {status} ({len(result.rows)} rows -> {args.output_dir})")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    if args.assert_pass and not result.passed:
        return EXIT_ASSERT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
