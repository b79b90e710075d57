"""Command-line front end for the experiment harness.

Subcommands:
    gen            write each trial's operator as JSON plus a manifest
    invert         inverse-closedness experiment (report + envelope CSVs)
    wiener         scalar symbol inversion with weighted partial sums
    kernel         blocking isometry / integral-kernel consistency run
    verify-report  re-derive a report's derivable content, list mismatches

Exit codes: 0 success; 2 bad usage or configuration; 3 every trial
failed numerically; 4 report verification found mismatches.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .harness import (
    ConfigError,
    ExperimentConfig,
    run_gen,
    run_inverse_closedness,
    run_kernel,
    run_wiener,
    verify_report,
)

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3
_EXIT_VERIFY = 4


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument("--trials", type=int, default=None, help="override trial count")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="csv: sidecar tables next to report.json; "
                          "json: tables embedded in the report")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="decayalg",
        description="experiments on convolution-dominated operators "
                    "with nuclear blocks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("gen", "generate trial operators"),
        ("invert", "run the inverse-closedness experiment"),
        ("wiener", "invert a scalar symbol on the torus"),
        ("kernel", "run the blocking/kernel consistency experiment"),
    ):
        _add_run_flags(subs.add_parser(name, help=text))
    verify = subs.add_parser("verify-report", help="re-check a report's invariants")
    verify.add_argument("report", help="path to a report.json")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _experiment_config(args) -> ExperimentConfig:
    obj = _load_json(args.config)
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.trials is not None:
        obj["trials"] = args.trials
    return ExperimentConfig.from_json(obj)


def _run_report_command(args) -> int:
    if args.command == "wiener":
        obj = _load_json(args.config)
        if args.seed is not None:
            obj["seed"] = args.seed
        report = run_wiener(obj, out_dir=args.out, fmt=args.format)
        return _EXIT_NUMERICAL if "error" in report else _EXIT_OK
    cfg = _experiment_config(args)
    runner = {
        "gen": run_gen,
        "invert": run_inverse_closedness,
        "kernel": run_kernel,
    }[args.command]
    report = runner(cfg, out_dir=args.out, fmt=args.format)
    records = report.get("records", [])
    failed = [r for r in records if "error" in r]
    if records and len(failed) == len(records):
        for rec in failed:
            print(f"trial {rec.get('trial')}: {rec['error']}", file=sys.stderr)
        return _EXIT_NUMERICAL
    return _EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify-report":
        problems = verify_report(args.report)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return _EXIT_VERIFY
        print("report verified")
        return _EXIT_OK
    try:
        return _run_report_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
