"""Command line entry points.

    covlab simulate   one replicate's world, written as microdata files
    covlab estimate   coverage estimates from a microdata directory
    covlab experiment Monte Carlo run from a config file
    covlab validate   schema and consistency check of a microdata directory
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, get_args

from .errors import (
    ConfigError,
    CoverageLabError,
    DegenerateInputs,
    DomainError,
    MissingField,
    SchemaError,
    ValidationError,
)
from .estimators import F30Placement, Procedure, fcode_estimate, mover_ratio, net_undercount
from .harness.config import ExperimentConfig, load_config
from .harness.experiment import build_world, run_experiment
from .harness.ingest import ingest_microdata, write_microdata
from .popsim import FileLevel, ground_truth_ledger


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covlab",
        description="Census coverage-error estimation from capture-recapture surveys.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="simulate and match one world")
    simulate.add_argument("--config", help="experiment config JSON; defaults apply if omitted")
    simulate.add_argument("--seed", type=int, help="override the config base seed")
    simulate.add_argument("--replicate", type=int, default=0, help="replicate index (default 0)")
    simulate.add_argument("--out", required=True, help="directory for the microdata files")

    estimate = sub.add_parser("estimate", help="estimate coverage from microdata files")
    estimate.add_argument("--in", dest="in_dir", required=True, help="microdata directory")
    estimate.add_argument(
        "--level", choices=get_args(FileLevel), default="national",
        help="estimation grouping (default national)",
    )
    estimate.add_argument(
        "--procedure", action="append", choices=[p.value for p in Procedure],
        help="mover procedure, repeatable (default: a and c; b needs simulated matching)",
    )
    estimate.add_argument(
        "--f30", action="append", choices=[p.value for p in F30Placement], dest="placements",
        help="f30 placement for the code-tally estimator, repeatable (default: all three)",
    )
    estimate.add_argument("--out", help="write the JSON report here instead of stdout")

    experiment = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    experiment.add_argument("--config", help="experiment config JSON; defaults apply if omitted")
    experiment.add_argument("--seed", type=int, help="override the config base seed")
    experiment.add_argument("--replicates", type=int, help="override the replicate count")
    experiment.add_argument(
        "--workers", type=int,
        help="override the worker count: replicates run on at most this many threads, and on "
             "no more threads than there are replicates or usable CPUs",
    )
    experiment.add_argument("--out", required=True, help="output directory")

    validate = sub.add_parser("validate", help="validate a microdata directory")
    validate.add_argument("--in", dest="in_dir", required=True, help="microdata directory")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    flags = {"base_seed": "seed", "replicates": "replicates", "workers": "workers"}
    overrides = {key: getattr(args, flag) for key, flag in flags.items()
                 if getattr(args, flag, None) is not None}
    return dataclasses.replace(config, **overrides)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    os.makedirs(args.out, exist_ok=True)  # a bad --out fails before the world is built
    bundle = build_world(config, args.replicate)
    write_microdata(
        args.out, bundle.pop, bundle.census, bundle.pes, bundle.result,
        bundle.household_weight,
    )
    truth = ground_truth_ledger(bundle.pop, bundle.census, "national")["all"]
    report = {
        "name": config.name,
        "replicate": args.replicate,
        "out": args.out,
        "code_counts": bundle.result.code_counts(),
        "truth": {
            "true_total": truth.true_total,
            "census_count": truth.census_count,
            "undercount": truth.undercount,
            "overcount": truth.overcount,
        },
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _estimate_entry(estimate: Callable[[], float], census_count: float) -> dict[str, object]:
    """One estimator's report entry: its value and net undercount, or why
    it has none."""
    try:
        value = estimate()
    except MissingField:
        return {"error": "in-mover matching is not recorded in microdata files"}
    except DegenerateInputs as exc:
        return {"error": str(exc)}
    try:
        summary = net_undercount(value, census_count)
    except DomainError as exc:
        return {"error": str(exc)}
    return {
        "estimate": value,
        "net_undercount": summary.net_undercount,
        "percent_undercount": summary.percent_undercount,
    }


def _cmd_estimate(args: argparse.Namespace) -> int:
    tallies = ingest_microdata(args.in_dir, level=args.level)
    procedures = args.procedure or ["a", "c"]
    placements = args.placements or [p.value for p in F30Placement]

    groups: dict[str, dict] = {}
    for label, tally in tallies.items():
        estimates: dict[str, dict[str, object]] = {}
        for procedure in procedures:
            estimates[f"procedure_{procedure}"] = _estimate_entry(
                lambda: tally.census_correct() * mover_ratio(tally.movers, procedure),
                tally.census_count,
            )
        for placement in placements:
            estimates[f"fcode_{placement}"] = _estimate_entry(
                lambda: fcode_estimate(tally.fcode, placement), tally.census_count
            )
        groups[label] = {
            "census_count": tally.census_count,
            "census_correct": tally.census_correct(),
            "estimates": estimates,
        }

    report = json.dumps({"level": args.level, "groups": groups}, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_experiment(config, out_dir=args.out)
    national = result.summary["groups"].get("national", {}).get("all", {})
    print(f"{config.name}: {config.replicates} replicates -> {args.out}")
    for estimator in sorted(national):
        entry = national[estimator]
        if entry.get("valid"):
            print(
                f"  {estimator:<18} mean {entry['mean']:.2f}"
                f"  bias {entry['bias']:+.2f}"
                f"  valid {entry['valid']}/{entry['replicates']}"
            )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        tallies = ingest_microdata(args.in_dir, level="national")
    except ValidationError as exc:
        print(f"invalid: {len(exc.issues)} issue(s)", file=sys.stderr)
        for issue in exc.issues:
            print(f"  - {issue}", file=sys.stderr)
        return 2
    total = sum(t.census_count for t in tallies.values())
    print(f"ok: {len(tallies)} group(s), census count {total:g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    # Every path the commands open is named on the command line, so an
    # OSError is the user's input error, not a fault of the program.
    except (ConfigError, SchemaError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoverageLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
