"""Monte Carlo driver: worlds in, estimate tables out.

Replicate k derives five independent seed streams from
SeedSequence(base_seed, spawn_key=(k,)), one per stage (population,
census, survey, matching, sampling), so any stage can be varied while the
others stay frozen.  Replicates are independent, run in a thread pool when
asked, and collected in index order; outputs carry no timestamps, so a
rerun of the same config is byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import AtLeast0, DegenerateInputs, MissingField, check_value
from ..estimators import fcode_estimate, mover_ratio
from ..matching import MatchResult, match_and_code, record_table, tally_groups
from ..popsim import (
    CaptureProbabilities,
    CensusSim,
    PesSim,
    Population,
    ground_truth_ledger,
    simulate_census,
    simulate_pes,
    synthesize_population,
)
from ..sampling import DistrictFrame, SampleSpec, draw_sample
from .config import ExperimentConfig

__all__ = [
    "EstimateRow",
    "WorldBundle",
    "ExperimentResult",
    "build_world",
    "run_replicate",
    "run_experiment",
    "summarize",
    "write_replicates_csv",
    "write_summary_json",
    "write_summary_text",
]


@dataclass(frozen=True)
class EstimateRow:
    """One estimator applied to one group in one replicate."""

    replicate: int
    level: str
    group: str
    estimator: str
    estimate: float
    true_total: float
    census_count: float


@dataclass(frozen=True)
class WorldBundle:
    """One replicate's fully simulated and matched world."""

    pop: Population
    census: CensusSim
    pes: PesSim
    result: MatchResult
    household_weight: np.ndarray | None


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[EstimateRow]
    summary: dict[str, Any]


def _draw_household_sample(
    pop: Population,
    spec: SampleSpec,
    seed: np.random.SeedSequence,
) -> tuple[np.ndarray, np.ndarray]:
    districts = pop.districts
    frame = DistrictFrame.from_households(
        pop.households.district, districts.province, districts.stratum, districts.province_labels
    )
    sample = draw_sample(frame, spec, seed)
    weight = np.zeros(pop.households.count, dtype=np.float64)
    weight[sample.households] = sample.weight
    # Every sampled household's weight is at least 1.
    return weight > 0, weight


def build_world(config: ExperimentConfig, replicate: int) -> WorldBundle:
    check_value("replicate", replicate, AtLeast0[int])
    root = np.random.SeedSequence(config.base_seed, spawn_key=(replicate,))
    s_pop, s_census, s_pes, s_match, s_sample = root.spawn(5)

    pop = synthesize_population(config.population, s_pop)
    probs = CaptureProbabilities(
        census=config.capture_census, pes=config.capture_pes,
        dependence=config.dependence, heterogeneity=config.heterogeneity,
    )
    census = simulate_census(
        pop,
        probs,
        ee_rate=config.ee_rate,
        ii_rate=config.ii_rate,
        seed=s_census,
        listed_nonresponse_rate=config.listed_nonresponse_rate,
    )
    pes = simulate_pes(
        pop,
        census,
        probs,
        seed=s_pes,
        proxy_miss=config.proxy_miss,
        absent_rate=config.absent_rate,
        unlisted_rate=config.unlisted_rate,
    )
    mask = None
    weight = None
    if config.sample is not None:
        mask, weight = _draw_household_sample(pop, config.sample, s_sample)
    result = match_and_code(
        pop,
        census,
        pes,
        error_model=config.errors,
        seed=s_match,
        exclusion_mode=config.exclusion_mode,
        household_mask=mask,
    )
    return WorldBundle(pop=pop, census=census, pes=pes, result=result, household_weight=weight)


def run_replicate(config: ExperimentConfig, replicate: int) -> list[EstimateRow]:
    bundle = build_world(config, replicate)
    table = record_table(bundle.pop, bundle.census, bundle.result, bundle.household_weight)
    rows: list[EstimateRow] = []
    for level in config.grouping:
        tallies = tally_groups(
            bundle.pop,
            bundle.census,
            bundle.result,
            level=level,
            with_in_mover_matching=config.with_in_mover_matching,
            table=table,
        )
        truth = ground_truth_ledger(bundle.pop, bundle.census, level)
        for label, tally in tallies.items():
            ledger = truth[label]
            correct = tally.census_correct()
            for procedure in config.procedures:
                try:
                    estimate = correct * mover_ratio(tally.movers, procedure)
                except (DegenerateInputs, MissingField):
                    estimate = math.nan
                rows.append(
                    EstimateRow(
                        replicate=replicate,
                        level=level,
                        group=label,
                        estimator=f"procedure_{procedure}",
                        estimate=estimate,
                        true_total=ledger.true_total,
                        census_count=ledger.census_count,
                    )
                )
            for placement in config.f30_placements:
                try:
                    estimate = fcode_estimate(tally.fcode, placement)
                except DegenerateInputs:
                    estimate = math.nan
                rows.append(
                    EstimateRow(
                        replicate=replicate,
                        level=level,
                        group=label,
                        estimator=f"fcode_{placement}",
                        estimate=estimate,
                        true_total=ledger.true_total,
                        census_count=ledger.census_count,
                    )
                )
    return rows


def summarize(config: ExperimentConfig, rows: list[EstimateRow]) -> dict[str, Any]:
    """Per-(level, group, estimator) moments of the replicate estimates."""
    buckets: dict[tuple[str, str, str], list[EstimateRow]] = {}
    for row in rows:
        buckets.setdefault((row.level, row.group, row.estimator), []).append(row)

    groups: dict[str, Any] = {}
    for (level, group, estimator), bucket in sorted(buckets.items()):
        valid = [r for r in bucket if math.isfinite(r.estimate)]
        entry: dict[str, Any] = {"replicates": len(bucket), "valid": len(valid)}
        if valid:
            estimates = [r.estimate for r in valid]
            diffs = [r.estimate - r.true_total for r in valid]
            n = len(valid)
            mean = sum(estimates) / n
            true_mean = sum(r.true_total for r in valid) / n
            bias = sum(diffs) / n
            if n > 1:
                var = sum((e - mean) ** 2 for e in estimates) / (n - 1)
                sd = math.sqrt(var)
                mc_se = sd / math.sqrt(n)
            else:
                sd = None
                mc_se = None
            entry.update(
                {
                    "mean": mean,
                    "sd": sd,
                    "mc_se": mc_se,
                    "true_mean": true_mean,
                    "bias": bias,
                    "relative_bias": bias / true_mean if true_mean else None,
                    "rmse": math.sqrt(sum(d * d for d in diffs) / n),
                }
            )
        groups.setdefault(level, {}).setdefault(group, {})[estimator] = entry

    return {
        "schema_version": 1,
        "name": config.name,
        "base_seed": config.base_seed,
        "replicates": config.replicates,
        "config": config.to_json(),
        "groups": groups,
    }


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Run every replicate, summarize, and optionally write the artifacts.

    Replicate seeds depend only on (base_seed, replicate index), and results
    are collected in index order, so the output is invariant to `workers`.
    Replicates run on `workers` threads at most, and on no more threads
    than there are replicates or CPUs this process may use.  `out_dir` is
    created before the first replicate, so a path that cannot hold the
    artifacts fails before any work is done.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    threads = min(config.workers, config.replicates, _usable_cpus())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_replicate = list(
                pool.map(lambda k: run_replicate(config, k), range(config.replicates))
            )
    else:
        per_replicate = [run_replicate(config, k) for k in range(config.replicates)]
    rows = [row for chunk in per_replicate for row in chunk]
    summary = summarize(config, rows)

    if out_dir is not None:
        write_replicates_csv(rows, os.path.join(out_dir, "replicates.csv"))
        write_summary_json(summary, os.path.join(out_dir, "summary.json"))
        write_summary_text(summary, os.path.join(out_dir, "summary.txt"))
    return ExperimentResult(rows=rows, summary=summary)


def write_replicates_csv(rows: list[EstimateRow], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["replicate", "level", "group", "estimator", "estimate", "true_total", "census_count"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.replicate,
                    row.level,
                    row.group,
                    row.estimator,
                    repr(row.estimate),
                    repr(row.true_total),
                    repr(row.census_count),
                ]
            )


def write_summary_json(summary: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_summary_text(summary: dict[str, Any], path: str) -> None:
    lines = [f"{summary['name']}: {summary['replicates']} replicates, seed {summary['base_seed']}"]
    for level in sorted(summary["groups"]):
        for group in sorted(summary["groups"][level]):
            lines.append(f"[{level}] {group}")
            entries = summary["groups"][level][group]
            for estimator in sorted(entries):
                entry = entries[estimator]
                if not entry.get("valid"):
                    lines.append(
                        f"  {estimator:<18} no valid replicates (0/{entry['replicates']})"
                    )
                    continue
                line = f"  {estimator:<18} mean {entry['mean']:.3f}"
                if entry["sd"] is not None:
                    line += f"  sd {entry['sd']:.3f}"
                line += f"  bias {entry['bias']:+.3f}"
                if entry["relative_bias"] is not None:
                    line += f" ({100 * entry['relative_bias']:+.3f}%)"
                line += f"  valid {entry['valid']}/{entry['replicates']}"
                lines.append(line)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
