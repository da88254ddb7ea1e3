"""Output checks.  Each returns the problems it found; an empty list passes.

Monte Carlo batches, at every seed: every (level, group, estimator) summary
entry covers every replicate, and the moments in summary.json equal the
moments recomputed here from replicates.csv.  At the default seed, every row
of replicates.csv also equals the reference row recorded in
perfbench/reference.

Microdata worlds, at every seed: the estimates `covlab estimate` prints equal
the estimates computed from `tally_groups` on the same world, rebuilt with
`build_world` outside the timed region.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

from covlab.constants import REL_TOL_IDENTITY
from covlab.errors import DegenerateInputs, MissingField
from covlab.estimators import fcode_estimate, mover_ratio

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Known defect, counted as a failed round trip rather than hidden: ingest
# never applies the '#' household reweighting that the simulation path uses
# in adjusted exclusion mode, and the file schema carries no address type to
# rebuild it from.  A fix shows up as a lower failed count on
# microdata-roundtrip.
ADJUSTED_INGEST_DEFECT = "adjusted-ingest-skips-hash-reweighting"

Key = tuple[int, str, str, str]


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal within REL_TOL_IDENTITY of the larger magnitude; NaN equals NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL_IDENTITY * max(abs(a), abs(b), scale)


def read_replicates_csv(path: Path) -> dict[Key, tuple[float, float, float]]:
    """(replicate, level, group, estimator) -> (estimate, true_total, census_count)."""
    rows: dict[Key, tuple[float, float, float]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (int(row["replicate"]), row["level"], row["group"], row["estimator"])
            rows[key] = (
                float(row["estimate"]), float(row["true_total"]), float(row["census_count"]),
            )
    return rows


def load_reference(workload: str) -> dict[int, dict[Key, tuple[float, float, float]]]:
    """Reference rows per batch, or {} when none were recorded."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        int(batch): {
            (int(r[0]), r[1], r[2], r[3]): (float(r[4]), float(r[5]), float(r[6]))
            for r in rows
        }
        for batch, rows in data["batches"].items()
    }


def reference_mismatches(
    rows: dict[Key, tuple[float, float, float]],
    reference: dict[Key, tuple[float, float, float]],
) -> dict[int, str]:
    """Replicates whose rows differ from the reference, with one reason each."""
    bad: dict[int, str] = {}
    for key in sorted(set(rows) | set(reference)):
        if key not in rows or key not in reference:
            bad.setdefault(key[0], f"row {key} present on one side only")
            continue
        if not all(close(a, b) for a, b in zip(rows[key], reference[key])):
            bad.setdefault(key[0], f"row {key}: {rows[key]} != reference {reference[key]}")
    return bad


def _moments(values: list[tuple[float, float]]) -> dict[str, float | None]:
    """The moments summarize() reports, for (estimate, true_total) pairs."""
    valid = [(e, t) for e, t in values if math.isfinite(e)]
    out: dict[str, float | None] = {"replicates": len(values), "valid": len(valid)}
    if not valid:
        return out
    n = len(valid)
    mean = sum(e for e, _ in valid) / n
    true_mean = sum(t for _, t in valid) / n
    diffs = [e - t for e, t in valid]
    bias = sum(diffs) / n
    sd = math.sqrt(sum((e - mean) ** 2 for e, _ in valid) / (n - 1)) if n > 1 else None
    out.update(
        mean=mean,
        sd=sd,
        mc_se=sd / math.sqrt(n) if sd is not None else None,
        true_mean=true_mean,
        bias=bias,
        relative_bias=bias / true_mean if true_mean else None,
        rmse=math.sqrt(sum(d * d for d in diffs) / n),
    )
    return out


def summary_mismatches(
    summary: dict,
    rows: dict[Key, tuple[float, float, float]],
    replicates: int,
) -> list[str]:
    problems: list[str] = []
    seen = sorted({key[0] for key in rows})
    if seen != list(range(replicates)):
        problems.append(f"replicates.csv covers replicates {seen[:3]}... not 0..{replicates - 1}")
    buckets: dict[tuple[str, str, str], list[tuple[float, float]]] = {}
    for (_, level, group, estimator), (estimate, true_total, _) in sorted(rows.items()):
        buckets.setdefault((level, group, estimator), []).append((estimate, true_total))
    reported = {
        (level, group, estimator): entry
        for level, by_group in summary.get("groups", {}).items()
        for group, by_estimator in by_group.items()
        for estimator, entry in by_estimator.items()
    }
    if set(reported) != set(buckets):
        problems.append("summary.json and replicates.csv cover different estimator groups")
    for key in sorted(set(reported) & set(buckets)):
        expected = _moments(buckets[key])
        entry = reported[key]
        if entry.get("replicates") != replicates:
            problems.append(f"{key}: {entry.get('replicates')} replicates, expected {replicates}")
        scale = max(abs(expected.get("true_mean") or 0.0), abs(expected.get("mean") or 0.0))
        for name, value in expected.items():
            got = entry.get(name)
            if value is None or got is None or name in ("replicates", "valid"):
                ok = got == value
            elif name == "relative_bias":
                ok = close(got, value, scale / abs(expected["true_mean"]))
            else:
                ok = close(got, value, scale)
            if not ok:
                problems.append(f"{key} {name}: summary {got!r}, recomputed {value!r}")
    return problems


def _census_correct(tally) -> float:
    """(c - ii) * (1 - ee / ne), or c - ii without E-sample mass."""
    base = tally.census_count - tally.imputations
    if tally.e_sample == 0:
        return base
    return base * (1.0 - tally.erroneous / tally.e_sample)


def expected_estimates(bundle, level: str, result=None) -> dict[str, dict[str, float | None]]:
    """Per group: the estimates `covlab estimate` should print (None for an error)."""
    # Imported here so that the Monte Carlo checks keep working if this
    # name moves; the microdata check then reports the ImportError.
    from covlab.matching import tally_groups

    tallies = tally_groups(
        bundle.pop, bundle.census, bundle.result if result is None else result,
        level=level, household_weight=bundle.household_weight,
    )
    out: dict[str, dict[str, float | None]] = {}
    for label, tally in tallies.items():
        correct = _census_correct(tally)
        entry: dict[str, float | None] = {"census_count": tally.census_count}
        for procedure in ("a", "c"):
            try:
                entry[f"procedure_{procedure}"] = correct * mover_ratio(tally.movers, procedure)
            except (DegenerateInputs, MissingField):
                entry[f"procedure_{procedure}"] = None
        for placement in ("omitted", "numerator", "denominator"):
            try:
                entry[f"fcode_{placement}"] = fcode_estimate(tally.fcode, placement)
            except DegenerateInputs:
                entry[f"fcode_{placement}"] = None
        out[label] = entry
    return out


def estimate_mismatches(report: dict, expected: dict[str, dict[str, float | None]]) -> list[str]:
    problems: list[str] = []
    groups = report.get("groups", {})
    if set(groups) != set(expected):
        return [f"estimate groups {sorted(groups)} != expected {sorted(expected)}"]
    for label, wanted in expected.items():
        entry = groups[label]
        if entry.get("census_count") != wanted["census_count"]:
            problems.append(f"{label} census_count {entry.get('census_count')} "
                            f"!= {wanted['census_count']}")
        for name, value in wanted.items():
            if name == "census_count":
                continue
            got = entry.get("estimates", {}).get(name, {})
            if value is None:
                if "error" not in got:
                    problems.append(f"{label} {name}: expected an error, got {got}")
            elif "estimate" not in got or not close(got["estimate"], value):
                problems.append(f"{label} {name}: printed {got.get('estimate')!r}, "
                                f"tally_groups gives {value!r}")
    return problems


def classify_world(bundle, level: str, report: dict) -> tuple[list[str], str | None]:
    """Problems with one world's printed estimates, and the known defect that
    explains all of them, if one does."""
    problems = estimate_mismatches(report, expected_estimates(bundle, level))
    if not problems or bundle.result.exclusion_mode != "adjusted":
        return problems, None
    # The defect is exactly the missing '#' reweighting: without it, the
    # simulation path must agree with the files.
    plain = dataclasses.replace(bundle.result, exclusion_mode="sci")
    if not estimate_mismatches(report, expected_estimates(bundle, level, plain)):
        return problems, ADJUSTED_INGEST_DEFECT
    return problems, None
