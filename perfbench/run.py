#!/usr/bin/env python3
"""covlab benchmark: Monte Carlo throughput and microdata I/O, layer by layer.

    python3 perfbench/run.py --workload mc-clean-50k --seed 1 --seconds 30 --trace 0

Run from the root of a covlab checkout; the package is imported from src/.
Workloads are described in perfbench/workloads.py and perfbench/README.md.

With --trace 0 the run measures end-to-end metrics with no tracing.  With
--trace 1 it alternates untraced and traced passes over the same inputs and
reports per-layer metrics from the traced ones.  Every operation's output is
checked (perfbench/checks.py).  The next-to-last line of standard output is
a JSON report (machine, working set, failures, timing samples); the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 10

# A fresh interpreter's set-up before the first replicate: import the
# package and load the workload's config files.
_SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import covlab.cli; "
    "from covlab.harness import load_config; [load_config(p) for p in sys.argv[2:]]"
)

# Per-layer metrics: name -> (unit, source functions).  A metric is absent
# when a source function is missing from a namespace the workload calls
# through (see layer_metrics).
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "popsim.synthesize_ms": ("ms", ("synthesize_population",)),
    "popsim.census_ms": ("ms", ("simulate_census",)),
    "popsim.pes_ms": ("ms", ("simulate_pes",)),
    "popsim.persons": ("count", ("synthesize_population",)),
    "popsim.ledger_ms": ("ms", ("ground_truth_ledger",)),
    "sampling.draw_ms": ("ms", ("draw_sample",)),
    "sampling.households_drawn": ("count", ("draw_sample",)),
    "harness.build_self_ms": ("ms", ("build_world",)),
    "matching.match_ms": ("ms", ("match_and_code",)),
    "matching.coded_records": ("count", ("match_and_code",)),
    "matching.tally_ms": ("ms", ("tally_groups",)),
    "matching.tally_calls": ("count", ("tally_groups",)),
    "estimators.calls": ("count", ("mover_ratio", "fcode_estimate")),
    "estimators.ms": ("ms", ("mover_ratio", "fcode_estimate")),
    "estimators.nan_ratio": ("ratio", ("mover_ratio", "fcode_estimate")),
    "harness.replicate_self_ms": ("ms", ("run_replicate",)),
    "harness.output_ms": (
        "ms", ("summarize", "write_replicates_csv", "write_summary_json", "write_summary_text"),
    ),
    "harness.concurrency": ("ratio", ("run_replicate",)),
    "harness.parallel_speedup": ("ratio", ()),
    "harness.write_ms": ("ms", ("write_microdata",)),
    "harness.write_mb": ("MB", ("write_microdata",)),
    "harness.write_mb_per_s": ("MB/s", ()),
    "harness.ingest_ms": ("ms", ("ingest_microdata",)),
    "harness.ingest_rows": ("count", ("ingest_microdata",)),
    "harness.read_mb_per_s": ("MB/s", ()),
    "cli.simulate_self_ms": ("ms", ()),
    "cli.validate_self_ms": ("ms", ()),
    "cli.estimate_self_ms": ("ms", ()),
    "trace.overhead_ratio": ("ratio", ()),
}

COUNTED = {
    "popsim.persons": ("synthesize_population", "persons"),
    "sampling.households_drawn": ("draw_sample", "households_drawn"),
    "matching.coded_records": ("match_and_code", "coded_records"),
}


@dataclasses.dataclass
class Outcome:
    """Operations attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    known_defects: dict[str, int] = dataclasses.field(default_factory=dict)
    problems: list[str] = dataclasses.field(default_factory=list)

    def record(self, count: int, problems: list[str], defect: str | None = None) -> None:
        self.attempted += count
        if not problems:
            return
        self.failed += count
        if defect is None:
            self.correct = False
        else:
            self.known_defects[defect] = self.known_defects.get(defect, 0) + count
        self.problems.extend(problems[: min(5, max(0, 20 - len(self.problems)))])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _spread(values: list[float]) -> dict[str, object]:
    """Sample count, median, quartiles and every sample."""
    out: dict[str, object] = {"n": len(values), "median": _median(values), "samples": values}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def machine() -> dict[str, object]:
    import numpy

    info: dict[str, object] = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    # glibc answers cache geometry from CPUID; 191 and 194 are its
    # _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE.
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        info["l2_cache_bytes"] = libc.sysconf(191)
        info["llc_bytes"] = libc.sysconf(194)
    return info


def world_array_bytes(bundle) -> dict[str, object]:
    """Bytes held in the world's numpy arrays, by what they are indexed by."""
    import numpy as np

    persons = bundle.pop.size
    households = bundle.pop.households.count
    sizes = {"per_person_array_bytes": 0, "per_household_array_bytes": 0, "other_array_bytes": 0}
    seen: set[int] = set()

    def walk(obj) -> None:
        if isinstance(obj, np.ndarray):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if obj.ndim and obj.shape[0] == persons:
                sizes["per_person_array_bytes"] += obj.nbytes
            elif obj.ndim and obj.shape[0] == households:
                sizes["per_household_array_bytes"] += obj.nbytes
            else:
                sizes["other_array_bytes"] += obj.nbytes
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name))

    walk(bundle)
    return {"source": "computed", "persons": persons, "households": households, **sizes}


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Seconds taken by each of SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), *map(str, config_paths)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def layer_metrics(tracer, operations: int, extra: dict[str, float], modules: tuple[str, ...],
                  mb_per_world: float = 0.0, rows_per_world: float = 0.0) -> dict[str, dict]:
    """Per-layer metrics from the traced spans.  Times and counts are per
    operation (replicate or world); ratios are as named.  `extra` holds the
    metrics measured outside the spans; the file sizes of one world turn
    write and ingest calls into megabytes and rows.  A metric is absent when
    one of its source functions is missing from a module in `modules`, the
    namespaces the workload's calls go through."""
    from tracing import ESTIMATOR_SPANS, self_times

    selfs = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    ops = max(operations, 1)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def self_total(name: str) -> float:
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    estimator_calls = calls(*ESTIMATOR_SPANS)
    nans = sum(s.counts.get("nan", 0.0) for n in ESTIMATOR_SPANS for s in by_name.get(n, ()))
    batch_wall = total("bench.batch")
    values: dict[str, float] = {
        "popsim.synthesize_ms": 1e3 * total("synthesize_population") / ops,
        "popsim.census_ms": 1e3 * total("simulate_census") / ops,
        "popsim.pes_ms": 1e3 * total("simulate_pes") / ops,
        "popsim.ledger_ms": 1e3 * total("ground_truth_ledger") / ops,
        "sampling.draw_ms": 1e3 * total("draw_sample") / ops,
        "harness.build_self_ms": 1e3 * self_total("build_world") / ops,
        "matching.match_ms": 1e3 * total("match_and_code") / ops,
        "matching.tally_ms": 1e3 * total("tally_groups") / ops,
        "matching.tally_calls": calls("tally_groups") / ops,
        "estimators.calls": estimator_calls / ops,
        "estimators.ms": 1e3 * total(*ESTIMATOR_SPANS) / ops,
        "estimators.nan_ratio": nans / estimator_calls if estimator_calls else 0.0,
        "harness.replicate_self_ms": 1e3 * self_total("run_replicate") / ops,
        "harness.output_ms": 1e3 * total(*PER_LAYER["harness.output_ms"][1]) / ops,
        "harness.concurrency": total("run_replicate") / batch_wall if batch_wall else 0.0,
        "harness.write_ms": 1e3 * total("write_microdata") / ops,
        "harness.ingest_ms": 1e3 * total("ingest_microdata") / ops,
        "harness.ingest_rows": rows_per_world * calls("ingest_microdata") / ops,
        "harness.write_mb": mb_per_world * calls("write_microdata") / ops,
        "cli.simulate_self_ms": 1e3 * self_total("cli.simulate") / ops,
        "cli.validate_self_ms": 1e3 * self_total("cli.validate") / ops,
        "cli.estimate_self_ms": 1e3 * self_total("cli.estimate") / ops,
    }
    for metric, (source, count) in COUNTED.items():
        values[metric] = sum(s.counts.get(count, 0.0) for s in by_name.get(source, ())) / ops
    values.update(extra)

    gone = {
        name for module, name in (entry.rsplit(".", 1) for entry in tracer.absent)
        if module in modules
    }
    unreadable = {
        metric for metric, (source, _) in COUNTED.items()
        if any(s.counts.get("unreadable") for s in by_name.get(source, ()))
    }
    out: dict[str, dict] = {}
    for metric, (unit, sources) in PER_LAYER.items():
        if metric in unreadable or gone.intersection(sources):
            out[metric] = {"value": None, "unit": unit, "absent": True}
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out


def run_monte_carlo(workload: str, seed: int, seconds: float, tracer, work: Path,
                    outcome: Outcome) -> tuple[dict, dict]:
    from checks import load_reference, read_replicates_csv, reference_mismatches, \
        summary_mismatches
    from covlab.harness import build_world, run_experiment
    from workloads import DEFAULT_SEED, batch_seed, mc_config

    reference = load_reference(workload) if seed == DEFAULT_SEED else {}
    out_dir = work / "experiment"

    def batch(config, index: int, traced: bool) -> float:
        shutil.rmtree(out_dir, ignore_errors=True)
        hooks = tracer if traced else contextlib.nullcontext()
        with hooks:
            span = tracer.span("bench.batch") if traced else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    run_experiment(config, str(out_dir))
            except Exception:
                outcome.record(config.replicates, [traceback.format_exc(limit=3)])
                return float("nan")
            elapsed = time.perf_counter() - start
        rows = read_replicates_csv(out_dir / "replicates.csv")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        problems = summary_mismatches(summary, rows, config.replicates)
        if problems:
            outcome.record(config.replicates, problems)
            return elapsed
        bad = reference_mismatches(rows, reference[index]) if index in reference else {}
        outcome.record(len(bad), list(bad.values()))
        outcome.record(config.replicates - len(bad), [])
        return elapsed

    base = mc_config(workload, batch_seed(seed, 0))
    untraced: list[float] = []
    traced: list[float] = []
    serial: list[float] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        config = dataclasses.replace(base, base_seed=batch_seed(seed, index))
        untraced.append(batch(config, index, traced=False))
        if tracer is not None:
            traced.append(batch(config, index, traced=True))
            if config.workers > 1:
                serial.append(batch(dataclasses.replace(config, workers=1), index, traced=False))
        index += 1

    rates = [base.replicates / t for t in untraced]
    report = {
        "batches": len(untraced),
        "replicates_per_batch": base.replicates,
        "workers": base.workers,
        "replicates_per_s": _spread(rates),
        "working_set": world_array_bytes(build_world(base, 0)),
    }
    metrics = {"replicates_per_s": {"value": _median(rates), "unit": "1/s"}}
    if tracer is not None:
        overhead = _median([t / u for t, u in zip(traced, untraced)])
        speedup = _median([s / u for s, u in zip(serial, untraced)]) if serial else 1.0
        metrics = layer_metrics(
            tracer, base.replicates * len(traced),
            {"trace.overhead_ratio": overhead, "harness.parallel_speedup": speedup,
             "harness.write_mb_per_s": 0.0, "harness.read_mb_per_s": 0.0},
            modules=("covlab.harness.experiment",),
        )
        report["accounting"] = _accounting(tracer, "bench.batch", sum(untraced), overhead)
    return metrics, report


def _accounting(tracer, root: str, untraced_wall: float, overhead: float) -> dict[str, object]:
    """Traced wall, untraced wall and the sum of all self times.  For a serial
    run the self times sum to the traced wall, which is the untraced wall
    times the overhead ratio; with threads they sum to busy thread time.
    Also the traced latency of one operation: its median and the highest of
    p90 and p99 that has at least ten samples beyond it."""
    from tracing import OPERATION_SPANS, self_times

    latencies = [1e3 * s.duration for s in tracer.spans if s.name in OPERATION_SPANS]
    operation_ms: dict[str, object] = {"n": len(latencies), "p50": _median(latencies)}
    if len(latencies) >= 100:
        cuts = statistics.quantiles(latencies, n=100)
        operation_ms["p99" if len(latencies) >= 1000 else "p90"] = (
            cuts[98] if len(latencies) >= 1000 else cuts[89]
        )
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": sum(s.duration for s in tracer.spans if s.name == root),
        "self_time_sum_s": sum(self_times(tracer.spans).values()),
        "overhead_ratio": overhead,
        "operation_ms": operation_ms,
    }


def _file_stats(directory: Path) -> tuple[float, int]:
    """Megabytes and data rows (header excluded) of a microdata directory."""
    size = 0
    rows = 0
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        size += len(data)
        rows += max(data.count(b"\n") - 1, 0)
    return size / 1e6, rows


def run_microdata(seed: int, seconds: float, tracer, work: Path, config_paths: dict,
                  outcome: Outcome) -> tuple[dict, dict]:
    from checks import classify_world
    from covlab.cli import main as cli_main
    from covlab.harness import build_world
    from workloads import microdata_configs, world_kind

    configs = microdata_configs(seed)
    out_dir = work / "world"
    level = "post_stratum"
    files: dict[str, dict[str, float]] = {}
    working_set: dict[str, dict] = {}

    def world(index: int, traced: bool) -> dict[str, float]:
        kind = world_kind(index)
        shutil.rmtree(out_dir, ignore_errors=True)
        steps = (
            ("simulate", ["simulate", "--config", str(config_paths[kind]), "--seed", str(seed),
                          "--replicate", str(index), "--out", str(out_dir)]),
            ("validate", ["validate", "--in", str(out_dir)]),
            ("estimate", ["estimate", "--in", str(out_dir), "--level", level]),
        )
        times: dict[str, float] = {}
        printed: dict[str, tuple[int, str, str]] = {}
        with tracer if traced else contextlib.nullcontext():
            with tracer.span("bench.world") if traced else contextlib.nullcontext():
                for step, argv in steps:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    span = tracer.span(f"cli.{step}") if traced else contextlib.nullcontext()
                    with span, contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        start = time.perf_counter()
                        try:
                            code = cli_main(argv)
                        except Exception:
                            code = -1
                            print(traceback.format_exc(limit=3), file=sys.stderr)
                        times[step] = time.perf_counter() - start
                    printed[step] = (code, stdout.getvalue(), stderr.getvalue())

        mb, rows = _file_stats(out_dir)
        times.update(mb=mb, rows=rows)
        files.setdefault(kind, {"mb": mb, "rows": rows})
        problems = [f"world {index} {step} exited {code}: {err[-300:]}"
                    for step, (code, _, err) in printed.items() if code != 0]
        if not problems and not printed["validate"][1].startswith("ok:"):
            problems.append(f"world {index} validate printed {printed['validate'][1][:200]!r}")
        defect = None
        if not problems:
            bundle = build_world(configs[kind], index)
            working_set.setdefault(kind, world_array_bytes(bundle))
            try:
                problems, defect = classify_world(bundle, level,
                                                  json.loads(printed["estimate"][1]))
            except Exception:
                problems = [f"check failed: {traceback.format_exc(limit=2)}"]
            problems = [f"world {index} ({kind}): {p}" for p in problems]
        outcome.record(1, problems, defect)
        return times

    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    index = 0
    # Whole pairs only, so every run has as many sci worlds as adjusted ones.
    while index == 0 or time.perf_counter() - start < seconds:
        pair = (index, index + 1)
        untraced.append([world(i, traced=False) for i in pair])
        if tracer is not None:
            traced.append([world(i, traced=True) for i in pair])
        index += 2

    def pair_wall(pair: list[dict]) -> float:
        return sum(w["simulate"] + w["validate"] + w["estimate"] for w in pair)

    rates = [len(pair) / pair_wall(pair) for pair in untraced]
    write = [sum(w["mb"] for w in p) / sum(w["simulate"] for w in p) for p in untraced]
    read = [2 * sum(w["mb"] for w in p) / sum(w["validate"] + w["estimate"] for w in p)
            for p in untraced]
    report = {
        "worlds": 2 * len(untraced),
        "replicates_per_s": _spread(rates),
        "write_mb_per_s": _spread(write),
        "read_mb_per_s": _spread(read),
        "microdata_files": {kind: {"source": "computed", **stats} for kind, stats in files.items()},
        "working_set": working_set,
    }
    metrics = {"replicates_per_s": {"value": _median(rates), "unit": "1/s"}}
    if tracer is not None:
        overhead = _median([pair_wall(t) / pair_wall(u) for t, u in zip(traced, untraced)])
        worlds = [w for pair in traced for w in pair]
        metrics = layer_metrics(
            tracer, len(worlds),
            {"trace.overhead_ratio": overhead, "harness.parallel_speedup": 1.0,
             "harness.write_mb_per_s": _median(write), "harness.read_mb_per_s": _median(read)},
            modules=("covlab.harness.experiment", "covlab.cli"),
            mb_per_world=sum(w["mb"] for w in worlds) / len(worlds),
            rows_per_world=sum(w["rows"] for w in worlds) / len(worlds),
        )
        report["accounting"] = _accounting(
            tracer, "bench.world", sum(pair_wall(p) for p in untraced), overhead,
        )
    return metrics, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-clean-50k", "mc-field-1m", "microdata-roundtrip"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "covlab" / "__init__.py").is_file():
        print(f"error: covlab sources not found at {SRC}; run from a covlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from covlab.harness import dump_config
    from tracing import Tracer
    from workloads import batch_seed, mc_config, microdata_configs

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "microdata-roundtrip":
            config_paths = {}
            for kind, config in microdata_configs(args.seed).items():
                config_paths[kind] = work / f"{kind}.json"
                dump_config(config, str(config_paths[kind]))
        else:
            config_paths = {"mc": work / "config.json"}
            dump_config(mc_config(args.workload, batch_seed(args.seed, 0)),
                        str(config_paths["mc"]))
        setup = measure_setup(list(config_paths.values()))

        tracer = Tracer() if args.trace else None
        outcome = Outcome()
        if args.workload == "microdata-roundtrip":
            metrics, report = run_microdata(args.seed, args.seconds, tracer, work,
                                            config_paths, outcome)
        else:
            metrics, report = run_monte_carlo(args.workload, args.seed, args.seconds, tracer,
                                              work, outcome)
        if tracer is None:
            metrics["setup_s"] = {"value": _median(setup), "unit": "s"}
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
        else:
            report["absent"] = sorted(tracer.absent)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        setup_s=_spread(setup),
        attempted=outcome.attempted,
        failed=outcome.failed,
        failed_ratio=outcome.failed / outcome.attempted if outcome.attempted else None,
        known_defects=outcome.known_defects,
        problems=outcome.problems,
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
