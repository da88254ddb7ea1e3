#!/usr/bin/env python3
"""Record the reference rows that run.py compares against at the default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>.json for each Monte Carlo workload:
every replicates.csv row of its first REFERENCE_BATCHES batches at
DEFAULT_SEED, with numbers kept as repr() strings so they round-trip exactly.
Re-record only when a change is meant to alter the estimates, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import REFERENCE_DIR, read_replicates_csv  # noqa: E402
from covlab.harness import run_experiment  # noqa: E402
from workloads import DEFAULT_SEED, batch_seed, mc_config  # noqa: E402

REFERENCE_BATCHES = 2


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for workload in ("mc-clean-50k", "mc-field-1m"):
            batches = {}
            for batch in range(REFERENCE_BATCHES):
                config = dataclasses.replace(
                    mc_config(workload, batch_seed(DEFAULT_SEED, batch)), workers=1,
                )
                run_experiment(config, str(work))
                rows = read_replicates_csv(work / "replicates.csv")
                batches[str(batch)] = [
                    [*key, *(repr(v) for v in values)] for key, values in sorted(rows.items())
                ]
            path = REFERENCE_DIR / f"{workload}.json"
            # One row per line keeps the file reviewable in a diff.
            body = ",\n".join(
                f"{json.dumps(batch)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
                for batch, rows in batches.items()
            )
            header = f'{{"workload": {json.dumps(workload)}, "seed": {DEFAULT_SEED}, "batches": {{'
            path.write_text(f"{header}\n{body}\n}}}}\n", encoding="utf-8")
            print(f"{path.relative_to(ROOT)}: {sum(map(len, batches.values()))} rows")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
