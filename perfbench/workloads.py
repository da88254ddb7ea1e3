"""The configs each benchmark workload runs, derived from the workload seed.

mc-clean-50k         acceptance-criterion-04 shape: clean 50k-person worlds,
                     national grouping, every estimator, two workers.
mc-field-1m          the large reference world: 1M persons, every census,
                     survey and matching pathology, a two-stage sample in
                     adjusted exclusion mode, all three grouping levels,
                     run serially.
microdata-roundtrip  the field user's file flow on 200k-person worlds,
                     alternating a full-frame "sci" world and a sampled
                     "adjusted" world.

A Monte Carlo workload runs back-to-back batches; batch b uses base seed
``seed * 1000 + b`` so every batch simulates new worlds and the same seed
always gives the same batches.  A microdata world i is replicate i of the
workload seed, with the sci config for even i and the adjusted one for odd i.
"""

from __future__ import annotations

from covlab.harness import ExperimentConfig, SampleSpec
from covlab.matching import MatchErrorModel
from covlab.popsim import PopulationConfig

WORKLOADS = ("mc-clean-50k", "mc-field-1m", "microdata-roundtrip")

# Outputs at this seed are compared row by row with perfbench/reference.
DEFAULT_SEED = 1

# Replicates per run_experiment call: about two seconds of work each, so a
# run holds enough batches for a steady median.
BATCH_REPLICATES = {"mc-clean-50k": 150, "mc-field-1m": 2}

_FIELD_PATHOLOGY = dict(
    dependence=0.3,
    heterogeneity=0.5,
    ee_rate=0.03,
    ii_rate=0.02,
    listed_nonresponse_rate=0.02,
    proxy_miss=0.1,
    absent_rate=0.05,
    unlisted_rate=0.03,
    errors=MatchErrorModel(
        false_nonmatch=0.02, false_match=0.01, resolution_flip=0.05,
        household_false_nonmatch=0.01,
    ),
)


def batch_seed(seed: int, batch: int) -> int:
    return seed * 1000 + batch


def mc_config(workload: str, base_seed: int) -> ExperimentConfig:
    if workload == "mc-clean-50k":
        return ExperimentConfig(
            name=workload,
            base_seed=base_seed,
            replicates=BATCH_REPLICATES[workload],
            workers=2,
            population=PopulationConfig(persons=50_000, mover_rate=0.02),
        )
    if workload == "mc-field-1m":
        return ExperimentConfig(
            name=workload,
            base_seed=base_seed,
            replicates=BATCH_REPLICATES[workload],
            workers=1,
            population=PopulationConfig(
                persons=1_000_000, provinces=8, urban_districts=20, rural_districts=10,
                mover_rate=0.05, birth_rate=0.01, death_rate=0.01, institutional_rate=0.02,
            ),
            exclusion_mode="adjusted",
            grouping=("national", "province_stratum", "post_stratum"),
            sample=SampleSpec(psus_per_stratum=4, urban_take=200, rural_take=300),
            **_FIELD_PATHOLOGY,
        )
    raise ValueError(f"{workload} is not a Monte Carlo workload")


def microdata_configs(base_seed: int) -> dict[str, ExperimentConfig]:
    """The two world kinds of microdata-roundtrip, keyed by exclusion mode."""
    population = PopulationConfig(
        persons=200_000, provinces=4, urban_districts=10, rural_districts=5,
        mover_rate=0.05, birth_rate=0.01, death_rate=0.01, institutional_rate=0.02,
    )
    common = dict(base_seed=base_seed, replicates=1, population=population, **_FIELD_PATHOLOGY)
    return {
        "sci": ExperimentConfig(name="microdata-sci", **common),
        "adjusted": ExperimentConfig(
            name="microdata-adjusted",
            exclusion_mode="adjusted",
            sample=SampleSpec(psus_per_stratum=4, urban_take=200, rural_take=300),
            **common,
        ),
    }


def world_kind(world: int) -> str:
    return "sci" if world % 2 == 0 else "adjusted"
