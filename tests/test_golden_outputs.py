"""Experiment outputs pinned byte for byte.

`replicates.csv` and `summary.json` are the deterministic artifacts of an
experiment; a refactor of the simulation, sampling or tally layers must
leave them unchanged.  The SHA-256 digests below were recorded before the
array sample frame, the shared record table and the bincount ledger
replaced the earlier implementations, except the seed-23 sampled world's,
re-recorded when every in-mover came to be summed in one tally slot, and
the homogeneous dependent world's, recorded before the capture model
became the config's four numbers.

The JSON report of `covlab estimate` is pinned the same way, on microdata
written from four worlds.  The two small full-frame digests were recorded
before procedure C's inputs were folded into `MoverTallies`, the sampled
adjusted one before the column parse of ingest was reworked, and the
multi-block one before the writer formatted files a block at a time.

The household weights of two sampled worlds are pinned too, recorded
before the sample was drawn in district codes rather than label keys.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from oracles import multi_block_config

from covlab.cli import main as cli_main
from covlab.harness import (
    ExperimentConfig,
    SampleSpec,
    build_world,
    run_experiment,
    write_microdata,
)
from covlab.matching import MatchErrorModel
from covlab.popsim import PopulationConfig

_POPULATION = dict(mover_rate=0.05, birth_rate=0.01, death_rate=0.01, institutional_rate=0.01)
_LEVELS = ("national", "province_stratum", "post_stratum")

LOCKED = {
    "clean-national": ExperimentConfig(
        name="lock-clean", base_seed=21, replicates=4,
        population=PopulationConfig(persons=3000, mover_rate=0.05),
    ),
    "adjusted-sampled": ExperimentConfig(
        name="lock-adjusted", base_seed=22, replicates=3,
        population=PopulationConfig(persons=4000, **_POPULATION),
        ee_rate=0.02, ii_rate=0.01, listed_nonresponse_rate=0.1, absent_rate=0.1,
        exclusion_mode="adjusted", grouping=_LEVELS,
        # Rural districts hold fewer households than the rural take, so
        # short districts are taken whole.
        sample=SampleSpec(psus_per_stratum=2, urban_take=20, rural_take=100),
    ),
    "every-knob": ExperimentConfig(
        name="lock-every-knob", base_seed=23, replicates=3,
        population=PopulationConfig(persons=3000, **_POPULATION),
        dependence=0.5, heterogeneity=0.5,
        ee_rate=0.02, ii_rate=0.01, listed_nonresponse_rate=0.1,
        proxy_miss=0.1, absent_rate=0.1, unlisted_rate=0.1,
        errors=MatchErrorModel(
            false_nonmatch=0.1, false_match=0.05, resolution_flip=0.1,
            household_false_nonmatch=0.05,
        ),
        grouping=_LEVELS,
    ),
}
# Dependence without heterogeneity, the survey's per-outcome threshold
# path: a base logit of exactly 0.0, over more than two draw blocks of
# persons that end on a partial one.
LOCKED["homogeneous-dependent"] = ExperimentConfig(
    name="lock-homogeneous-dependent", base_seed=25, replicates=2,
    population=PopulationConfig(persons=70_000, mover_rate=0.03),
    capture_census=0.5, capture_pes=0.5, dependence=0.8,
    grouping=("national", "post_stratum"),
)
# A sampled weighted world whose in-mover total depends on the order in
# which the tally adds its in-mover records.
LOCKED["adjusted-sampled-seed-23"] = dataclasses.replace(LOCKED["adjusted-sampled"], base_seed=23)

DIGESTS = {
    "clean-national": {
        "replicates.csv": "70a08c763f33eed91467e8fec70b5fd573f875a24932b1746b6e7c0512bdeea6",
        "summary.json": "1358ac70138f95cc776456329d6162a0a919e6e776fd5d538faf422521047916",
    },
    "adjusted-sampled": {
        "replicates.csv": "c34f1b03d8ed4168febe65a718ad9b8f0899c4dce9359c58d29a13f6c9b6dd8d",
        "summary.json": "1b88f175e8652cf67027edc6face47787e6c14fca185b1fa55a4e9a43df3d3f4",
    },
    "adjusted-sampled-seed-23": {
        "replicates.csv": "bd99719d56b0aca0daa2df9f24579683dddf26bc5ad4711a8f6aa765a84a6146",
        "summary.json": "c05415c9d096e6a057bbc5fdbb8f81e595d3b4f2c957377ed774888110d07e90",
    },
    "homogeneous-dependent": {
        "replicates.csv": "672c5a738bd65ebe1ebb814201f5a6c0baf4b228e9cf4d62eb9ceccc2801673e",
        "summary.json": "1703cf396d3badae0d7a4e79f7cbb5d9e5657144331c6e54f61485357ceee0dc",
    },
    "every-knob": {
        "replicates.csv": "a806b4044f4d5d6ee08ea67e4c60d120c855f837313684e2b623f68b8b062fc9",
        "summary.json": "3abcf6b7ef1a7c82faf318bc1fcf37f831b54eeccb1a9a09d982ecb667b6f78f",
    },
}


def output_digests(config, out_dir):
    run_experiment(config, out_dir=str(out_dir))
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("replicates.csv", "summary.json")
    }


@pytest.mark.parametrize("name", sorted(LOCKED))
def test_experiment_outputs_are_byte_identical_to_locked_hashes(tmp_path, name):
    assert output_digests(LOCKED[name], tmp_path) == DIGESTS[name]


_ALL_ESTIMATORS = ("--procedure", "a", "--procedure", "b", "--procedure", "c",
                   "--f30", "omitted", "--f30", "numerator", "--f30", "denominator")

# World, then the `covlab estimate` arguments after `--in`.  With no
# movers and no deaths n_out is 0, so procedure C reports an error entry.
ESTIMATE_LOCKED = {
    "every-knob-post-stratum": (
        LOCKED["every-knob"], ("--level", "post_stratum") + _ALL_ESTIMATORS,
    ),
    "no-movers-national": (
        ExperimentConfig(
            name="lock-no-movers", base_seed=24, population=PopulationConfig(persons=3000),
            ee_rate=0.02, ii_rate=0.01,
        ),
        ("--level", "national", "--procedure", "c"),
    ),
    # A sampled world: the household join and the '#' follow-up reweighting.
    "adjusted-sampled-post-stratum": (
        LOCKED["adjusted-sampled"], ("--level", "post_stratum") + _ALL_ESTIMATORS,
    ),
    # Files that each span more than two of the writer's row blocks.
    "sci-multi-block-post-stratum": (
        multi_block_config(), ("--level", "post_stratum") + _ALL_ESTIMATORS,
    ),
}

ESTIMATE_DIGESTS = {
    "every-knob-post-stratum": "6e95faedb93487bed2ec8046639a97fd659385c7e36e328b247ea420990c8d58",
    "no-movers-national": "15079fba3d6d944294385f9e8912df6e6e6bbe887a206946451977c85e511f96",
    "adjusted-sampled-post-stratum":
        "fe55299c90f3957a4b42fc3a393cd7f92fb4fe1714b233143ee1b0b8118cd50c",
    "sci-multi-block-post-stratum":
        "4251d12b0d3ea3a77f6e853bfb4e99f646f3d97bca2f43d9522c0117efee3e23",
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_LOCKED))
def test_estimate_report_is_byte_identical_to_locked_hash(tmp_path, name):
    config, args = ESTIMATE_LOCKED[name]
    bundle = build_world(config, 0)
    micro = tmp_path / "micro"
    write_microdata(
        str(micro), bundle.pop, bundle.census, bundle.pes, bundle.result,
        bundle.household_weight,
    )
    report = tmp_path / "report.json"
    assert cli_main(["estimate", "--in", str(micro), *args, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == ESTIMATE_DIGESTS[name]


# Worlds whose sample draw is pinned by the SHA-256 of their household
# weights.  With 101 provinces the labels p00..p100 sort p10, p100, p11,
# so the draw's label order differs from the code order; every pair holds
# one district, larger than its take, so the order shows in which
# household draw each district gets.
SAMPLE_LOCKED = {
    "eight-provinces": ExperimentConfig(
        name="lock-sample-8", base_seed=31,
        population=PopulationConfig(persons=8000, provinces=8),
        sample=SampleSpec(psus_per_stratum=2, urban_take=20, rural_take=30),
    ),
    "label-order": ExperimentConfig(
        name="lock-sample-101", base_seed=32,
        population=PopulationConfig(persons=10000, provinces=101, urban_districts=1,
                                    rural_districts=1),
        sample=SampleSpec(psus_per_stratum=1, urban_take=10, rural_take=5),
    ),
}

SAMPLE_DIGESTS = {
    "eight-provinces": "2fdb146e1326cfe45d1b69710dd84c0a3d18c4ee06ef02b124ac3da250b962dd",
    "label-order": "69127646d7051488910310a768fc45f277300b22a93940621ca4548cc6cf211a",
}


@pytest.mark.parametrize("name", sorted(SAMPLE_LOCKED))
def test_sampled_household_weights_are_locked(name):
    weight = build_world(SAMPLE_LOCKED[name], 0).household_weight
    assert weight.dtype == np.float64
    assert hashlib.sha256(weight.tobytes()).hexdigest() == SAMPLE_DIGESTS[name]
