"""Experiment harness: config files, replication, microdata round trips, CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import assert_ingest_equals_tallies, multi_block_config, perfbench_workloads

import covlab.cli
import covlab.harness.experiment
from covlab.cli import main as cli_main
from covlab.errors import ConfigError, DegenerateInputs, SchemaError, ValidationError
from covlab.estimators import fcode_estimate, mover_ratio
from covlab.harness import (
    ExperimentConfig,
    SampleSpec,
    build_world,
    dump_config,
    ingest_microdata,
    load_config,
    run_experiment,
    run_replicate,
    summarize,
    write_microdata,
)
from covlab.harness.experiment import EstimateRow
from covlab.harness.ingest import _ISSUES_PER_CHECK
from covlab.matching import record_table, tally_groups
from covlab.popsim import DRAW_BLOCK, PopulationConfig


def _small_config(**overrides):
    defaults = dict(
        name="unit",
        base_seed=7,
        replicates=3,
        population=PopulationConfig(
            persons=1200,
            mover_rate=0.05,
            birth_rate=0.01,
            death_rate=0.01,
            institutional_rate=0.01,
        ),
        ee_rate=0.02,
        ii_rate=0.01,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_config_json_round_trip(tmp_path):
    config = _small_config(
        grouping=("national", "post_stratum"),
        sample=SampleSpec(psus_per_stratum=2, urban_take=10, rural_take=20),
        errors=__import__("covlab").MatchErrorModel(false_nonmatch=0.05),
    )
    path = tmp_path / "config.json"
    dump_config(config, str(path))
    loaded = load_config(str(path))
    assert loaded == config


def test_config_rejects_unknown_keys_and_versions():
    base = ExperimentConfig().to_json()
    bad = dict(base, mystery_knob=3)
    with pytest.raises(ConfigError, match="mystery_knob"):
        ExperimentConfig.from_json(bad)
    stale = dict(base, schema_version=99)
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_json(stale)


def test_config_field_validation():
    with pytest.raises(ConfigError):
        _small_config(replicates=0)
    with pytest.raises(ConfigError):
        _small_config(capture_census=1.0)
    with pytest.raises(ConfigError):
        _small_config(grouping=("galaxy",))
    with pytest.raises(ConfigError):
        _small_config(procedures=("b",), with_in_mover_matching=False)
    with pytest.raises(ConfigError):
        SampleSpec(psus_per_stratum=0)


def test_config_built_in_python_rejects_non_finite_floats():
    names = [item.name for item in dataclasses.fields(ExperimentConfig)
             if isinstance(getattr(ExperimentConfig(), item.name), float)]
    assert "dependence" in names and "ee_rate" in names
    for name in names:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig(**{name: value})
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="mean_household_size"):
            PopulationConfig(mean_household_size=value)


def test_load_config_rejects_an_integer_too_long_to_parse(tmp_path):
    # json refuses integers of more than 4300 digits with a plain ValueError.
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": 1, "base_seed": ' + "9" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_run_replicate_is_deterministic():
    config = _small_config()
    first = run_replicate(config, 0)
    again = run_replicate(config, 0)
    assert first == again
    other = run_replicate(config, 1)
    assert [r.estimate for r in first] != [r.estimate for r in other]


def test_run_replicate_rows_match_direct_recomputation():
    config = _small_config(grouping=("national",))
    bundle = build_world(config, 2)
    tallies = tally_groups(
        bundle.pop, bundle.census, bundle.result, with_in_mover_matching=True
    )["all"]
    by_estimator = {
        row.estimator: row.estimate for row in run_replicate(config, 2)
    }
    cc = tallies.census_correct()
    assert by_estimator["procedure_a"] == cc * mover_ratio(tallies.movers, "a")
    assert by_estimator["procedure_b"] == cc * mover_ratio(tallies.movers, "b")
    assert by_estimator["procedure_c"] == cc * mover_ratio(tallies.movers, "c")
    assert by_estimator["fcode_omitted"] == fcode_estimate(tallies.fcode, "omitted")
    assert by_estimator["fcode_denominator"] == fcode_estimate(tallies.fcode, "denominator")


@pytest.mark.parametrize("workers, replicates, cpus, threads", [
    (40, 40, 4, 4), (40, 3, 8, 3), (3, 40, 8, 3), (2, 40, 1, 1), (1, 40, 8, 1),
])
def test_replicates_run_on_no_more_threads_than_they_can_use(
    tmp_path, monkeypatch, workers, replicates, cpus, threads
):
    started = []

    class RecordingPool:
        """Records its thread count and runs the replicates in this thread."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, items):
            return map(function, items)

    experiment = covlab.harness.experiment
    monkeypatch.setattr(experiment, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    ran = []
    monkeypatch.setattr(experiment, "run_replicate", lambda config, k: ran.append(k) or [])
    config = dataclasses.replace(_small_config(replicates=replicates), workers=workers)
    run_experiment(config, out_dir=str(tmp_path))
    assert started == ([threads] if threads > 1 else [])
    assert ran == list(range(replicates))
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["config"]["workers"] == workers


def test_worker_count_does_not_change_outputs(tmp_path):
    config = _small_config(replicates=4)
    serial_dir = tmp_path / "serial"
    threaded_dir = tmp_path / "threaded"
    serial = run_experiment(config, out_dir=str(serial_dir))
    threaded = run_experiment(
        ExperimentConfig(**{**config.__dict__, "workers": 3}), out_dir=str(threaded_dir)
    )
    assert serial.rows == threaded.rows
    for name in ("replicates.csv", "summary.txt"):
        assert (serial_dir / name).read_bytes() == (threaded_dir / name).read_bytes()
    # summary.json embeds the config, so only the worker count may differ
    summaries = []
    for directory in (serial_dir, threaded_dir):
        loaded = json.loads((directory / "summary.json").read_text(encoding="utf-8"))
        loaded["config"].pop("workers")
        summaries.append(loaded)
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize(
    "population",
    [PopulationConfig(persons=5000, urban_share=1.0), PopulationConfig(persons=30)],
)
def test_sample_with_empty_districts_runs(population):
    # Rural districts hold no household at all when urban_share is 1, and
    # a 30-person world leaves most districts empty.
    config = _small_config(
        population=population, replicates=2, grouping=("national", "province_stratum"),
        sample=SampleSpec(psus_per_stratum=2, urban_take=20, rural_take=30),
    )
    bundle = build_world(config, 0)
    empty = np.bincount(bundle.pop.households.district, minlength=bundle.pop.districts.count) == 0
    assert empty.any()
    assert bundle.result.household_mask.any()
    assert run_experiment(config).rows


def test_experiment_writes_parseable_artifacts(tmp_path):
    config = _small_config(replicates=2)
    out = tmp_path / "run"
    result = run_experiment(config, out_dir=str(out))
    with open(out / "replicates.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(result.rows)
    assert float(rows[0]["estimate"]) == result.rows[0].estimate
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary == result.summary
    assert summary["config"]["name"] == "unit"
    text = (out / "summary.txt").read_text(encoding="utf-8")
    assert "procedure_a" in text


def test_summarize_moments_by_hand():
    config = _small_config(replicates=3, name="hand")

    def row(replicate, estimate):
        return EstimateRow(
            replicate=replicate, level="national", group="all",
            estimator="procedure_a", estimate=estimate,
            true_total=100.0, census_count=90.0,
        )

    rows = [row(0, 102.0), row(1, 98.0), row(2, math.nan)]
    entry = summarize(config, rows)["groups"]["national"]["all"]["procedure_a"]
    assert entry["replicates"] == 3
    assert entry["valid"] == 2
    assert entry["mean"] == pytest.approx(100.0)
    assert entry["sd"] == pytest.approx(math.sqrt(8.0))
    assert entry["bias"] == pytest.approx(0.0)
    assert entry["rmse"] == pytest.approx(2.0)

    lone = summarize(config, rows[:1])["groups"]["national"]["all"]["procedure_a"]
    assert lone["sd"] is None
    assert lone["mc_se"] is None


def test_summary_tracks_single_invalid_estimator():
    config = _small_config(replicates=1)
    rows = [
        EstimateRow(
            replicate=0, level="national", group="all", estimator="procedure_b",
            estimate=math.nan, true_total=100.0, census_count=90.0,
        )
    ]
    entry = summarize(config, rows)["groups"]["national"]["all"]["procedure_b"]
    assert entry == {"replicates": 1, "valid": 0}


def _round_trip_tallies(tmp_path, config, replicate=0, level="national"):
    bundle = build_world(config, replicate)
    out = tmp_path / "micro"
    write_microdata(
        str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
        bundle.household_weight,
    )
    direct = tally_groups(
        bundle.pop, bundle.census, bundle.result, level=level,
        household_weight=bundle.household_weight,
    )
    loaded = ingest_microdata(str(out), level=level)
    return direct, loaded


def _assert_tallies_match(direct, loaded):
    """Every group, and every field equal, bit for bit."""
    assert set(direct) == set(loaded)
    assert_ingest_equals_tallies(direct, loaded)


def test_microdata_round_trip_full_universe(tmp_path):
    config = _small_config()
    for level in ("national", "post_stratum"):
        direct, loaded = _round_trip_tallies(tmp_path, config, level=level)
        _assert_tallies_match(direct, loaded)


def test_microdata_round_trip_with_matching_errors(tmp_path):
    config = _small_config(
        errors=__import__("covlab").MatchErrorModel(
            false_nonmatch=0.1, false_match=0.05, resolution_flip=0.1,
            household_false_nonmatch=0.05,
        ),
        absent_rate=0.1,
        unlisted_rate=0.05,
        proxy_miss=0.1,
    )
    direct, loaded = _round_trip_tallies(tmp_path, config)
    _assert_tallies_match(direct, loaded)


def test_microdata_round_trip_weighted_sample(tmp_path):
    # Weighted in-movers sum in the same order on both paths, with and
    # without the '#' reweighting of adjusted mode.
    sci = _small_config(
        population=PopulationConfig(
            persons=3000, mover_rate=0.05, birth_rate=0.01, death_rate=0.01,
        ),
        sample=SampleSpec(psus_per_stratum=2, urban_take=20, rural_take=30),
    )
    adjusted = dataclasses.replace(
        sci, exclusion_mode="adjusted", listed_nonresponse_rate=0.1, absent_rate=0.1,
    )
    for config in (sci, adjusted):
        for replicate in range(3):
            for level in ("national", "post_stratum"):
                direct, loaded = _round_trip_tallies(tmp_path, config, replicate, level)
                _assert_tallies_match(direct, loaded)


def test_ingest_rejects_unsupported_level(tmp_path):
    config = _small_config()
    with pytest.raises(ConfigError):
        _round_trip_tallies(tmp_path, config, level="province_stratum")


# SHA-256 of the four files written for three fixed worlds.  census.csv and
# pes.csv, and the sci world's codes.csv, of the two small worlds are as the
# earlier row-by-row csv.writer implementation wrote them; weights.csv
# gained the district, address type and interviewed columns, and
# adjusted-mode markers the followup phase, so those three hashes were
# recorded again.  The multi-block world's census, survey and codes files
# each hold more than two of the writer's row blocks; its hashes were
# recorded before the writer formatted files a block at a time.
_GOLDEN_PATHOLOGY = dict(
    ee_rate=0.02,
    ii_rate=0.01,
    listed_nonresponse_rate=0.1,
    proxy_miss=0.1,
    absent_rate=0.1,
    unlisted_rate=0.1,
    errors=__import__("covlab").MatchErrorModel(
        false_nonmatch=0.1, false_match=0.05, resolution_flip=0.1,
        household_false_nonmatch=0.05,
    ),
)
_GOLDEN_POPULATION = dict(
    mover_rate=0.05, birth_rate=0.01, death_rate=0.01, institutional_rate=0.01,
)
_GOLDEN_WORLDS = {
    "sci-full-frame": (
        ExperimentConfig(
            name="golden-sci", base_seed=1,
            population=PopulationConfig(persons=1200, **_GOLDEN_POPULATION),
            **_GOLDEN_PATHOLOGY,
        ),
        {
            "census.csv": "fa4bb0f401eebf451a04218d40053ef8c1a34a02fbf4d328d9064b2e155c523b",
            "pes.csv": "86175ed87da60efaab8b892a0d1906b79ff18efe4a13db0b701b795af604000f",
            "codes.csv": "ca97ab8b6e98089368f9a6ae2ecd0d359c6884c8d379144c620595f1f321af88",
            "weights.csv": "756837414d852a411f66e57d6d8b99e9cfbba13ac3af71ccd5b025371de2da60",
        },
    ),
    "adjusted-sampled": (
        ExperimentConfig(
            name="golden-adjusted", base_seed=1,
            population=PopulationConfig(persons=3000, **_GOLDEN_POPULATION),
            exclusion_mode="adjusted",
            sample=SampleSpec(psus_per_stratum=2, urban_take=20, rural_take=30),
            **_GOLDEN_PATHOLOGY,
        ),
        {
            "census.csv": "2374830cffe595ec0e11f445bfbaab4565acc07f5df0dd4d1b98da92927337d8",
            "pes.csv": "c468d093329debb0ebf9a484cbd80e4ff1f8fd1a5c637c674b439798d9f9d4c6",
            "codes.csv": "6a9ad667a00a14d88b7ef7c21490df48f7eb45b1b31fb4794d8d4c438e1a66f2",
            "weights.csv": "aea73c2401d1b45b8c1ff111489f1809a2a01ac4523f9c64d1ba662430197be3",
        },
    ),
    "sci-multi-block": (
        multi_block_config(),
        {
            "census.csv": "b49bbc6a8d767ca3f9017d9564a54829c8d45630bb671929b9f91b2ca51c5248",
            "pes.csv": "6677648f50de01953f760fe3aba4f5988d8a56675a69eeb26faaf5f09608e049",
            "codes.csv": "d2fced6fff9cae6070a67b6b420d9dfe16c96dfaee55cc283b37cdb472952d50",
            "weights.csv": "967ca6190e37f3340a3d854c037c3797bc2b7c17b90c13015dc9b7d025cbf27e",
        },
    ),
}


@pytest.mark.parametrize("world", sorted(_GOLDEN_WORLDS))
def test_write_microdata_is_byte_identical_to_golden_files(tmp_path, world):
    config, digests = _GOLDEN_WORLDS[world]
    bundle = build_world(config, 0)
    write_microdata(
        str(tmp_path), bundle.pop, bundle.census, bundle.pes, bundle.result,
        bundle.household_weight,
    )
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    if world == "sci-multi-block":
        for name in ("census.csv", "pes.csv", "codes.csv"):
            rows = (tmp_path / name).read_bytes().count(b"\n") - 1
            assert rows > 2 * DRAW_BLOCK, name


def _write_clean_microdata(tmp_path, **config_overrides):
    config = _small_config(**config_overrides)
    bundle = build_world(config, 0)
    out = tmp_path / "micro"
    write_microdata(
        str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
        bundle.household_weight,
    )
    return out


def _append(path, row):
    with open(path, "a", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(row)


def test_ingest_schema_errors(tmp_path):
    out = _write_clean_microdata(tmp_path)
    (out / "pes.csv").unlink()
    with pytest.raises(SchemaError, match="missing"):
        ingest_microdata(str(out))

    out2 = _write_clean_microdata(tmp_path / "b")
    (out2 / "codes.csv").write_text("totally,wrong,header\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="header"):
        ingest_microdata(str(out2))


def _edit_third_line(path, edit):
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = edit(lines[2])
    path.write_bytes(b"\r\n".join(lines))


# Each case's message, as recorded before the column parse was reworked.
_BOUNDARY_MESSAGES = {
    ("census.csv", "not-utf8"): "not UTF-8: byte 0xff at offset 132",
    ("pes.csv", "not-utf8"): "not UTF-8: byte 0xff at offset 153",
    ("codes.csv", "not-utf8"): "not UTF-8: byte 0xff at offset 62",
    ("weights.csv", "not-utf8"): "not UTF-8: byte 0xff at offset 111",
    ("codes.csv", "extra-field"): "expected 4 fields, found 5",
    ("codes.csv", "unclosed-quote"): "quote is never closed",
}


@pytest.mark.parametrize(
    "name, case",
    [(name, "not-utf8") for name in ("census.csv", "pes.csv", "codes.csv", "weights.csv")]
    + [("codes.csv", "extra-field"), ("codes.csv", "quoted"), ("codes.csv", "unclosed-quote")],
)
def test_ingest_file_boundary(tmp_path, name, case):
    out = _write_clean_microdata(tmp_path)
    path = out / name
    if case == "quoted":
        # Quoting every field, as csv.QUOTE_ALL writes it, changes nothing.
        expected = ingest_microdata(str(out), level="post_stratum")
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][0] != f'"{rows[1][0]}"'
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, quoting=csv.QUOTE_ALL).writerows(rows)
        assert path.read_text(encoding="utf-8").splitlines()[1].startswith('"')
        assert ingest_microdata(str(out), level="post_stratum") == expected
        return
    if case == "not-utf8":
        _edit_third_line(path, lambda line: line + b"\xff")
    elif case == "unclosed-quote":
        # An extra field whose opening quote swallows the rest of the file.
        _edit_third_line(path, lambda line: line + b',"')
    else:
        _edit_third_line(path, lambda line: line + b",extra")
    with pytest.raises(SchemaError) as excinfo:
        ingest_microdata(str(out))
    exc = excinfo.value
    message = _BOUNDARY_MESSAGES[name, case]
    assert (str(exc), exc.path, exc.row) == (f"{path}:row 3: {message}", str(path), 3)


def test_ingest_validation_issue_catalogue(tmp_path):
    out = _write_clean_microdata(tmp_path)

    with open(out / "codes.csv", newline="", encoding="utf-8") as handle:
        code_rows = list(csv.DictReader(handle))
    coded = {row["record_id"] for row in code_rows}

    with open(out / "census.csv", newline="", encoding="utf-8") as handle:
        census_rows = list(csv.DictReader(handle))
    uncoded_census = next(r for r in census_rows if r["record_id"] not in coded)
    cid = uncoded_census["record_id"]
    chh = uncoded_census["household_id"]

    # flip an existing survey-side code to one that only census records may carry
    flipped = next(r for r in code_rows if r["record_id"].startswith("p"))
    flipped["code"] = "51"
    with open(out / "codes.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["record_id", "phase", "code", "exclusion"])
        writer.writeheader()
        writer.writerows(code_rows)

    _append(out / "codes.csv", ["nobody", "initial", "10", ""])      # unknown record
    _append(out / "codes.csv", ["ghost", "initial", "99", ""])       # unknown code
    _append(out / "codes.csv", [cid, "initial", "20", ""])           # 20 on census side
    _append(out / "codes.csv", ["h0", "initial", "#", ""])           # marker, no reason
    _append(out / "census.csv", [cid, "0", chh, "d0000", "m_a0", "person", "1"])
    _append(out / "census.csv", ["cx", "9", chh, "d0000", "m_a0", "alias", "1"])
    _append(out / "pes.csv", ["px", "9", chh, "d0000", "m_a0", "lodger", "with_q"])
    with open(out / "weights.csv", newline="", encoding="utf-8") as handle:
        seen = [r for r in csv.DictReader(handle) if r["interviewed"] == "1"][-1]
    _append(out / "weights.csv", ["h-unknown", "d0000", "single_unit", "1", "not-a-number"])
    _append(out / "weights.csv", ["h-attic", "d0000", "attic", "1", "1.0"])
    _append(out / "weights.csv", ["h-flag", "d0000", "single_unit", "yes", "1.0"])
    reason = "temp-absent-no-questionnaire"
    _append(out / "codes.csv", ["h-phase", "later", "#", reason])    # unknown marker phase
    _append(out / "codes.csv", [seen["household_id"], "followup", "#", reason])  # interviewed
    _append(out / "codes.csv", ["h-none", "followup", "#", reason])  # not in the sample

    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    # The whole report, in order and word for word, as recorded before the
    # column parse was reworked.
    assert excinfo.value.issues == [
        "weights.csv row 361: weight for h-unknown is not a number: 'not-a-number'",
        "weights.csv row 362: household h-attic has unknown address_type 'attic'",
        "weights.csv row 363: household h-flag has bad interviewed flag 'yes'",
        "census.csv row 1107: duplicate record_id c0",
        "census.csv row 1108: record cx has unknown kind 'alias'",
        "pes.csv row 1079: record px has unknown roster 'lodger'",
        "codes.csv row 2: code 51 on a survey record p0",
        "codes.csv row 1246: record nobody not found in census or pes files",
        "codes.csv row 1247: unknown code '99'",
        "codes.csv row 1248: code 20 on a census record c0",
        "codes.csv row 1249: marker # needs an exclusion reason",
        "codes.csv row 1250: marker # has unknown phase 'later'",
        "codes.csv row 1251: household h358 is interviewed and marked #",
        "codes.csv row 1252: household h-none has no weight",
    ]


def test_issue_lists_name_a_few_rows_per_check_and_count_the_rest(tmp_path):
    out = _write_clean_microdata(tmp_path)
    census = (out / "census.csv").read_bytes().split(b"\r\n")
    records = [line.split(b",") for line in census[1:-1]]
    (out / "census.csv").write_bytes(b"\r\n".join(
        [census[0], *(b",".join([*fields[:5], b"alias", *fields[6:]]) for fields in records), b""]
    ))
    with open(out / "codes.csv", newline="", encoding="utf-8") as handle:
        on_census = [(row, record["record_id"])
                     for row, record in enumerate(csv.DictReader(handle), start=2)
                     if record["record_id"][0] in "cdf"]
    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    shown = _ISSUES_PER_CHECK
    assert len(records) > shown and len(on_census) > shown
    assert excinfo.value.issues == [
        *(f"census.csv row {row}: record {fields[0].decode()} has unknown kind 'alias'"
          for row, fields in enumerate(records[:shown], start=2)),
        f"census.csv row {shown + 2}: {len(records) - shown} more rows fail: "
        "record {record_id} has unknown kind {kind!r}",
        *(f"codes.csv row {row}: record {record_id} not found in census or pes files"
          for row, record_id in on_census[:shown]),
        f"codes.csv row {on_census[shown][0]}: {len(on_census) - shown} more rows fail: "
        "record {record_id} not found in census or pes files",
    ]


def test_rows_whose_text_is_not_kept_are_counted(tmp_path):
    # Ingest keeps the first texts of unknown kinds, two of which belong to
    # rows that report a duplicate id instead: the rows after them that
    # fail on their kind are counted, never looked up.
    out = _write_clean_microdata(tmp_path)
    census = (out / "census.csv").read_bytes().split(b"\r\n")
    records = [line.split(b",") for line in census[1:-1]]
    unknown = _ISSUES_PER_CHECK + 2
    for i in range(unknown):
        records[i][5] = b"kind%d" % i
    for i in (1, 2):
        records[i][0] = records[0][0]
    (out / "census.csv").write_bytes(
        b"\r\n".join([census[0], *(b",".join(fields) for fields in records), b""])
    )
    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    census_issues = [issue for issue in excinfo.value.issues if issue.startswith("census.csv")]
    first = records[0][0].decode()
    assert census_issues == [
        f"census.csv row 2: record {first} has unknown kind 'kind0'",
        f"census.csv row 3: duplicate record_id {first}",
        f"census.csv row 4: duplicate record_id {first}",
        *(f"census.csv row {i + 2}: record {records[i][0].decode()} has unknown kind 'kind{i}'"
          for i in range(3, _ISSUES_PER_CHECK)),
        f"census.csv row {_ISSUES_PER_CHECK + 2}: 2 more rows fail: "
        "record {record_id} has unknown kind {kind!r}",
    ]


def test_ingest_validation_issue_catalogue_of_the_other_checks(tmp_path):
    # Every id here is at most 8 bytes, so the ids join as integer keys;
    # the catalogue above joins them as bytes ("h-unknown" is 9 bytes).
    out = _write_clean_microdata(tmp_path)
    _append(out / "weights.csv", ["h0", "d0004", "single_unit", "1", "1.0"])
    _append(out / "weights.csv", ["h-neg", "d0000", "single_unit", "1", "-1"])
    _append(out / "census.csv", ["cy", "9", "h0", "d0004", "f_a3", "person", "2"])
    _append(out / "census.csv", ["cz", "9", "h-gone", "d0000", "m_a0", "person", "1"])
    _append(out / "pes.csv", ["p0", "0", "h101", "d0011", "f_a3", "non_mover", "with_q"])
    _append(out / "pes.csv", ["pz", "9", "h0", "d0004", "m_a0", "in_mover", "with_q"])
    # Words that hold a vocabulary word of 8 or more bytes as a prefix.
    _append(out / "pes.csv", ["py", "9", "h0", "d0004", "m_a0", "in_movers", "with_q"])
    _append(out / "census.csv", ["cw", "9", "h0", "d0004", "f_a3", "duplicates", "1"])
    _append(out / "codes.csv", ["h-x", "followupX", "#", "temp-absent-no-questionnaire"])
    _append(out / "codes.csv", ["p0", "initial", "10", ""])
    _append(out / "codes.csv", ["cz", "initial", "51", ""])
    _append(out / "codes.csv", ["pz", "initial", "42/1", ""])
    _append(out / "codes.csv", ["q1", "initial", 'é,"x', ""])

    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    assert excinfo.value.issues == [
        "weights.csv row 361: duplicate household h0",
        "weights.csv row 362: weight for h-neg must be finite and non-negative",
        "census.csv row 1107: record cy has bad target_scope '2'",
        "census.csv row 1109: record cw has unknown kind 'duplicates'",
        "pes.csv row 1079: duplicate record_id p0",
        "pes.csv row 1081: record py has unknown roster 'in_movers'",
        "codes.csv row 1246: marker # has unknown phase 'followupX'",
        "codes.csv row 1247: duplicate record_id p0",
        "codes.csv row 1248: household h-gone has no weight",
        "codes.csv row 1249: code 42/1 on an in-mover or birth record pz",
        "codes.csv row 1250: unknown code 'é,\"x'",
    ]


def test_ingest_flags_missing_weight(tmp_path):
    out = _write_clean_microdata(tmp_path)
    with open(out / "weights.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    with open(out / "weights.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows[1:])  # drop one household's weight
    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    assert any("has no weight" in issue for issue in excinfo.value.issues)


def test_survey_records_without_a_code_are_reported(tmp_path, capsys):
    # The writer codes every survey record, so a survey record that no
    # code row resolves to is a broken delivery, not a smaller total.
    bundle = build_world(_GOLDEN_WORLDS["adjusted-sampled"][0], 0)
    out = tmp_path / "micro"
    write_microdata(str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
                    bundle.household_weight)
    codes = (out / "codes.csv").read_bytes().split(b"\r\n")
    dropped = [line for line in codes if line.startswith(b"p")][5::40][:2]
    (out / "codes.csv").write_bytes(b"\r\n".join(line for line in codes if line not in dropped))
    pes_lines = (out / "pes.csv").read_bytes().split(b"\r\n")
    pes_ids = [line.split(b",")[0].decode() for line in pes_lines]
    rows = sorted(pes_ids.index(line.split(b",")[0].decode()) + 1 for line in dropped)
    with pytest.raises(ValidationError) as excinfo:
        ingest_microdata(str(out))
    assert excinfo.value.issues == [
        f"pes.csv row {row}: record {pes_ids[row - 1]} has no code" for row in rows
    ]
    assert cli_main(["validate", "--in", str(out)]) == 2
    assert cli_main(["estimate", "--in", str(out), "--level", "national"]) == 2
    assert "has no code" in capsys.readouterr().err


def test_cli_simulate_estimate_validate(tmp_path, capsys):
    out = tmp_path / "micro"
    assert cli_main(["simulate", "--out", str(out), "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["truth"]["true_total"] > 0
    assert "10" in report["code_counts"]

    assert cli_main(["validate", "--in", str(out)]) == 0
    assert capsys.readouterr().out.startswith("ok:")

    assert cli_main(["estimate", "--in", str(out), "--procedure", "a",
                     "--procedure", "b", "--f30", "omitted"]) == 0
    estimates = json.loads(capsys.readouterr().out)["groups"]["all"]["estimates"]
    assert estimates["procedure_a"]["estimate"] > 0
    assert "error" in estimates["procedure_b"]
    assert "percent_undercount" in estimates["fcode_omitted"]
    assert "fcode_numerator" not in estimates


def _expected_estimate(estimate):
    try:
        return estimate()
    except DegenerateInputs:
        return None


def test_cli_estimate_matches_simulation_in_adjusted_mode(tmp_path, capsys):
    # A sampled adjusted world with '#' households: the files carry their
    # reweighting, so the printed estimates are the simulation path's.
    config = _GOLDEN_WORLDS["adjusted-sampled"][0]
    config_path = tmp_path / "config.json"
    dump_config(config, str(config_path))
    out = tmp_path / "micro"
    assert cli_main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert ",followup,#," in (out / "codes.csv").read_text(encoding="utf-8")
    bundle = build_world(config, 0)
    for level in ("national", "post_stratum"):
        assert cli_main(["estimate", "--in", str(out), "--level", level]) == 0
        groups = json.loads(capsys.readouterr().out)["groups"]
        direct = tally_groups(bundle.pop, bundle.census, bundle.result, level=level,
                              household_weight=bundle.household_weight)
        assert set(groups) == set(direct)
        for label, tally in direct.items():
            expected = {
                f"procedure_{p}": _expected_estimate(
                    lambda: tally.census_correct() * mover_ratio(tally.movers, p))
                for p in ("a", "c")
            }
            expected.update({
                f"fcode_{p}": _expected_estimate(lambda: fcode_estimate(tally.fcode, p))
                for p in ("omitted", "numerator", "denominator")
            })
            printed = groups[label]["estimates"]
            assert any(value is not None for value in expected.values())
            for name, value in expected.items():
                if value is None:
                    assert "error" in printed[name], (level, label, name)
                else:
                    assert printed[name]["estimate"] == value, (level, label, name)


def test_cli_estimate_reports_a_zero_estimate_and_every_group(tmp_path, capsys):
    # Every census record of one post-stratum imputed: its correct
    # enumerations, and so its procedure A estimate, are zero.
    out = _write_clean_microdata(tmp_path)
    path = out / "census.csv"
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    kind, stratum = rows[0].index("kind"), rows[0].index("stratum")
    for row in rows[1:]:
        if row[stratum] == "m_a0":
            row[kind] = "imputed"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\r\n").writerows(rows)

    assert cli_main(["estimate", "--in", str(out), "--level", "post_stratum"]) == 0
    groups = json.loads(capsys.readouterr().out)["groups"]
    assert set(groups) == set(ingest_microdata(str(out), level="post_stratum"))
    assert groups["m_a0"]["census_correct"] == 0.0
    assert groups["m_a0"]["estimates"]["procedure_a"] == {
        "error": "estimated total must be positive, got 0.0"
    }
    assert groups["m_a0"]["estimates"]["fcode_omitted"]["estimate"] > 0
    assert all(
        "estimate" in groups[label]["estimates"]["procedure_a"]
        for label in groups if label != "m_a0"
    )


def test_cli_estimate_writes_report_file(tmp_path, capsys):
    out = tmp_path / "micro"
    cli_main(["simulate", "--out", str(out)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert cli_main(["estimate", "--in", str(out), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["level"] == "national"


def test_cli_validate_reports_issues(tmp_path, capsys):
    out = _write_clean_microdata(tmp_path)
    _append(out / "codes.csv", ["nobody", "initial", "10", ""])
    assert cli_main(["validate", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid: 1 issue(s)" in err
    assert "not found" in err


def test_cli_experiment_runs_from_config(tmp_path, capsys):
    config = _small_config(replicates=2, procedures=("a",), f30_placements=("omitted",))
    config_path = tmp_path / "config.json"
    dump_config(config, str(config_path))
    out = tmp_path / "run"
    code = cli_main(["experiment", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "procedure_a" in stdout
    assert (out / "summary.json").exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"population": {"persons": 500, "bogus": 1}}, "population.bogus"),
        ({"grouping": "national"}, "grouping must be a list"),
        ({"replicates": "3"}, "replicates"),
        ({"sample": {"psus_per_stratum": 3, "urban_take": 50, "rural_take": 100}},
         "sample.psus_per_stratum"),
        (None, "absent.json"),
        # json reads NaN and Infinity; a negative seed or replicate index
        # has no random stream.
        ({"base_seed": -1}, "base_seed"),
        ({"population": {"persons": 500, "mean_household_size": math.nan}},
         "population.mean_household_size"),
        ({"population": {"persons": 500, "mean_household_size": math.inf}},
         "population.mean_household_size"),
        ({"heterogeneity": math.nan}, "heterogeneity"),
        # A tuple replaces the `experiment` command, on the unedited config.
        (("experiment", "--seed", "-1"), "base_seed"),
        (("simulate", "--replicate", "-1"), "replicate"),
        # Integers past the 64-bit range the simulator computes in.
        ({"population": {"persons": 10**30}}, "population.persons"),
        ({"population": {"persons": 500, "mean_household_size": 10**400}},
         "population.mean_household_size"),
        # A repeated name would repeat every estimate row.
        ({"procedures": ["a", "a"]}, "procedures"),
        ({"grouping": []}, "grouping"),
        # Fewer persons than households: 1e-300 asked the simulator for
        # 1e303 households.
        ({"population": {"persons": 500, "mean_household_size": 1e-300}},
         "mean_household_size must be at least 1"),
        ({"population": {"persons": 500, "mean_household_size": 0.5}},
         "mean_household_size must be at least 1"),
        # Integers past the dtypes of a world's arrays: from 16,385 age
        # groups the int16 post-stratum wrapped negative, and from 32,768
        # it overflowed.
        ({"population": {"persons": 500, "age_groups": 16384}},
         "population.age_groups must be at most 16383"),
        ({"population": {"persons": 500, "age_groups": 20000}}, "population.age_groups"),
        ({"population": {"persons": 500, "age_groups": 32768}}, "population.age_groups"),
        # Household indices are int32; each mover may found a household.
        ({"population": {"persons": 2**31 - 1, "mover_rate": 0.1}}, "population.persons"),
        ({"population": {"persons": 8 * 10**9}}, "population.persons"),
        ({"population": {"persons": 500, "urban_districts": 2**31}},
         "population.provinces * (urban_districts + rural_districts)"),
        # The int32 count key of `CensusSim.counts`, 6 per joint cell.
        ({"population": {"persons": 500, "provinces": 10**6, "age_groups": 100}},
         "population.provinces * age_groups"),
        # One household and movers who join another: the destination draw
        # never ended.
        ({"population": {"persons": 3, "mover_rate": 0.5, "new_household_rate": 0.0}},
         "population.mover_rate must be 0, or new_household_rate 1"),
        # ... and the keys that made the one household are named in full.
        ({"population": {"persons": 4000, "mean_household_size": 2667, "mover_rate": 0.05}},
         "when population.persons=4000 and population.mean_household_size=2667 make one"),
    ],
)
def test_cli_config_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, edit, named):
    command = ("experiment",)
    built = []
    if isinstance(edit, tuple):
        command, edit = edit, {}
    else:
        # A config file's error is found before any world is built.
        for module in (covlab.cli, covlab.harness.experiment):
            monkeypatch.setattr(module, "build_world", lambda *args: built.append(args))
    path = tmp_path / "absent.json"
    if edit is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**_small_config().to_json(), **edit}), encoding="utf-8")
    code = cli_main([*command, "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert built == []


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--out", "{file}"),
        ("experiment", "--replicates", "1", "--out", "{file}"),
        ("estimate", "--in", "{micro}", "--out", "{micro}"),
        ("estimate", "--in", "{micro}", "--out", "{missing}/report.json"),
        ("estimate", "--in", "{file}"),
        ("validate", "--in", "{file}"),
    ],
)
def test_cli_filesystem_errors_exit_2_without_traceback(tmp_path, capsys, monkeypatch, command):
    paths = {"file": tmp_path / "plain.txt", "micro": tmp_path / "micro",
             "missing": tmp_path / "missing"}
    paths["file"].write_text("not a directory\n", encoding="utf-8")
    if "{micro}" in command:
        _write_clean_microdata(tmp_path)
    config = tmp_path / "config.json"
    dump_config(_small_config(), str(config))
    argv = [part.format(**paths) for part in command]
    if argv[0] in ("simulate", "experiment"):
        argv += ["--config", str(config)]
    # A bad --out fails before any world is built.
    built = []
    for module in (covlab.cli, covlab.harness.experiment):
        monkeypatch.setattr(module, "build_world", lambda *args: built.append(args))
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert built == []


def test_cli_missing_directory_is_a_schema_error(tmp_path, capsys):
    assert cli_main(["estimate", "--in", str(tmp_path / "nowhere")]) == 2
    assert "error:" in capsys.readouterr().err


# Bytes per person of the traced peak of building a world of a benchmark
# workload's shape at 200k persons and its record table, with 10% slack.
# The field-shaped world: 60.6 measured; a record table built in one pass
# over every record read 64.8, int64 household indices 74.3, and memoized
# home arrays and full-length uniforms 90.8.  The clean world, whose full
# frame codes every person: 70.9 measured, its peak in matching, which now
# holds the target scope and household province-strata the world builds
# with it (68.8 when they were made on first use, after matching); a
# one-pass record table read 106.6, and per-person capture thresholds, an
# eagerly drawn propensity and looked-up unit weights 123.4.
_WORLD_BYTES_PER_PERSON = {"mc-field-1m": 67.0, "mc-clean-50k": 76.0}


@pytest.mark.parametrize("workload", list(_WORLD_BYTES_PER_PERSON))
def test_world_build_holds_little_beyond_the_world(workload):
    config = perfbench_workloads().mc_config(workload, 7)
    config = dataclasses.replace(
        config, population=dataclasses.replace(config.population, persons=200_000)
    )
    tracemalloc.start()
    try:
        bundle = build_world(config, 0)
        record_table(bundle.pop, bundle.census, bundle.result, bundle.household_weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / config.population.persons <= _WORLD_BYTES_PER_PERSON[workload]


# Traced peaks of microdata I/O on a 200k-person sci world, per byte of its
# four files: the writer's above the world it formats (0.306 measured) and
# ingest's (1.22 measured), each with 10% slack.  Whole-file matrices on the
# way out and whole-file temporaries on the way in read 2.02 and 3.65; a
# writer that built the whole record table, cells, weights and census side
# included, read 0.72.
_WRITE_PEAK_PER_BYTE = 0.34
_INGEST_PEAK_PER_BYTE = 1.34


@pytest.fixture(scope="module")
def sci_200k_files(tmp_path_factory):
    """The benchmark's 200k sci world written to files, with the writer's
    traced peak above the world."""
    config = perfbench_workloads().microdata_configs(1)["sci"]
    bundle = build_world(config, 0)
    out = tmp_path_factory.mktemp("sci-200k")
    tracemalloc.start()
    try:
        write_microdata(str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
                        bundle.household_weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak, sum(path.stat().st_size for path in out.iterdir())


def test_write_microdata_holds_little_beyond_the_world(sci_200k_files):
    _, peak, size = sci_200k_files
    assert peak / size <= _WRITE_PEAK_PER_BYTE


# A valid non-ASCII stratum label, whose text once made the UTF-8 check
# decode the rest of the file into one string, and a quote never closed,
# whose row was once found by whole-file masks.
_INGEST_INPUTS = {
    "clean": ("census.csv", lambda lines: lines),
    "non-ascii-label": ("census.csv", lambda lines: [
        lines[0], b",".join([*lines[1].split(b",")[:4], "تهران".encode("utf-8"),
                             *lines[1].split(b",")[5:]]), *lines[2:],
    ]),
    "unclosed-quote": ("pes.csv", lambda lines: [*lines[:-2], b'"' + lines[-2], lines[-1]]),
    # Every census record of an unknown kind: each fails a check, and so
    # does every code on a census record.
    "wholly-bad-column": ("census.csv", lambda lines: [lines[0], *(
        b",".join([*line.split(b",")[:5], b"alias", *line.split(b",")[6:]])
        for line in lines[1:-1]
    ), lines[-1]]),
}


@pytest.mark.parametrize("case", list(_INGEST_INPUTS))
def test_ingest_holds_little_beyond_one_file(tmp_path, sci_200k_files, case):
    out, _, size = sci_200k_files
    name, edit = _INGEST_INPUTS[case]
    for path in out.iterdir():
        data = path.read_bytes()
        if path.name == name:
            data = b"\r\n".join(edit(data.split(b"\r\n")))
        (tmp_path / path.name).write_bytes(data)
    size = sum(path.stat().st_size for path in tmp_path.iterdir())
    tracemalloc.start()
    try:
        if case == "unclosed-quote":
            with pytest.raises(SchemaError, match="quote is never closed") as caught:
                ingest_microdata(str(tmp_path), level="post_stratum")
            rows = (tmp_path / name).read_bytes().count(b"\n")
            assert caught.value.row == rows
        elif case == "wholly-bad-column":
            with pytest.raises(ValidationError) as caught:
                ingest_microdata(str(tmp_path), level="post_stratum")
            assert len(caught.value.issues) == 2 * (_ISSUES_PER_CHECK + 1)
        else:
            ingest_microdata(str(tmp_path), level="post_stratum")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / size <= _INGEST_PEAK_PER_BYTE
