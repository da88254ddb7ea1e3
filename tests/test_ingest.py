"""Microdata file layer: the array formatter and parser against Python's own
formatting and csv module, and ingest of mutated files."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import typing
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from covlab.cli import main as cli_main
from covlab.errors import DomainError, SchemaError, ValidationError
from covlab.harness import ExperimentConfig, SampleSpec, build_world, ingest_microdata
from covlab.harness import write_microdata
from covlab.harness import ingest as ingest_module
from covlab.harness.ingest import (
    _Index, _digits, _float_text, _hash, _index_type, _read_columns, _text,
)
from covlab.estimators import FCodeTallies, MoverTallies
from covlab.matching import EXCLUSION_MARKERS, MatchErrorModel, MatchTallies, tally_groups
from covlab.popsim import PES_STATUSES, FileLevel, PopulationConfig
from oracles import EMPTY_SAMPLE, assert_ingest_equals_tallies


def _rows(matrix: np.ndarray) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode("utf-8") for row in matrix]


_POWERS = [10**k + d for k in range(19) for d in (-1, 0, 1)]


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40))
@example([0, 9, 10, 99, 100])
@example(_POWERS)
@example([])
def test_digits_equal_percent_d(values):
    array = np.array(values, dtype=np.int64)
    assert _rows(_digits(array)) == ["%d" % v for v in values]
    assert _rows(_digits(array, min_width=4)) == ["%04d" % v for v in values]


@given(st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(min_value=0, max_value=2**53).map(float)),
    max_size=40,
))
@example([5e-324, 1e16, 0.0, -0.0, 1.0, 1 / 3, 1e-7, 1e22, 2.5e-5, 1.7976931348623157e308])
@example([])
def test_float_text_equals_repr(values):
    assert _rows(_float_text(np.array(values, dtype=np.float64))) == [repr(v) for v in values]


_FIELD = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                 max_size=12)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(_FIELD, _FIELD, _FIELD), max_size=20),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    terminator=st.sampled_from(["\r\n", "\n"]),
)
def test_sliced_columns_equal_csv_reader(tmp_path, rows, quoting, terminator):
    # csv.writer leaves a lone \r unquoted unless it is part of the line
    # terminator, and csv.reader then ends the line there.
    assume(terminator == "\r\n" or not any("\r" in field for row in rows for field in row))
    header = ["a", "b", "c"]
    text = io.StringIO(newline="")
    writer = csv.writer(text, quoting=quoting, lineterminator=terminator)
    writer.writerow(header)
    writer.writerows(rows)
    (tmp_path / "f.csv").write_bytes(text.getvalue().encode("utf-8"))
    expected = list(csv.reader(io.StringIO(text.getvalue(), newline="")))[1:]
    columns = _read_columns(str(tmp_path), "f.csv", header, tuple(header))
    got = [[columns[name][i].decode("utf-8") for name in header] for i in range(len(rows))]
    assert got == expected
    # Read as keys: a uint64 per field when the column's fields fit 8 bytes.
    keys = _read_columns(str(tmp_path), "f.csv", header, tuple(header), keys=tuple(header))
    assert [[_text(keys[name][i]) for name in header] for i in range(len(rows))] == expected


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(_FIELD, _FIELD, _FIELD), max_size=20),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    chunk=st.integers(min_value=1, max_value=16),
)
def test_sliced_columns_equal_csv_reader_in_small_chunks(tmp_path, rows, quoting, chunk):
    # Lines, quoted fields and doubled quotes that span the chunks a file is
    # scanned in, and fields longer than 8 bytes in some chunks only.
    text = io.StringIO(newline="")
    csv.writer(text, quoting=quoting).writerows([["a", "b", "c"], *rows])
    (tmp_path / "f.csv").write_bytes(text.getvalue().encode("utf-8"))
    expected = list(csv.reader(io.StringIO(text.getvalue(), newline="")))[1:]
    # Every field outside the vocabulary is kept, not only those a capped
    # issue list can show.
    with mock.patch.object(ingest_module, "_CHUNK", chunk), \
            mock.patch.object(ingest_module, "_ISSUES_PER_CHECK", len(rows)):
        columns = _read_columns(str(tmp_path), "f.csv", ["a", "b", "c"], ("a", "c"),
                                keys=("c",), vocabularies={"c": ("", "x", "longer word")})
    assert [[columns["a"][i].decode("utf-8"), columns["c"][i].decode("utf-8")]
            for i in range(len(rows))] == [[row[0], row[2]] for row in expected]


def _sharing_a_slot() -> list[int]:
    """Two keys whose hashes agree in their top 20 bits, so that they share
    a slot of every table up to 2**20 slots that `_Index` builds: the
    first such pair among the keys from 1 up, pinned because a search
    takes seconds (`test_the_pinned_keys_share_a_slot` checks it)."""
    return [5, 514234]


def test_the_pinned_keys_share_a_slot():
    first, second = _hash(np.array(_sharing_a_slot(), dtype=np.uint64)) >> np.uint64(44)
    assert first == second


@given(
    st.lists(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30),
             min_size=1, max_size=3),
    st.sampled_from(["few", "many", "bytes"]),
)
@example([_sharing_a_slot() * 3, [7]], "many")
@example([[], []], "few")
def test_cells_equal_np_unique(columns, kind):
    # The index's positions of the columns joined are their cells.
    if kind == "few":
        columns = [[value % 5 * 2**59 + 3 for value in column] for column in columns]
    arrays = [np.array(column, dtype=np.uint64) for column in columns]
    if kind == "bytes":
        arrays = [column.astype(">u8").view("S8") for column in arrays]
    values, positions = _Index(np.concatenate(arrays)).positions()
    expected, inverse = np.unique(np.concatenate(arrays), return_inverse=True)
    assert values.tolist() == expected.tolist()
    assert positions.tolist() == inverse.ravel().tolist()
    assert positions.dtype == _index_type(expected.shape[0])


@st.composite
def _keys_and_queries(draw):
    """Keys and queries drawn from one small pool, so that both repeat, in
    the order given, sorted, or as two sorted runs."""
    pool = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1,
                         max_size=8, unique=True))
    keys = draw(st.lists(st.sampled_from(pool), max_size=30))
    queries = draw(st.lists(
        st.one_of(st.sampled_from(pool), st.integers(min_value=0, max_value=2**64 - 1)),
        max_size=30,
    ))
    order = draw(st.sampled_from(["given", "sorted", "runs"]))
    if order == "sorted":
        keys, queries = sorted(keys), sorted(queries)
    elif order == "runs":
        cut = draw(st.integers(min_value=0, max_value=len(keys)))
        keys = sorted(keys[:cut]) + sorted(keys[cut:])
        cut = draw(st.integers(min_value=0, max_value=len(queries)))
        queries = sorted(queries[:cut]) + sorted(queries[cut:])
    return keys, queries


@given(_keys_and_queries(), st.booleans())
@example(([], [0, 1]), False)
@example(([5, 5, 5], [5]), True)
# Long runs of equal keys: the first row of a key is the first of its run.
@example(([7, 3, 2**63 + 5] * 20, [3, 7, 2**63 + 5, 4]), False)
@example(([7, 3, 2**63 + 5] * 20, [3, 7, 2**63 + 5, 4]), True)
@example((_sharing_a_slot() * 3, [*_sharing_a_slot(), 7]), False)
def test_lookups_and_repeats_equal_a_dict(case, as_bytes):
    keys, queries = case
    first: dict[int, int] = {}
    for row, key in enumerate(keys):
        first.setdefault(key, row)
    key_array = np.array(keys, dtype=np.uint64)
    query_array = np.array(queries, dtype=np.uint64)
    if as_bytes:
        # The big-endian bytes sort and compare as the integers do.
        key_array = key_array.astype(">u8").view("S8")
        query_array = query_array.astype(">u8").view("S8")
    index = _Index(key_array)
    assert index.find(query_array).tolist() == [first.get(query, -1) for query in queries]
    assert index.repeats.tolist() == [first[key] < row for row, key in enumerate(keys)]
    repeats = [query in queries[:row] for row, query in enumerate(queries)]
    assert _Index(query_array).repeats.tolist() == repeats


# A small sampled adjusted world with every pathology, so that the files
# hold every code, marker and reweighted '#' household.
_FUZZ_CONFIG = ExperimentConfig(
    name="fuzz", base_seed=3,
    population=PopulationConfig(persons=600, mover_rate=0.05, birth_rate=0.02,
                                death_rate=0.02, institutional_rate=0.02),
    ee_rate=0.02, ii_rate=0.02, listed_nonresponse_rate=0.1, proxy_miss=0.1,
    absent_rate=0.15, unlisted_rate=0.1, exclusion_mode="adjusted",
    errors=MatchErrorModel(false_nonmatch=0.1, false_match=0.05, resolution_flip=0.1,
                           household_false_nonmatch=0.05),
    sample=SampleSpec(psus_per_stratum=2, urban_take=40, rural_take=60),
)
_FILES = ("census.csv", "pes.csv", "codes.csv", "weights.csv")


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz-clean")
    bundle = build_world(_FUZZ_CONFIG, 0)
    write_microdata(str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
                    bundle.household_weight)
    files = {name: (out / name).read_bytes() for name in _FILES}
    assert b",followup,#," in files["codes.csv"]
    return files


_ODD_VALUES = st.sampled_from([
    "", "#", "§", "¶", "99", "42/9", "10", "51", "-1", "-0.5", "nan", "NaN", "inf", "1e400",
    "abc", '"', '""', "h0", "c0", "p0", "d0000", "x" * 300, "é", "initial", "followup", "0",
    "1", "2", "person", "fabricated", "birth", "single_unit", "attic",
    "temp-absent-no-questionnaire", ",", "\r",
])
_MUTATION = st.tuples(
    st.sampled_from(_FILES),
    st.sampled_from(["truncate-row", "truncate-file", "swap-fields", "empty-field",
                     "stray-quote", "doubled-quote", "duplicate-row", "set-field"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.one_of(_ODD_VALUES, _FIELD),
)


def _mutate(data: bytes, kind: str, at: int, field: int, value: str) -> bytes:
    if kind == "truncate-file":
        return data[:at % (len(data) + 1)]
    lines = data.split(b"\r\n")
    row = at % len(lines)
    fields = lines[row].split(b",")
    column = field % len(fields)
    if kind == "truncate-row":
        lines[row] = lines[row][:field % (len(lines[row]) + 1)]
    elif kind == "swap-fields":
        fields[column], fields[-1 - column] = fields[-1 - column], fields[column]
        lines[row] = b",".join(fields)
    elif kind == "empty-field":
        fields[column] = b""
        lines[row] = b",".join(fields)
    elif kind in ("stray-quote", "doubled-quote"):
        cut = field % (len(lines[row]) + 1)
        quote = b'"' if kind == "stray-quote" else b'""'
        lines[row] = lines[row][:cut] + quote + lines[row][cut:]
    elif kind == "duplicate-row":
        lines.insert(row, lines[row])
    else:
        fields[column] = value.encode("utf-8")
        lines[row] = b",".join(fields)
    return b"\r\n".join(lines)


_ISSUE = re.compile(r"(census|pes|codes|weights)\.csv row \d+: ")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3),
       level=st.sampled_from(["national", "post_stratum"]))
def test_mutated_microdata_fails_only_with_located_errors(tmp_path, clean_files, mutations,
                                                           level):
    files = dict(clean_files)
    for name, *mutation in mutations:
        files[name] = _mutate(files[name], *mutation)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    try:
        ingest_microdata(str(tmp_path), level=level)
    except SchemaError as exc:
        assert os.path.basename(exc.path) in _FILES
        assert exc.row is not None and exc.row >= 1
    except ValidationError as exc:
        assert exc.issues
        assert all(_ISSUE.match(issue) for issue in exc.issues), exc.issues


@pytest.mark.parametrize("case", ["missing", "directory", "inside-a-file"])
def test_unreadable_files_raise_schema_errors_naming_them(tmp_path, capsys, clean_files, case):
    for name, data in clean_files.items():
        (tmp_path / name).write_bytes(data)
    in_dir = tmp_path
    if case == "missing":
        (tmp_path / "pes.csv").unlink()
    elif case == "directory":
        (tmp_path / "pes.csv").unlink()
        (tmp_path / "pes.csv").mkdir()
    else:
        in_dir = tmp_path / "pes.csv"
    path = os.path.join(str(in_dir), "census.csv" if case == "inside-a-file" else "pes.csv")
    reason = "file is missing" if case == "missing" else r"cannot read file \(.+\)"
    with pytest.raises(SchemaError, match=f"^{re.escape(path)}: {reason}$") as excinfo:
        ingest_microdata(str(in_dir))
    assert excinfo.value.path == path
    assert cli_main(["validate", "--in", str(in_dir)]) == 2
    err = capsys.readouterr().err
    assert path in err and "Traceback" not in err


@pytest.mark.parametrize("rows", ["two", "all"])
@pytest.mark.parametrize("command", ["validate", "estimate"])
def test_weights_overflowing_the_totals_exit_2(tmp_path, capsys, clean_files, rows, command):
    # Each weight is finite, but their weighted totals pass the float range;
    # with every weight that large, 0 * inf in the tally would make NaN.
    lines = clean_files["weights.csv"].split(b"\r\n")
    for i in range(1, 3 if rows == "two" else len(lines)):
        if lines[i]:
            lines[i] = lines[i].rsplit(b",", 1)[0] + b",1e308"
    for name, data in clean_files.items():
        (tmp_path / name).write_bytes(b"\r\n".join(lines) if name == "weights.csv" else data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main([command, "--in", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(r"weights\.csv row \d+: weight 1e308 .* overflow", err), err
    assert "Traceback" not in err and "Warning" not in err


def test_weights_squared_past_the_float_range_give_finite_fcode_estimates(
    tmp_path, capsys, clean_files
):
    # Every weight 1e200: the totals stay near 1e204, but the both-missed
    # cell's product of two omission totals would be near 1e408.
    lines = clean_files["weights.csv"].split(b"\r\n")
    for i in range(1, len(lines)):
        if lines[i]:
            lines[i] = lines[i].rsplit(b",", 1)[0] + b",1e200"
    for name, data in clean_files.items():
        (tmp_path / name).write_bytes(b"\r\n".join(lines) if name == "weights.csv" else data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["estimate", "--in", str(tmp_path)])
    assert code == 0
    estimates = json.loads(capsys.readouterr().out)["groups"]["all"]["estimates"]
    fcode = {name: entry for name, entry in estimates.items() if name.startswith("fcode_")}
    assert len(fcode) == 3
    for name, entry in fcode.items():
        assert "error" not in entry, (name, entry)
        assert math.isfinite(entry["estimate"]) and entry["estimate"] > 1e200, (name, entry)
    assert math.isfinite(estimates["procedure_a"]["estimate"])


@pytest.mark.parametrize("world", ["empty-sample", "one-census-row"])
def test_files_with_no_weights_row_ingest_and_run(tmp_path, capsys, world):
    # A census record outside the sample gathered its weight at index -1 of
    # the weights, which raised IndexError when weights.csv had no row.
    bundle = build_world(EMPTY_SAMPLE, 0)
    write_microdata(str(tmp_path), bundle.pop, bundle.census, bundle.pes, bundle.result,
                    bundle.household_weight)
    for name in ("pes.csv", "codes.csv", "weights.csv"):
        assert (tmp_path / name).read_bytes().count(b"\n") == 1, name
    if world == "empty-sample":
        count = 46
        expected = {level: tally_groups(bundle.pop, bundle.census, bundle.result, level=level,
                                        household_weight=bundle.household_weight)
                    for level in typing.get_args(FileLevel)}
    else:
        count = 1
        header = (tmp_path / "census.csv").read_bytes().split(b"\r\n")[0]
        (tmp_path / "census.csv").write_bytes(header + b"\r\nc0,0,h0,d0000,m_a0,person,1\r\n")
        one = MatchTallies(fcode=FCodeTallies(0.0, 0.0), movers=MoverTallies(0, 0, 0, 0, 0),
                           census_count=1.0, imputations=0.0, e_sample=0.0, erroneous=0.0)
        expected = {"national": {"all": one}, "post_stratum": {"m_a0": one}}
    assert (tmp_path / "census.csv").read_bytes().count(b"\n") == count + 1
    for level, direct in expected.items():
        assert_ingest_equals_tallies(direct, ingest_microdata(str(tmp_path), level=level))
    assert cli_main(["validate", "--in", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"ok: 1 group(s), census count {count}\n"
    assert cli_main(["estimate", "--in", str(tmp_path), "--level", "post_stratum"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def full_frame(tmp_path_factory):
    """A full-frame world of the fuzz config's pathologies whose households
    take all five survey statuses and all three excluded cells, written."""
    config = dataclasses.replace(
        _FUZZ_CONFIG, sample=None,
        population=dataclasses.replace(_FUZZ_CONFIG.population, persons=3000),
    )
    bundle = build_world(config, 0)
    assert set(bundle.pes.hh_status.tolist()) == set(range(len(PES_STATUSES)))
    assert set(bundle.result.hh_cell.tolist()) >= set(EXCLUSION_MARKERS)
    out = tmp_path_factory.mktemp("full-frame")
    write_microdata(str(out), bundle.pop, bundle.census, bundle.pes, bundle.result,
                    bundle.household_weight)
    return bundle, out


def _csv_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_written_statuses_and_markers_are_the_declared_ones(full_frame):
    bundle, out = full_frame
    pes = _csv_rows(out / "pes.csv")
    status = bundle.pes.hh_status[[int(row["household_id"][1:]) for row in pes]]
    assert [row["reported_status"] for row in pes] == [PES_STATUSES[s] for s in status]
    symbols = {symbol for symbol, _ in EXCLUSION_MARKERS.values()}
    markers = [row for row in _csv_rows(out / "codes.csv") if row["code"] in symbols]
    marked = [int(row["record_id"][1:]) for row in markers]
    cell = bundle.result.hh_cell
    assert sorted(marked) == np.flatnonzero(np.isin(cell, list(EXCLUSION_MARKERS))).tolist()
    assert [(row["code"], row["exclusion"]) for row in markers] == [
        EXCLUSION_MARKERS[cell[household]] for household in marked
    ]
    assert {row["code"] for row in markers} == symbols


def test_an_underscored_weight_is_not_a_number(tmp_path, capsys, full_frame):
    # Python's float, and numpy's with it, reads "1_0" as 10.0.
    _, out = full_frame
    for name in _FILES:
        (tmp_path / name).write_bytes((out / name).read_bytes())
    header, first, rest = (out / "weights.csv").read_bytes().split(b"\r\n", 2)
    household, weight = first.split(b",")[0].decode(), first.split(b",")[-1]
    assert weight == b"1.0"
    (tmp_path / "weights.csv").write_bytes(
        b"\r\n".join([header, first[:-len(weight)] + b"1_0", rest])
    )
    with pytest.raises(ValidationError) as caught:
        ingest_microdata(str(tmp_path))
    # The household's records then have no weight either.
    assert caught.value.issues[0] == (
        f"weights.csv row 2: weight for {household} is not a number: '1_0'"
    )
    assert cli_main(["validate", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "negative", "one-short"])
def test_write_microdata_refuses_bad_weights_before_writing(tmp_path, full_frame, bad):
    bundle = full_frame[0]
    weight = np.ones(bundle.pop.households.count)
    if bad == "one-short":
        weight = weight[:-1]
    else:
        weight[0] = np.nan if bad == "nan" else -1.0
    with pytest.raises(DomainError):
        write_microdata(str(tmp_path), bundle.pop, bundle.census, bundle.pes, bundle.result,
                        weight)
    assert os.listdir(tmp_path) == []
