"""Microdata file layer: the array formatter and parser against Python's own
formatting and csv module, and ingest of mutated files."""

import csv
import io
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from covlab.cli import main as cli_main
from covlab.errors import SchemaError, ValidationError
from covlab.harness import ExperimentConfig, SampleSpec, build_world, ingest_microdata
from covlab.harness import write_microdata
from covlab.harness.ingest import _digits, _float_text, _read_columns
from covlab.matching import MatchErrorModel
from covlab.popsim import PopulationConfig


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
