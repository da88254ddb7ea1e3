"""Microdata round trip: matched worlds to delimited files and back.

Four files describe one matched world:

    census.csv   one row per census record (kind: person, imputed,
                 duplicate, fabricated), the full universe
    pes.csv      one row per survey-collected record: roster persons and
                 out-mover reports, sample only
    codes.csv    final code per record, one row per matched pair or
                 unmatched record (the census half of a pair is omitted to
                 keep ingest from double counting), plus household
                 exclusion markers (#, §, ¶)
    weights.csv  household weight for every sampled household; doubles as
                 the sample membership list

Files are UTF-8 text, comma separated, one record per line.  Fields may be
quoted as the csv module quotes them; any other deviation (bytes that are
not UTF-8, a wrong header, a row with the wrong number of fields) raises
SchemaError naming the file and row.

Both directions go through `matching.RecordTable`: the writer formats the
table that `tally_groups` reduces, and ingest parses the files back into
the same columns and reduces them with the same `tally_records`.  Ingest
validates before it tallies and reports every problem at once, so a bad
delivery surfaces as one exception listing all issues.

The files do not carry the '#' reweighting of adjusted exclusion mode (they
have no address type to rebuild it from), so estimates from adjusted-mode
files differ from the simulation path's; perfbench counts this as the known
defect `adjusted-ingest-skips-hash-reweighting`.
"""

from __future__ import annotations

import csv
import io
import itertools
import os

import numpy as np

from ..errors import ConfigError, SchemaError, ValidationError
from ..matching import (
    CELL_HASH,
    CELL_PILCROW,
    CELL_SECT,
    CENSUS_KINDS,
    CODE_10,
    CODE_20,
    CODE_30,
    CODE_42_1,
    CODE_42_2,
    CODE_42_4,
    CODE_BY_LABEL,
    CODE_LABELS,
    CODE_SIDE,
    EXCLUSION_MARKERS,
    ID_PREFIXES,
    KIND_FABRICATED,
    ROLE_BIRTH,
    ROLE_IN_MOVER,
    ROSTER_ROLES,
    SIDE_CENSUS,
    SIDE_SURVEY,
    SOURCE_REPORT,
    SOURCE_ROSTER,
    MatchResult,
    MatchTallies,
    RecordTable,
    record_table,
    tally_records,
)
from ..popsim import CensusSim, PesSim, Population

__all__ = ["write_microdata", "ingest_microdata"]

_CENSUS_HEADER = [
    "record_id", "person_id", "household_id", "district_id", "stratum", "kind", "target_scope",
]
_PES_HEADER = [
    "record_id", "person_id", "household_id", "district_id", "stratum", "roster",
    "reported_status",
]
_CODES_HEADER = ["record_id", "phase", "code", "exclusion"]
_WEIGHTS_HEADER = ["household_id", "weight"]

# Survey household status labels, indexed by the PES_* status.
_PES_STATUSES = ("with_q", "absent", "not_listed", "vacant", "vacant_missed")

_MARKER_CELLS = {"#": CELL_HASH, "§": CELL_SECT, "¶": CELL_PILCROW}

# Codes settled in the initial matching phase unless the record was
# recovered by the adjusted-mode follow-up or is an out-mover report.
_INITIAL_CODES = (CODE_10, CODE_20, CODE_30, CODE_42_1, CODE_42_2)


def _write(path: str, header: list[str], *blocks: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(blocks)


def _lines(fmt: str, *columns: np.ndarray) -> str:
    """One line `fmt % row` for every row of the columns."""
    return "".join(map(fmt.__mod__, zip(*(column.tolist() for column in columns))))


def _joined(*vocabularies) -> np.ndarray:
    """Every comma-joined combination of one word from each vocabulary,
    indexed by the mixed-radix position of the words."""
    return np.array(
        [",".join(map(str, words)) for words in itertools.product(*vocabularies)], dtype=object
    )


def write_microdata(
    out_dir: str,
    pop: Population,
    census: CensusSim,
    pes: PesSim,
    result: MatchResult,
    household_weight: np.ndarray | None = None,
) -> None:
    """Write the four-file microdata set for one matched world.

    Each line is one `%` format of a few columns; columns that take only a
    few values are joined beforehand into one lookup table.
    """
    os.makedirs(out_dir, exist_ok=True)
    table = record_table(pop, census, result, household_weight)
    strata = pop.stratum_labels
    place = np.array(
        [f"h{hh},d{d:04d}" for hh, d in enumerate(pop.households.district.tolist())],
        dtype=object,
    )

    kind = table.census_kind.astype(np.int64)
    person_id = table.census_number.astype(object)
    person_id[kind == KIND_FABRICATED] = ""
    _write(os.path.join(out_dir, "census.csv"), _CENSUS_HEADER, _lines(
        "%s%d,%s,%s,%s\r\n",
        np.array(("c", "c", "d", "f"), dtype=object)[kind],  # id prefix by kind
        table.census_number,
        person_id,
        place[table.census_household],
        _joined(strata, CENSUS_KINDS, (0, 1))[
            (table.census_stratum * len(CENSUS_KINDS) + kind) * 2 + table.census_in_scope
        ],
    ))

    prefix = np.array(ID_PREFIXES, dtype=object)[table.source]
    survey = np.flatnonzero(table.side == SIDE_SURVEY)
    # Roster records first, then reports, each by person.
    survey = survey[np.lexsort((table.number[survey], table.source[survey]))]
    household = table.household[survey]
    _write(os.path.join(out_dir, "pes.csv"), _PES_HEADER, _lines(
        "%s%d,%d,%s,%s\r\n",
        prefix[survey],
        table.number[survey],
        table.number[survey],
        place[household],
        _joined(strata, ROSTER_ROLES, _PES_STATUSES)[
            (table.stratum[survey] * len(ROSTER_ROLES) + table.role[survey]) * len(_PES_STATUSES)
            + pes.hh_status[household]
        ],
    ))

    recovered = np.isin(result.hh_cell[table.household], (CELL_SECT, CELL_PILCROW))
    followup = ~np.isin(table.code, _INITIAL_CODES) | (table.source == SOURCE_REPORT) | (
        (table.source == SOURCE_ROSTER) & recovered
    )
    codes = sorted(CODE_LABELS)
    phase_code = _joined(("initial", "followup"), [CODE_LABELS[c] for c in codes], ("",))
    mask = result.household_mask
    _write(
        os.path.join(out_dir, "codes.csv"), _CODES_HEADER,
        _lines("%s%d,%s\r\n", prefix, table.number,
               phase_code[followup * len(codes) + np.searchsorted(codes, table.code)]),
        *(_lines(f"h%d,initial,{code},{EXCLUSION_MARKERS[cell]}\r\n",
                 np.flatnonzero((result.hh_cell == cell) & mask))
          for code, cell in _MARKER_CELLS.items()),
    )

    sampled = np.flatnonzero(mask)
    weight = np.ones(pop.households.count) if household_weight is None else household_weight
    _write(os.path.join(out_dir, "weights.csv"), _WEIGHTS_HEADER,
           _lines("h%d,%r\r\n", sampled, np.asarray(weight, dtype=np.float64)[sampled]))


def _read_columns(in_dir: str, name: str, header: list[str], columns: tuple[str, ...]
                  ) -> dict[str, np.ndarray]:
    """The named columns of one file, each field as its UTF-8 bytes.

    One np.loadtxt pass parses the file, with every field width measured
    from the data first so that no field is truncated.  loadtxt reads the
    bytes as latin-1, one character per byte, so the byte-string columns
    it returns hold each field's UTF-8 bytes unchanged.
    """
    path = os.path.join(in_dir, name)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise SchemaError("file is missing", path=path) from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"not UTF-8: byte {raw[exc.start]:#04x} at offset {exc.start}",
            path=path, row=raw.count(b"\n", 0, exc.start) + 1,
        ) from None
    first = next(csv.reader(io.StringIO(text, newline="")), None)
    if first is None:
        raise SchemaError("file is empty, expected a header", path=path)
    if first != header:
        raise SchemaError(f"header mismatch: expected {header}, found {first}", path=path)
    if not raw.endswith(b"\n"):
        raw += b"\n"

    # Field ends: commas and newlines outside quotes.  A quote toggles
    # quoting, and a doubled quote inside a quoted field toggles it twice.
    buf = np.frombuffer(raw, dtype=np.uint8)
    cut = (buf == ord(",")) | (buf == ord("\n"))
    if b'"' in raw:
        cut &= (np.cumsum(buf == ord('"'), dtype=np.uint8) & 1) == 0
    ends = np.flatnonzero(cut)
    line_ends = np.flatnonzero(buf[ends] == ord("\n"))
    fields = np.diff(line_ends, prepend=-1)
    wrong = np.flatnonzero(fields != len(header))
    if wrong.size:
        raise SchemaError(f"expected {len(header)} fields, found {fields[wrong[0]]}",
                          path=path, row=int(wrong[0]) + 1)
    if line_ends.shape[0] == 1:
        return {column: np.empty(0, dtype="S1") for column in columns}
    # Every row has len(header) fields, so the field widths after the
    # header reshape to one row per record.
    widths = (np.diff(ends) - 1)[line_ends[0]:].reshape(-1, len(header)).max(axis=0)
    usecols = [header.index(column) for column in columns]
    parsed = np.loadtxt(
        io.StringIO(raw.decode("latin-1")),
        dtype=[(column, f"S{max(int(widths[i]), 1)}") for column, i in zip(columns, usecols)],
        delimiter=",", quotechar='"', comments=None, skiprows=1, usecols=usecols, ndmin=1,
    )
    return {column: parsed[column] for column in columns}


def _repeats(values: np.ndarray) -> np.ndarray:
    """True where a value already appeared on an earlier row."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeat = np.zeros(values.shape[0], dtype=bool)
    repeat[order[1:]] = ordered[1:] == ordered[:-1]
    return repeat


def _lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row of the first key equal to each query, -1 where none is."""
    if keys.shape[0] == 0:
        return np.full(queries.shape[0], -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    at = np.minimum(np.searchsorted(ordered, queries), keys.shape[0] - 1)
    return np.where(ordered[at] == queries, order[at], -1)


def _index_of(values: np.ndarray, vocabulary) -> np.ndarray:
    """Position of each value in `vocabulary` (strings), -1 where absent."""
    return _lookup(np.array([word.encode("utf-8") for word in vocabulary]), values)


def _check(issues: list[str], name: str, fields: dict[str, np.ndarray],
           checks: list[tuple[np.ndarray, str]]) -> np.ndarray:
    """Report each row's first failing check as "<file> row <n>: <message>",
    in row order, the message being the check's template filled in from the
    row's `fields`.  Returns which rows passed every check."""
    first = np.full(checks[0][0].shape[0], -1)
    for number in reversed(range(len(checks))):
        first[checks[number][0]] = number
    for i in np.flatnonzero(first >= 0).tolist():
        row = {key: column[i].decode("utf-8") for key, column in fields.items()}
        issues.append(f"{name} row {i + 2}: " + checks[first[i]][1].format(**row))
    return first < 0


def _parse_weights(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights as floats, and which ones are not numbers at all."""
    try:
        return text.astype(np.float64), np.zeros(text.shape[0], dtype=bool)
    except ValueError:
        pass
    values = np.full(text.shape[0], np.nan)
    bad = np.zeros(text.shape[0], dtype=bool)
    for i, item in enumerate(text.tolist()):
        try:
            values[i] = float(item)
        except ValueError:
            bad[i] = True
    return values, bad


def ingest_microdata(in_dir: str, level: str = "national") -> dict[str, MatchTallies]:
    """Rebuild estimation tallies from a microdata directory.

    `level` is "national" or "post_stratum"; finer geography is not in the
    file schema.  In-mover matching is not reconstructible from files, so
    the returned tallies always have m_in unset and procedure B needs the
    simulation path.  Adjusted-mode files lack the '#' reweighting, so their
    tallies differ from the simulation path's (see the module docstring).
    """
    if level not in ("national", "post_stratum"):
        raise ConfigError(f"ingest supports national or post_stratum grouping, got {level!r}")

    census = _read_columns(in_dir, "census.csv", _CENSUS_HEADER,
                           ("record_id", "household_id", "stratum", "kind", "target_scope"))
    pes = _read_columns(in_dir, "pes.csv", _PES_HEADER,
                        ("record_id", "household_id", "stratum", "roster"))
    codes = _read_columns(in_dir, "codes.csv", _CODES_HEADER, ("record_id", "code", "exclusion"))
    weights = _read_columns(in_dir, "weights.csv", _WEIGHTS_HEADER, ("household_id", "weight"))
    issues: list[str] = []

    value, not_number = _parse_weights(weights["weight"])
    with np.errstate(invalid="ignore"):
        bad_value = ~not_number & ~(np.isfinite(value) & (value >= 0))
    weighted = _check(issues, "weights.csv", weights, [
        (_repeats(weights["household_id"]), "duplicate household {household_id}"),
        (not_number, "weight for {household_id} is not a number: {weight!r}"),
        (bad_value, "weight for {household_id} must be finite and non-negative"),
    ])
    households = weights["household_id"][weighted]
    value = value[weighted]

    kind = _index_of(census["kind"], CENSUS_KINDS)
    scope = _index_of(census["target_scope"], ("0", "1"))
    census_rows = np.flatnonzero(_check(issues, "census.csv", census, [
        (_repeats(census["record_id"]), "duplicate record_id {record_id}"),
        (kind < 0, "record {record_id} has unknown kind {kind!r}"),
        (scope < 0, "record {record_id} has bad target_scope {target_scope!r}"),
    ]))
    role = _index_of(pes["roster"], ROSTER_ROLES)
    pes_rows = np.flatnonzero(_check(issues, "pes.csv", pes, [
        (_repeats(pes["record_id"]), "duplicate record_id {record_id}"),
        (role < 0, "record {record_id} has unknown roster {roster!r}"),
    ]))

    # Every valid record, census ones first so that a code resolves to a
    # census record before a survey record of the same id; the extra last
    # entry stands in for records that are not found.
    n_census = census_rows.shape[0]
    records = np.concatenate([census["record_id"][census_rows], pes["record_id"][pes_rows]])
    record_household = np.concatenate(
        [census["household_id"][census_rows], pes["household_id"][pes_rows], [b""]]
    )
    record_stratum = np.concatenate(
        [census["stratum"][census_rows], pes["stratum"][pes_rows], [b""]]
    )
    record_role = np.concatenate([np.zeros(n_census, dtype=np.int64), role[pes_rows], [0]])

    label = codes["code"]
    # The code each label names, -1 for labels that name none.
    numeric = np.append(list(CODE_BY_LABEL.values()), -1)[_index_of(label, CODE_BY_LABEL)]
    marker = _index_of(label, _MARKER_CELLS) >= 0
    found = _lookup(records, codes["record_id"])
    at = np.where(found >= 0, found, records.shape[0])
    household_id = record_household[at]
    weight_row = _lookup(households, household_id)
    side = np.where((found >= 0) & (found < n_census), SIDE_CENSUS, SIDE_SURVEY)
    belongs = np.full(numeric.shape[0], -1)
    for code, code_side in CODE_SIDE.items():
        belongs[numeric == code] = code_side
    fields = {**codes, "household_id": household_id,
              "side": np.array([b"survey", b"census"])[side]}
    _check(issues, "codes.csv", fields, [
        (_repeats(codes["record_id"]), "duplicate record_id {record_id}"),
        ((numeric < 0) & ~marker, "unknown code {code!r}"),
        (marker & (_index_of(codes["exclusion"], EXCLUSION_MARKERS.values()) < 0),
         "marker {code} needs an exclusion reason"),
        (~marker & (found < 0), "record {record_id} not found in census or pes files"),
        (~marker & (weight_row < 0), "household {household_id} has no weight"),
        ((belongs >= 0) & (belongs != side), "code {code} on a {side} record {record_id}"),
        ((numeric >= CODE_42_1) & (numeric <= CODE_42_4)
         & np.isin(record_role[at], (ROLE_IN_MOVER, ROLE_BIRTH)),
         "code {code} on an in-mover or birth record {record_id}"),
    ])
    if issues:
        raise ValidationError(issues)

    coded = np.flatnonzero(~marker)
    census_household = _lookup(households, census["household_id"][census_rows])
    census_text = census["stratum"][census_rows]
    in_scope = scope[census_rows] == 1
    coded_text = record_stratum[at[coded]]
    strata = np.unique(np.concatenate([census_text[in_scope], coded_text]))
    if strata.shape[0] == 0:
        return {}
    table = RecordTable(
        census_kind=kind[census_rows],
        census_in_scope=in_scope,
        census_household=census_household,
        # Out-of-scope records may sit in a stratum nothing else has; they
        # never reach a tally, so any valid index does.
        census_stratum=np.minimum(np.searchsorted(strata, census_text), strata.shape[0] - 1),
        census_weight=np.where(census_household >= 0, value[census_household], 0.0),
        side=side[coded],
        code=numeric[coded],
        role=record_role[at[coded]],
        household=weight_row[coded],
        stratum=np.searchsorted(strata, coded_text),
        weight=value[weight_row[coded]],
        matched_in_mover=np.zeros(coded.shape[0], dtype=bool),
    )
    if level == "national":
        return tally_records(
            table, ("all",), np.zeros_like(table.census_stratum), np.zeros_like(table.stratum)
        )
    labels = tuple(stratum.decode("utf-8") for stratum in strata.tolist())
    return tally_records(table, labels, table.census_stratum, table.stratum)
