"""Microdata round trip: matched worlds to delimited files and back.

Four files describe one matched world:

    census.csv   one row per census record (kind: person, imputed,
                 duplicate, fabricated), the full universe
    pes.csv      one row per survey-collected record: roster persons and
                 out-mover reports, sample only
    codes.csv    final code per record, one row per matched pair or
                 unmatched record (the census half of a pair is omitted to
                 keep ingest from double counting), plus household
                 exclusion markers (#, §, ¶); a marker's phase is followup
                 when the adjusted-mode follow-up covered the household
    weights.csv  for every sampled household: its district, address type,
                 whether the survey interviewed it (0/1) and its weight;
                 doubles as the sample membership list

Files are UTF-8 text, comma separated, one record per line.  Fields may be
quoted as the csv module quotes them; any other deviation (bytes that are
not UTF-8, a NUL byte, a wrong header, a row with the wrong number of
fields, a quote never closed, a field longer than 256 bytes in a column
ingest reads) raises SchemaError naming the file and row.

Both directions go through `matching.RecordTable`: the writer formats the
coded records of the table that `tally_groups` reduces, beside every
census record, and ingest parses the files back into the same kind of
table, post-strata as its census cells, and reduces it with the same
`tally_records`.  Ingest validates before it tallies and reports every
problem at once, so a bad delivery surfaces as one exception listing all
issues.

Adjusted exclusion mode covers '#' households by reweighting.  Their
followup-phase markers and the weights file hold everything
`sampling.noninterview_factor` needs, so ingest applies the same rule as
`record_table`: survey records found at an interview take their
household's adjusted weight, every other record the plain weight, and
the estimates equal the simulation path's.

Both directions work on whole columns.  The writer builds each file as one
uint8 matrix with a NUL-padded row per record and drops the padding on
write; ingest finds every field's bounds in one scan of the bytes, slices
the columns out of the buffer, and joins ids as integer keys.
"""

from __future__ import annotations

import csv
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
    ROLE_DEATH,
    ROLE_IN_MOVER,
    ROLE_OUT_MOVER,
    ROSTER_ROLES,
    SIDE_CENSUS,
    SIDE_SURVEY,
    SOURCE_REPORT,
    SOURCE_ROSTER,
    MatchResult,
    MatchTallies,
    RecordTable,
    census_records,
    record_table,
    tally_records,
)
from ..popsim import CensusSim, PesSim, Population
from ..sampling import ADDRESS_TYPES, noninterview_factor

__all__ = ["write_microdata", "ingest_microdata"]

_CENSUS_HEADER = [
    "record_id", "person_id", "household_id", "district_id", "stratum", "kind", "target_scope",
]
_PES_HEADER = [
    "record_id", "person_id", "household_id", "district_id", "stratum", "roster",
    "reported_status",
]
_CODES_HEADER = ["record_id", "phase", "code", "exclusion"]
_WEIGHTS_HEADER = ["household_id", "district_id", "address_type", "interviewed", "weight"]

# No field of the schema comes near this many bytes; a longer one (a stray
# quote can swallow many lines into one field) is refused before any column
# is sized by it.
_MAX_FIELD = 256

# Phase of a household marker: the adjusted-mode follow-up covers marked
# households, and a '#' household then has its weight moved onto the
# interviewed households by the noninterview adjustment.
_PHASES = ("initial", "followup")

# Survey household status labels, indexed by the PES_* status.
_PES_STATUSES = ("with_q", "absent", "not_listed", "vacant", "vacant_missed")

_MARKER_CELLS = {"#": CELL_HASH, "§": CELL_SECT, "¶": CELL_PILCROW}

# Codes settled in the initial matching phase unless the record was
# recovered by the adjusted-mode follow-up or is an out-mover report.
_INITIAL_CODES = (CODE_10, CODE_20, CODE_30, CODE_42_1, CODE_42_2)


def _write(path: str, header: list[str], *rows: np.ndarray) -> None:
    """Write the header and the row matrices, dropping their NUL padding."""
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\r\n").encode("utf-8"))
        for matrix in rows:
            handle.write(matrix.tobytes().replace(b"\0", b""))


def _matrix(*parts: np.ndarray | bytes) -> np.ndarray:
    """One uint8 row per record: the parts side by side, each a matrix with
    a row per record or a bytes literal repeated on every row."""
    n = next(part.shape[0] for part in parts if isinstance(part, np.ndarray))
    parts = tuple(np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part
                  for part in parts)
    out = np.empty((n, sum(part.shape[-1] for part in parts)), dtype=np.uint8)
    at = 0
    for part in parts:
        out[:, at:at + part.shape[-1]] = part
        at += part.shape[-1]
    return out


def _table(words) -> np.ndarray:
    """Each word's UTF-8 bytes as one NUL-padded row."""
    encoded = [str(word).encode("utf-8") for word in words]
    width = max(map(len, encoded), default=1) or 1
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def _joined(*vocabularies, end: str = "") -> np.ndarray:
    """Every comma-joined combination of one word from each vocabulary, plus
    `end`, indexed by the mixed-radix position of the words."""
    return _table(",".join(map(str, words)) + end for words in itertools.product(*vocabularies))


def _digits(values: np.ndarray, min_width: int = 1) -> np.ndarray:
    """`%0{min_width}d` of non-negative integers, one right-aligned row of
    ASCII digits each; positions left of a number's digits are NUL."""
    values = np.asarray(values, dtype=np.int64)
    top = int(values.max()) if values.shape[0] else 0
    width = max(min_width, len(str(top)))
    out = np.empty((width, values.shape[0]), dtype=np.uint8)
    rest = values.astype(np.uint32) if top < 2**32 else values
    for position in range(width - 1, -1, -1):
        quotient = rest // 10
        np.subtract(rest, quotient * 10, out=out[position], casting="unsafe")
        rest = quotient
    out += ord("0")
    for power in range(min_width, width):
        out[width - 1 - power][values < 10**power] = 0
    return out.T


def _float_text(values: np.ndarray) -> np.ndarray:
    """`repr` of each float, as rows; repr runs once per distinct value."""
    bits, index = np.unique(
        np.asarray(values, dtype=np.float64).view(np.uint64), return_inverse=True
    )
    return _table(map(repr, bits.view(np.float64).tolist()))[index]


def write_microdata(
    out_dir: str,
    pop: Population,
    census: CensusSim,
    pes: PesSim,
    result: MatchResult,
    household_weight: np.ndarray | None = None,
) -> None:
    """Write the four-file microdata set for one matched world.

    Each file is built as one uint8 matrix with a NUL-padded row per
    record: integers become digits by array arithmetic, and columns that
    take only a few values are gathered from tables of their joined text.
    """
    os.makedirs(out_dir, exist_ok=True)
    table = record_table(pop, census, result, household_weight)
    strata = pop.stratum_labels
    households = pop.households
    place = _matrix(b"h", _digits(np.arange(households.count)), b",d",
                    _digits(households.district, min_width=4))

    n_fab = census.fab_person.shape[0]
    person, kind = census_records(census, np.arange(pop.size), np.arange(n_fab))
    census_household = pop.census_home()[person]
    fabricated = kind == KIND_FABRICATED
    number = person.copy()
    number[fabricated] = np.arange(n_fab)  # a fabrication is numbered by its index
    number = _digits(number)
    person_id = number.copy()
    person_id[fabricated] = 0
    _write(os.path.join(out_dir, "census.csv"), _CENSUS_HEADER, _matrix(
        _table("ccdf")[kind],  # id prefix by kind
        number, b",", person_id, b",", place[census_household], b",",
        _joined(strata, CENSUS_KINDS, (0, 1), end="\r\n")[
            (pop.post_stratum[person] * len(CENSUS_KINDS) + kind) * 2
            + ~pop.households.institutional[census_household]
        ],
    ))

    prefix = _table(ID_PREFIXES)[table.source]
    survey = np.flatnonzero(table.side == SIDE_SURVEY)
    # Roster records first, then reports, each by person.
    survey = survey[np.lexsort((table.number[survey], table.source[survey]))]
    person = table.number[survey]  # survey records are numbered by their person
    household = table.household[survey]
    number = _digits(person)
    _write(os.path.join(out_dir, "pes.csv"), _PES_HEADER, _matrix(
        prefix[survey], number, b",", number, b",", place[household], b",",
        _joined(strata, ROSTER_ROLES, _PES_STATUSES, end="\r\n")[
            (pop.post_stratum[person] * len(ROSTER_ROLES) + table.role[survey])
            * len(_PES_STATUSES) + pes.hh_status[household]
        ],
    ))

    recovered = np.isin(result.hh_cell[table.household], (CELL_SECT, CELL_PILCROW))
    followup = ~np.isin(table.code, _INITIAL_CODES) | (table.source == SOURCE_REPORT) | (
        (table.source == SOURCE_ROSTER) & recovered
    )
    codes = sorted(CODE_LABELS)
    phase_code = _joined(_PHASES, [CODE_LABELS[c] for c in codes], ("",), end="\r\n")
    mask = result.household_mask
    marker_phase = _PHASES[result.exclusion_mode == "adjusted"]
    _write(
        os.path.join(out_dir, "codes.csv"), _CODES_HEADER,
        _matrix(prefix, _digits(table.number), b",",
                phase_code[followup * len(codes) + np.searchsorted(codes, table.code)]),
        *(_matrix(b"h", _digits(np.flatnonzero((result.hh_cell == cell) & mask)),
                  f",{marker_phase},{code},{EXCLUSION_MARKERS[cell]}\r\n".encode("utf-8"))
          for code, cell in _MARKER_CELLS.items()),
    )

    sampled = np.flatnonzero(mask)
    weight = np.ones(households.count) if household_weight is None else household_weight
    _write(os.path.join(out_dir, "weights.csv"), _WEIGHTS_HEADER, _matrix(
        place[sampled], b",", _table(ADDRESS_TYPES)[households.address_type[sampled]], b",",
        _table("01")[result.interviewed()[sampled].view(np.int8)], b",",
        _float_text(np.asarray(weight)[sampled]), b"\r\n",
    ))


def _read_columns(in_dir: str, name: str, header: list[str], columns: tuple[str, ...]
                  ) -> dict[str, np.ndarray]:
    """The named columns of one file, each field as its UTF-8 bytes.

    One scan of the bytes finds every comma and newline outside quotes,
    which gives each field's start and end; every column is then sliced
    straight out of the buffer, a quoted field without its enclosing quotes
    and with its doubled quotes undoubled, as the csv module reads it.
    """
    path = os.path.join(in_dir, name)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise SchemaError("file is missing", path=path) from None
    if not raw:
        raise SchemaError("file is empty, expected a header", path=path, row=1)
    nul = raw.find(b"\0")
    if nul >= 0:
        raise SchemaError(f"NUL byte at offset {nul}", path=path,
                          row=raw.count(b"\n", 0, nul) + 1)
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"not UTF-8: byte {raw[exc.start]:#04x} at offset {exc.start}",
                path=path, row=raw.count(b"\n", 0, exc.start) + 1,
            ) from None
    line = raw.find(b"\n")
    try:
        first = next(csv.reader([raw[:line if line >= 0 else len(raw)].decode("utf-8")]))
    except csv.Error as exc:
        raise SchemaError(f"header is not comma separated text: {exc}",
                          path=path, row=1) from None
    if first != header:
        raise SchemaError(f"header mismatch: expected {header}, found {first}",
                          path=path, row=1)
    if not raw.endswith(b"\n"):
        raw += b"\n"

    # Field ends: commas and newlines outside quotes.  A quote toggles
    # quoting, and a doubled quote inside a quoted field toggles it twice.
    buf = np.frombuffer(raw, dtype=np.uint8)
    cut = (buf == ord(",")) | (buf == ord("\n"))
    quoted = b'"' in raw
    if quoted:
        quote = buf == ord('"')
        outside = (np.cumsum(quote, dtype=np.uint8) & 1) == 0
        cut &= outside
        if not outside[-1]:
            opened = int(np.flatnonzero(quote)[-1])
            lines = np.count_nonzero(cut[:opened] & (buf[:opened] == ord("\n")))
            raise SchemaError("quote is never closed", path=path, row=int(lines) + 1)
    ends = np.flatnonzero(cut)
    newline = buf[ends] == ord("\n")
    n_fields = len(header)
    if (ends.shape[0] != np.count_nonzero(newline) * n_fields
            or not newline[n_fields - 1::n_fields].all()):
        fields = np.bincount(np.cumsum(newline) - newline)
        row = int(np.flatnonzero(fields != n_fields)[0])
        raise SchemaError(f"expected {n_fields} fields, found {fields[row]}",
                          path=path, row=row + 1)
    # Every row has n_fields fields: one row of field ends per line.
    ends = ends.reshape(-1, n_fields)

    bounds = []
    for column in columns:
        i = header.index(column)
        start = (ends[1:, i - 1] if i else ends[:-1, -1]) + 1
        end = ends[1:, i].copy()
        if i == n_fields - 1:
            # A line ending in \r\n: the \r is not part of the last field.
            end -= (end > start) & (buf[end - 1] == ord("\r"))
        if quoted:
            enclosed = (end - start >= 2) & quote[start] & quote[end - 1]
            start += enclosed
            end -= enclosed
        bounds.append((start, end))
    if quoted:
        # The first quote of each doubled pair: it closes quoting and the
        # next byte reopens it.
        doubled = np.flatnonzero(quote[:-1] & outside[:-1] & quote[1:])
        if doubled.size:
            bounds = [
                (start - np.searchsorted(doubled, start), end - np.searchsorted(doubled, end))
                for start, end in bounds
            ]
            buf = np.delete(buf, doubled)

    # Each field as little-endian 8-byte words read from its start, with
    # the bytes past its end masked off; the words viewed as bytes are the
    # field, NUL padded.
    lengths = [end - start for start, end in bounds]
    widths = [int(length.max(initial=0)) for length in lengths]
    for column, length, width in zip(columns, lengths, widths):
        if width > _MAX_FIELD:
            raise SchemaError(f"field is longer than {_MAX_FIELD} bytes", path=path,
                              row=int(np.argmax(length > _MAX_FIELD)) + 2, column=column)
    padded = np.concatenate([buf, np.zeros(max(widths, default=0) + 8, dtype=np.uint8)])
    word_at = np.ndarray(shape=(padded.shape[0] - 7,), dtype="<u8", buffer=padded, strides=(1,))
    low_bytes = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
    out = {}
    for column, (start, _), length, width in zip(columns, bounds, lengths, widths):
        field = np.zeros((start.shape[0], max(width + 7 >> 3, 1)), dtype="<u8")
        field[:, 0] = word_at[start] & low_bytes[np.minimum(length, 8)]
        for word in range(1, field.shape[1]):
            long = np.flatnonzero(length > 8 * word)
            field[long, word] = (word_at[start[long] + 8 * word]
                                 & low_bytes[np.minimum(length[long] - 8 * word, 8)])
        out[column] = field.view(f"S{8 * field.shape[1]}").ravel()
    return out


def _keys(*columns: np.ndarray) -> list[np.ndarray]:
    """The byte-string columns as keys that sort and compare as the bytes
    do: a field of up to 8 bytes read as one big-endian integer, NUL
    padded; the bytes themselves when a field is longer."""
    width = max(column.dtype.itemsize for column in columns)
    if width > 8:
        return [column.astype(f"S{width}") for column in columns]
    return [column.astype("S8").view(">u8").astype(np.uint64) for column in columns]


def _repeats(values: np.ndarray) -> np.ndarray:
    """True where a value already appeared on an earlier row."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeat = np.zeros(values.shape[0], dtype=bool)
    repeat[order[1:]] = ordered[1:] == ordered[:-1]
    return repeat


def _lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row of the first key equal to each query, -1 where none is.

    The queries are searched in sorted order: a binary search over random
    queries costs more than sorting them first.
    """
    row = np.full(queries.shape[0], -1, dtype=np.int64)
    if keys.shape[0] == 0:
        return row
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    by_query = np.argsort(queries)
    query = queries[by_query]
    at = np.minimum(np.searchsorted(ordered, query), keys.shape[0] - 1)
    row[by_query] = np.where(ordered[at] == query, order[at], -1)
    return row


def _index_of(values: np.ndarray, vocabulary) -> np.ndarray:
    """Position of each value in `vocabulary` (strings), -1 where absent:
    one comparison of whole 8-byte words per vocabulary word."""
    n_words = max(-(-values.dtype.itemsize // 8), 1)
    words = values.astype(f"S{8 * n_words}").view("<u8").reshape(-1, n_words)
    index = np.full(values.shape[0], -1, dtype=np.int64)
    for position, word in enumerate(vocabulary):
        encoded = word.encode("utf-8")
        if len(encoded) <= 8 * n_words:
            target = np.frombuffer(encoded.ljust(8 * n_words, b"\0"), dtype="<u8")
            equal = words[:, 0] == target[0]
            for column in range(1, n_words):
                equal &= words[:, column] == target[column]
            index[equal] = position
    return index


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
    simulation path.  Households under a '#' marker of the followup phase
    have their weight moved onto the interviewed households by
    `sampling.noninterview_factor`, as the simulation path does in adjusted
    exclusion mode (see the module docstring).
    """
    if level not in ("national", "post_stratum"):
        raise ConfigError(f"ingest supports national or post_stratum grouping, got {level!r}")

    census = _read_columns(in_dir, "census.csv", _CENSUS_HEADER,
                           ("record_id", "household_id", "stratum", "kind", "target_scope"))
    pes = _read_columns(in_dir, "pes.csv", _PES_HEADER,
                        ("record_id", "household_id", "stratum", "roster"))
    codes = _read_columns(in_dir, "codes.csv", _CODES_HEADER, tuple(_CODES_HEADER))
    weights = _read_columns(in_dir, "weights.csv", _WEIGHTS_HEADER, tuple(_WEIGHTS_HEADER))
    issues: list[str] = []
    # Ids as integer keys, one representation across the files.
    census_id, census_home, pes_id, pes_home, code_id, weight_home = _keys(
        census["record_id"], census["household_id"], pes["record_id"], pes["household_id"],
        codes["record_id"], weights["household_id"],
    )

    value, not_number = _parse_weights(weights["weight"])
    with np.errstate(invalid="ignore"):
        bad_value = ~not_number & ~(np.isfinite(value) & (value >= 0))
    address_type = _index_of(weights["address_type"], ADDRESS_TYPES)
    interviewed = _index_of(weights["interviewed"], ("0", "1"))
    weighted = _check(issues, "weights.csv", weights, [
        (_repeats(weight_home), "duplicate household {household_id}"),
        (not_number, "weight for {household_id} is not a number: {weight!r}"),
        (bad_value, "weight for {household_id} must be finite and non-negative"),
        (address_type < 0, "household {household_id} has unknown address_type {address_type!r}"),
        (interviewed < 0, "household {household_id} has bad interviewed flag {interviewed!r}"),
    ])
    households = weight_home[weighted]
    value = value[weighted]
    interviewed = interviewed[weighted] == 1

    kind = _index_of(census["kind"], CENSUS_KINDS)
    scope = _index_of(census["target_scope"], ("0", "1"))
    census_rows = np.flatnonzero(_check(issues, "census.csv", census, [
        (_repeats(census_id), "duplicate record_id {record_id}"),
        (kind < 0, "record {record_id} has unknown kind {kind!r}"),
        (scope < 0, "record {record_id} has bad target_scope {target_scope!r}"),
    ]))
    role = _index_of(pes["roster"], ROSTER_ROLES)
    pes_rows = np.flatnonzero(_check(issues, "pes.csv", pes, [
        (_repeats(pes_id), "duplicate record_id {record_id}"),
        (role < 0, "record {record_id} has unknown roster {roster!r}"),
    ]))

    # Every valid record, census ones first so that a code resolves to a
    # census record before a survey record of the same id; the extra last
    # entry stands in for records that are not found.
    n_census = census_rows.shape[0]
    records = np.concatenate([census_id[census_rows], pes_id[pes_rows]])
    # Each record's row in the weights file, -1 outside the sample.
    record_row = np.append(
        _lookup(households, np.concatenate([census_home[census_rows], pes_home[pes_rows]])), -1
    )
    record_household = np.concatenate(
        [census["household_id"][census_rows], pes["household_id"][pes_rows], [b""]]
    )
    census_strata, pes_strata = _keys(census["stratum"], pes["stratum"])
    record_stratum = np.concatenate(
        [census_strata[census_rows], pes_strata[pes_rows], np.zeros(1, census_strata.dtype)]
    )
    record_role = np.concatenate([np.zeros(n_census, dtype=np.int64), role[pes_rows], [0]])

    label = codes["code"]
    # The code each label names, -1 for labels that name none.
    numeric = np.append(list(CODE_BY_LABEL.values()), -1)[_index_of(label, CODE_BY_LABEL)]
    marker = _index_of(label, _MARKER_CELLS)
    is_marker = marker >= 0
    phase = _index_of(codes["phase"], _PHASES)
    found = _lookup(records, code_id)
    at = np.where(found >= 0, found, records.shape[0])
    weight_row = record_row[at]
    side = np.where((found >= 0) & (found < n_census), SIDE_CENSUS, SIDE_SURVEY)
    belongs = np.full(numeric.shape[0], -1)
    for code, code_side in CODE_SIDE.items():
        belongs[numeric == code] = code_side
    # '#' households covered by the follow-up, and their weights-file rows.
    reweighted = (marker == list(_MARKER_CELLS).index("#")) & (phase == _PHASES.index("followup"))
    marker_row = np.full(label.shape[0], -1)
    marker_row[reweighted] = _lookup(households, code_id[reweighted])
    fields = {**codes, "household_id": record_household[at],
              "side": np.array([b"survey", b"census"])[side]}
    _check(issues, "codes.csv", fields, [
        (_repeats(code_id), "duplicate record_id {record_id}"),
        (~is_marker & (numeric < 0), "unknown code {code!r}"),
        (is_marker & (_index_of(codes["exclusion"], EXCLUSION_MARKERS.values()) < 0),
         "marker {code} needs an exclusion reason"),
        (is_marker & (phase < 0), "marker {code} has unknown phase {phase!r}"),
        (reweighted & (marker_row < 0), "household {record_id} has no weight"),
        (reweighted & np.append(interviewed, False)[marker_row],
         "household {record_id} is interviewed and marked #"),
        (~is_marker & (found < 0), "record {record_id} not found in census or pes files"),
        (~is_marker & (weight_row < 0), "household {household_id} has no weight"),
        ((belongs >= 0) & (belongs != side), "code {code} on a {side} record {record_id}"),
        ((numeric >= CODE_42_1) & (numeric <= CODE_42_4)
         & np.isin(record_role[at], (ROLE_IN_MOVER, ROLE_BIRTH)),
         "code {code} on an in-mover or birth record {record_id}"),
    ])
    if issues:
        raise ValidationError(issues)

    missing = np.zeros(households.shape[0], dtype=bool)
    missing[marker_row[reweighted]] = True
    districts, district = np.unique(
        _keys(weights["district_id"])[0][weighted], return_inverse=True
    )
    coded = np.flatnonzero(~is_marker)
    row = weight_row[coded]
    coded_role = record_role[at[coded]]
    # Survey records found at the interview take their household's
    # noninterview-adjusted weight; out-mover and death reports, and codes on
    # census records, the plain weight.
    roster = (side[coded] == SIDE_SURVEY) & ~np.isin(coded_role, (ROLE_OUT_MOVER, ROLE_DEATH))
    # Only in-scope census records reach a tally, post-strata as their
    # cells; a record outside the sample weighs 0, which adds nothing.
    in_scope = scope[census_rows] == 1
    census_household = record_row[:n_census]
    # Finite weights can still sum past the float range; the totals are
    # checked here, so every tally built from them is finite.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = noninterview_factor(
            district, address_type[weighted], value, interviewed, missing, districts.shape[0]
        )
        record_weight = value[row] * np.where(roster, factor[row], 1.0)
        census_weight = np.where(census_household >= 0, value[census_household], 0.0)[in_scope]
        finite = np.isfinite(record_weight.sum()) and np.isfinite(census_weight.sum())
    if not finite:
        largest = np.flatnonzero(weighted)[np.argmax(value)]
        raise ValidationError([
            f"weights.csv row {largest + 2}: weight {weights['weight'][largest].decode('utf-8')}"
            f" of household {weights['household_id'][largest].decode('utf-8')}"
            " makes the weighted totals overflow"
        ])
    census_text = census_strata[census_rows][in_scope]
    coded_text = record_stratum[at[coded]]
    strata = np.unique(np.concatenate([census_text, coded_text]))
    if strata.shape[0] == 0:
        return {}
    n_strata = strata.shape[0]
    census_kind = kind[census_rows][in_scope]
    census_cell = np.searchsorted(strata, census_text)
    table = RecordTable(
        census_count=np.bincount(
            census_kind * n_strata + census_cell, minlength=len(CENSUS_KINDS) * n_strata
        ).reshape(len(CENSUS_KINDS), n_strata),
        census_kind=census_kind,
        census_cell=census_cell,
        census_weight=census_weight,
        side=side[coded],
        code=numeric[coded],
        role=coded_role,
        household=row,
        cell=np.searchsorted(strata, coded_text),
        weight=record_weight,
        matched_in_mover=np.zeros(coded.shape[0], dtype=bool),
    )
    if level == "national":
        return tally_records(table, ("all",), np.zeros(n_strata, dtype=np.int64))
    if strata.dtype.kind == "u":
        strata = strata.astype(">u8").view("S8")
    labels = tuple(stratum.decode("utf-8") for stratum in strata.tolist())
    return tally_records(table, labels, np.arange(n_strata))
