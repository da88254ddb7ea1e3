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
uint8 matrix with a NUL-padded row per record and writes only its non-NUL
bytes.  Ingest finds every field's bounds in one scan of the bytes, then
reads each column it needs straight out of the buffer as 8-byte words: id
and stratum columns as big-endian uint64 keys (or bytes, when an id is
longer than 8 bytes), columns with a fixed vocabulary as positions in it,
and weights as text.  Record ids join by sorting, since they arrive in
sorted runs that a stable sort merges; household ids join through a hash
table of the weights rows.  The text of a message is built only for the
rows that fail a check.
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
    among,
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

# Masks of the low k bytes of a little-endian 8-byte word, k = 0..8.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

# 2**64 divided by the golden ratio: the top bits of a key times it are
# the key's slot in a hash table (Fibonacci hashing).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

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

# Every label of the code column, codes then household markers, and the
# code each names, -1 for markers and, in the last entry, unknown labels.
_LABELS = (*CODE_BY_LABEL, *_MARKER_CELLS)
_LABEL_CODES = np.array([*CODE_BY_LABEL.values()] + [-1] * (len(_MARKER_CELLS) + 1))

# The exclusion field: empty on a code, so a marker needs a position above 0.
_REASONS = ("", *EXCLUSION_MARKERS.values())

# The side each code belongs on, -1 for codes on either side and, in the
# last entry, for labels that name no code.
_CODE_SIDES = np.full(max(CODE_LABELS) + 2, -1)
_CODE_SIDES[list(CODE_SIDE)] = list(CODE_SIDE.values())


def _write(path: str, header: list[str], *rows: np.ndarray) -> None:
    """Write the header and the row matrices, dropping their NUL padding."""
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\r\n").encode("utf-8"))
        for matrix in rows:
            handle.write(matrix[matrix != 0])


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
    census_household = pop.census_household[person]  # census records have one
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

    recovered = among(result.hh_cell[table.household], (CELL_SECT, CELL_PILCROW))
    followup = ~among(table.code, _INITIAL_CODES) | (table.source == SOURCE_REPORT) | (
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


def _read_columns(in_dir: str, name: str, header: list[str], columns: tuple[str, ...],
                  keys: tuple[str, ...] = (), vocabularies: dict | None = None) -> dict:
    """The named columns of one file, each field as its UTF-8 bytes.  A
    column named in `keys` whose fields all fit 8 bytes comes as keys
    instead, each field read as one big-endian uint64, NUL padded; a column
    with a vocabulary comes as a `_Coded` column of positions in it.

    One scan of the bytes finds every comma and newline outside quotes,
    which gives each field's start and end; every column is then read
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
    newline = buf == ord("\n")
    cut = buf == ord(",")
    cut |= newline
    quoted = b'"' in raw
    if quoted:
        quote = buf == ord('"')
        outside = (np.cumsum(quote, dtype=np.uint8) & 1) == 0
        cut &= outside
        newline &= outside
        if not outside[-1]:
            opened = int(np.flatnonzero(quote)[-1])
            lines = np.count_nonzero(newline[:opened])
            raise SchemaError("quote is never closed", path=path, row=int(lines) + 1)
    ends = np.flatnonzero(cut)
    n_fields = len(header)
    if (ends.shape[0] != np.count_nonzero(newline) * n_fields
            or not newline[ends[n_fields - 1::n_fields]].all()):
        newline = newline[ends]
        fields = np.bincount(np.cumsum(newline) - newline)
        row = int(np.flatnonzero(fields != n_fields)[0])
        raise SchemaError(f"expected {n_fields} fields, found {fields[row]}",
                          path=path, row=row + 1)
    # Every line has n_fields fields: a row of field ends per line, the
    # header's first, turned so that each field's ends are contiguous.
    ends = ends.reshape(-1, n_fields).T.copy()

    text = buf
    if quoted:
        # The first quote of each doubled pair: it closes quoting and the
        # next byte reopens it.
        doubled = np.flatnonzero(quote[:-1] & outside[:-1] & quote[1:])
        if doubled.size:
            text = np.delete(buf, doubled)
    # Each field as little-endian 8-byte words read from its start, with
    # the bytes past its end masked off; the words viewed as bytes are the
    # field, NUL padded, and a single word byte-swapped is its key.  The
    # zeros past the end are for the word read from a field near it.
    padded = np.concatenate([text, np.zeros(8, dtype=np.uint8)])
    word_at = np.ndarray(shape=(padded.shape[0] - 7,), dtype="<u8", buffer=padded, strides=(1,))
    out = {}
    for column in columns:
        i = header.index(column)
        start = (ends[i - 1, 1:] if i else ends[-1, :-1]) + 1
        end = ends[i, 1:]
        if i == n_fields - 1:
            # A line ending in \r\n: the \r is not part of the last field.
            # (Before an empty field is the comma or newline that ends the
            # previous one, never a \r.)
            end = end - (buf[end - 1] == ord("\r"))
        if quoted:
            # Without enclosing quotes, at its place in the buffer without
            # the doubled quotes.
            enclosed = (end - start >= 2) & quote[start] & quote[end - 1]
            start += enclosed
            end = end - enclosed
            if doubled.size:
                start -= np.searchsorted(doubled, start)
                end = end - np.searchsorted(doubled, end)
        length = end - start
        width = int(length.max(initial=0))
        if width > _MAX_FIELD:
            raise SchemaError(f"field is longer than {_MAX_FIELD} bytes", path=path,
                              row=int(np.argmax(length > _MAX_FIELD)) + 2, column=column)
        first = word_at[start]
        first &= _LOW_BYTES[np.minimum(length, 8) if width > 8 else length]
        if vocabularies and column in vocabularies:
            out[column] = _Coded(word_at, start, length, first, vocabularies[column])
        elif width > 8:
            out[column] = _words(word_at, start, length, first)
        elif column in keys:
            out[column] = first.byteswap(inplace=True)
        else:
            out[column] = first.view("S8")
    return out


def _words(word_at: np.ndarray, start: np.ndarray, length: np.ndarray, first: np.ndarray
           ) -> np.ndarray:
    """The fields at `start` as NUL-padded bytes, given their first words:
    each further word is read only for the fields that reach it."""
    field = np.zeros((start.shape[0], max(int(length.max(initial=0)) + 7 >> 3, 1)),
                     dtype="<u8")
    field[:, 0] = first
    for word in range(1, field.shape[1]):
        long = np.flatnonzero(length > 8 * word)
        field[long, word] = (word_at[start[long] + 8 * word]
                             & _LOW_BYTES[np.minimum(length[long] - 8 * word, 8)])
    return field.view(f"S{8 * field.shape[1]}").ravel()


class _Coded:
    """A column of words from a vocabulary: `index` holds each field's
    position in it, -1 for other text, and `column[row]` a field's bytes.

    A field equals a word when its first 8-byte word, NUL padded, equals
    the word's; that settles words shorter than 8 bytes, as no field holds
    a NUL.  A longer word also needs the field's length and its further
    words, read only for the fields that match so far.
    """

    def __init__(self, word_at: np.ndarray, start: np.ndarray, length: np.ndarray,
                 first: np.ndarray, vocabulary):
        self.vocabulary = tuple(vocabulary)
        self.index = np.full(start.shape[0], -1)
        for position, word in enumerate(self.vocabulary):
            encoded = word.encode("utf-8")
            target = np.frombuffer(encoded.ljust(max(-(-len(encoded) // 8), 1) * 8, b"\0"),
                                   dtype="<u8")
            equal = first == target[0]
            if len(encoded) >= 8:
                rows = np.flatnonzero(equal & (length == len(encoded)))
                for k in range(1, target.shape[0]):
                    words = word_at[start[rows] + 8 * k] & _LOW_BYTES[min(len(encoded) - 8 * k, 8)]
                    rows = rows[words == target[k]]
                equal = rows
            self.index[equal] = position
        other = np.flatnonzero(self.index < 0)
        text = _words(word_at, start[other], length[other], first[other])
        self._other = dict(zip(other.tolist(), text.tolist()))

    def __getitem__(self, row: int) -> bytes:
        position = self.index[row]
        if position < 0:
            return self._other[row]
        return self.vocabulary[position].encode("utf-8")


def _keys(*columns: np.ndarray) -> list[np.ndarray]:
    """Key columns of several files in one representation that sorts and
    compares as their bytes do: the uint64 keys `_read_columns` reads when
    every field fits 8 bytes, else every column as its bytes."""
    if all(column.dtype.kind == "u" for column in columns):
        return list(columns)
    columns = [column.astype(">u8").view("S8") if column.dtype.kind == "u" else column
               for column in columns]
    width = max(column.dtype.itemsize for column in columns)
    return [column.astype(f"S{width}") for column in columns]


def _text(field) -> str:
    """A field's text, from its bytes or from its uint64 key."""
    if isinstance(field, np.unsignedinteger):
        field = int(field).to_bytes(8, "big").rstrip(b"\0")
    return field.decode("utf-8")


def _repeats(values: np.ndarray) -> np.ndarray:
    """True where a value already appeared on an earlier row."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeat = np.zeros(values.shape[0], dtype=bool)
    repeat[order[1:]] = ordered[1:] == ordered[:-1]
    return repeat


def _lookup(keys: np.ndarray, queries: np.ndarray, sort: str = "stable") -> np.ndarray:
    """Row of the first key equal to each query, -1 where none is.

    The queries are searched in sorted order: a binary search over random
    queries costs more than sorting them first.  `sort` is the kind of that
    sort: the stable sort merges the sorted runs that ids written in order
    fall into, and quicksort is faster on queries in random order.
    """
    row = np.full(queries.shape[0], -1, dtype=np.int64)
    if keys.shape[0] == 0:
        return row
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    by_query = np.argsort(queries, kind=sort)
    query = queries[by_query]
    at = np.minimum(np.searchsorted(ordered, query), keys.shape[0] - 1)
    row[by_query] = np.where(ordered[at] == query, order[at], -1)
    return row


def _hash_lookup(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """`_lookup` for queries in random order, which are slow to sort.

    Integer keys are hashed into a table of four to eight slots per key
    that holds the first row hashing to each slot, and a query equal to its
    slot's key takes that row.  Bytes keys, and queries at a slot where a
    different key also landed, are left to `_lookup`.
    """
    n = keys.shape[0]
    if keys.dtype.kind != "u" or n == 0:
        return _lookup(keys, queries, sort="quicksort")
    shift = np.uint64(62 - n.bit_length())
    key_slot = ((keys * _GOLDEN) >> shift).astype(np.intp)
    first = np.full(1 << (64 - int(shift)), n)
    np.minimum.at(first, key_slot, np.arange(n))
    query_slot = ((queries * _GOLDEN) >> shift).astype(np.intp)
    # An empty slot holds n; no key equals a query that lands there.
    at = np.minimum(first[query_slot], n - 1)
    row = np.where(keys[at] == queries, at, -1)
    lost = np.flatnonzero(keys[first[key_slot]] != keys)
    if lost.size:
        shared = np.zeros(first.shape[0], dtype=bool)
        shared[key_slot[lost]] = True
        rest = np.flatnonzero((row < 0) & shared[query_slot])
        found = _lookup(keys[lost], queries[rest], sort="quicksort")
        row[rest] = np.where(found >= 0, lost[found], -1)
    return row


def _check(issues: list[str], name: str, fields: dict, checks: list[tuple[np.ndarray, str]]
           ) -> np.ndarray:
    """Report each row's first failing check as "<file> row <n>: <message>",
    in row order, the message being the check's template filled in from the
    row's `fields`: a column, or a function of the row for text that only
    a message needs.  Returns which rows passed every check."""
    first = np.full(checks[0][0].shape[0], -1)
    for number in reversed(range(len(checks))):
        if checks[number][0].any():
            first[checks[number][0]] = number
    for i in np.flatnonzero(first >= 0).tolist():
        row = {key: _text(field(i) if callable(field) else field[i])
               for key, field in fields.items()}
        issues.append(f"{name} row {i + 2}: " + checks[first[i]][1].format(**row))
    return first < 0


def _rows(passed: np.ndarray) -> np.ndarray | slice:
    """An index of the rows that passed: every row, without a copy, when
    all of them did."""
    return slice(None) if passed.all() else np.flatnonzero(passed)


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

    ids = ("record_id", "household_id", "stratum")
    census = _read_columns(in_dir, "census.csv", _CENSUS_HEADER,
                           ("record_id", "household_id", "stratum", "kind", "target_scope"), ids,
                           {"kind": CENSUS_KINDS, "target_scope": ("0", "1")})
    pes = _read_columns(in_dir, "pes.csv", _PES_HEADER,
                        ("record_id", "household_id", "stratum", "roster"), ids,
                        {"roster": ROSTER_ROLES})
    codes = _read_columns(in_dir, "codes.csv", _CODES_HEADER, tuple(_CODES_HEADER),
                          ("record_id",),
                          {"phase": _PHASES, "code": _LABELS, "exclusion": _REASONS})
    weights = _read_columns(in_dir, "weights.csv", _WEIGHTS_HEADER, tuple(_WEIGHTS_HEADER),
                            ("household_id", "district_id"),
                            {"address_type": ADDRESS_TYPES, "interviewed": ("0", "1")})
    issues: list[str] = []
    # Ids as keys, one representation across the files.
    census_id, census_home, pes_id, pes_home, code_id, weight_home = _keys(
        census["record_id"], census["household_id"], pes["record_id"], pes["household_id"],
        codes["record_id"], weights["household_id"],
    )

    value, not_number = _parse_weights(weights["weight"])
    with np.errstate(invalid="ignore"):
        bad_value = ~not_number & ~(np.isfinite(value) & (value >= 0))
    address_type = weights["address_type"].index
    interviewed = weights["interviewed"].index
    weighted = _check(issues, "weights.csv", weights, [
        (_repeats(weight_home), "duplicate household {household_id}"),
        (not_number, "weight for {household_id} is not a number: {weight!r}"),
        (bad_value, "weight for {household_id} must be finite and non-negative"),
        (address_type < 0, "household {household_id} has unknown address_type {address_type!r}"),
        (interviewed < 0, "household {household_id} has bad interviewed flag {interviewed!r}"),
    ])
    weight_rows = _rows(weighted)
    households = weight_home[weight_rows]
    value = value[weight_rows]
    interviewed = interviewed[weight_rows] == 1

    kind = census["kind"].index
    scope = census["target_scope"].index
    census_passed = _check(issues, "census.csv", census, [
        (_repeats(census_id), "duplicate record_id {record_id}"),
        (kind < 0, "record {record_id} has unknown kind {kind!r}"),
        (scope < 0, "record {record_id} has bad target_scope {target_scope!r}"),
    ])
    census_rows = _rows(census_passed)
    role = pes["roster"].index
    pes_rows = _rows(_check(issues, "pes.csv", pes, [
        (_repeats(pes_id), "duplicate record_id {record_id}"),
        (role < 0, "record {record_id} has unknown roster {roster!r}"),
    ]))

    # Every valid record, census ones first so that a code resolves to a
    # census record before a survey record of the same id; the extra last
    # entry stands in for records that are not found.
    n_census = int(np.count_nonzero(census_passed))
    records = np.concatenate([census_id[census_rows], pes_id[pes_rows]])
    homes = np.concatenate([census_home[census_rows], pes_home[pes_rows]])
    # Each record's row in the weights file, -1 outside the sample.
    record_row = np.append(_hash_lookup(households, homes), -1)
    census_strata, pes_strata = _keys(census["stratum"], pes["stratum"])
    record_stratum = np.concatenate(
        [census_strata[census_rows], pes_strata[pes_rows], np.zeros(1, census_strata.dtype)]
    )
    record_role = np.concatenate([np.zeros(n_census, dtype=np.int64), role[pes_rows], [0]])

    label = codes["code"].index
    is_marker = label >= len(CODE_BY_LABEL)
    # The code each label names, -1 for markers and unknown labels.
    numeric = _LABEL_CODES[label]
    phase = codes["phase"].index
    found = _lookup(records, code_id)
    at = np.where(found >= 0, found, records.shape[0])
    weight_row = record_row[at]
    code_role = record_role[at]
    side = np.where(at < n_census, SIDE_CENSUS, SIDE_SURVEY)
    # The side each code belongs on, -1 for codes on either side.
    belongs = _CODE_SIDES[numeric]
    # '#' households covered by the follow-up, and their weights-file rows.
    reweighted = (label == _LABELS.index("#")) & (phase == _PHASES.index("followup"))
    marker_row = np.full(label.shape[0], -1)
    marker_row[reweighted] = _hash_lookup(households, code_id[reweighted])
    fields = {
        **codes,
        "household_id": lambda i: homes[at[i]] if at[i] < homes.shape[0] else b"",
        "side": lambda i: (b"survey", b"census")[side[i]],
    }
    _check(issues, "codes.csv", fields, [
        (_repeats(code_id), "duplicate record_id {record_id}"),
        (~is_marker & (numeric < 0), "unknown code {code!r}"),
        (is_marker & (codes["exclusion"].index < 1), "marker {code} needs an exclusion reason"),
        (is_marker & (phase < 0), "marker {code} has unknown phase {phase!r}"),
        (reweighted & (marker_row < 0), "household {record_id} has no weight"),
        (reweighted & np.append(interviewed, False)[marker_row],
         "household {record_id} is interviewed and marked #"),
        (~is_marker & (found < 0), "record {record_id} not found in census or pes files"),
        (~is_marker & (weight_row < 0), "household {household_id} has no weight"),
        ((belongs >= 0) & (belongs != side), "code {code} on a {side} record {record_id}"),
        ((numeric >= CODE_42_1) & (numeric <= CODE_42_4)
         & ((code_role == ROLE_IN_MOVER) | (code_role == ROLE_BIRTH)),
         "code {code} on an in-mover or birth record {record_id}"),
    ])
    if issues:
        raise ValidationError(issues)

    missing = np.zeros(households.shape[0], dtype=bool)
    missing[marker_row[reweighted]] = True
    districts, district = np.unique(
        _keys(weights["district_id"])[0][weight_rows], return_inverse=True
    )
    coded = np.flatnonzero(~is_marker)
    row = weight_row[coded]
    coded_role = code_role[coded]
    # Survey records found at the interview take their household's
    # noninterview-adjusted weight; out-mover and death reports, and codes on
    # census records, the plain weight.
    roster = ((side[coded] == SIDE_SURVEY) & (coded_role != ROLE_OUT_MOVER)
              & (coded_role != ROLE_DEATH))
    # Only in-scope census records reach a tally, post-strata as their
    # cells; a record outside the sample weighs 0, which adds nothing.
    in_scope = scope[census_rows] == 1
    census_household = record_row[:n_census]
    # Finite weights can still sum past the float range; the totals are
    # checked here, so every tally built from them is finite.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = noninterview_factor(
            district, address_type[weight_rows], value, interviewed, missing,
            districts.shape[0],
        )
        record_weight = value[row] * np.where(roster, factor[row], 1.0)
        census_weight = np.where(census_household >= 0, value[census_household], 0.0)[in_scope]
        finite = np.isfinite(record_weight.sum()) and np.isfinite(census_weight.sum())
    if not finite:
        largest = np.flatnonzero(weighted)[np.argmax(value)]
        raise ValidationError([
            f"weights.csv row {largest + 2}: weight {_text(weights['weight'][largest])}"
            f" of household {_text(weights['household_id'][largest])}"
            " makes the weighted totals overflow"
        ])
    census_text = census_strata[census_rows][in_scope]
    strata, cell = np.unique(
        np.concatenate([census_text, record_stratum[at[coded]]]), return_inverse=True
    )
    if strata.shape[0] == 0:
        return {}
    n_strata = strata.shape[0]
    census_kind = kind[census_rows][in_scope]
    census_cell = cell[:census_text.shape[0]]
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
        cell=cell[census_text.shape[0]:],
        weight=record_weight,
        matched_in_mover=np.zeros(coded.shape[0], dtype=bool),
    )
    if level == "national":
        return tally_records(table, ("all",), np.zeros(n_strata, dtype=np.int64))
    if strata.dtype.kind == "u":
        strata = strata.astype(">u8").view("S8")
    labels = tuple(stratum.decode("utf-8") for stratum in strata.tolist())
    return tally_records(table, labels, np.arange(n_strata))
