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

The writer formats, beside every census record, the coded records of
`matching.record_listing`, which lists them in the rows of the
`matching.RecordTable` that `tally_groups` reduces; it builds no cells,
weights or census counts.  Ingest parses the files back into a
`RecordTable`, post-strata as its census cells, and reduces it with the
same `tally_records`.  Ingest validates before it tallies and reports
every problem at once, so a bad delivery surfaces as one exception listing
its issues: each check names its first `_ISSUES_PER_CHECK` failing rows
and counts the rest in one line, so a wholly bad column costs a few
messages, not one per row.

Adjusted exclusion mode covers '#' households by reweighting.  Their
followup-phase markers and the weights file hold everything
`sampling.noninterview_factor` needs, so ingest weighs each coded record
by the same `matching.record_weights` rule as `record_table`, and the
tallies and estimates equal the simulation path's bit for bit.

Both directions work on columns, a block of rows at a time, and hold at
most one file's bytes beyond the columns they need.  The writer formats
each file as sections of rows, `_WRITE_ROWS` records at a time, as a
uint8 matrix with a NUL-padded row per record, gathering the text of each
column from a table straight into it, and writes only the non-NUL bytes.
Ingest reads a file into one buffer and works through it a megabyte at a
time: one pass checks the UTF-8 text, counts the newlines and finds the
doubled quotes, then a scan of each chunk finds the field bounds of the
lines that end in it, and one column reader (`_Reader`) reads each
needed column for those lines straight out of the buffer as 8-byte words,
into room sized by the file's newlines: id and stratum columns as
big-endian uint64 keys (or bytes, when a field is longer than 8 bytes),
columns with a fixed vocabulary as positions in it, and weights as text.  Every search among keys goes through one index (`_Index`),
built once per key set: record ids, household ids, strata, districts and
weight texts are hashed into a table sized by their distinct keys, and
only keys that share a slot are sorted.  Per-row intermediates are held
in the narrowest integer type that fits and released after their last
use.  The text of a message is built only for the rows it names.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import os
import string
from collections.abc import Callable, Iterator

import numpy as np

from ..errors import SchemaError, ValidationError, check_value
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
    KIND_DUPLICATE,
    KIND_FABRICATED,
    KIND_IMPUTED,
    KIND_PERSON,
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
    among,
    record_listing,
    record_weights,
    tally_records,
)
from ..popsim import DRAW_BLOCK, CensusSim, FileLevel, PesSim, Population
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

# 2**64 divided by the golden ratio, the multiplier of `_hash`: the top
# bits of a word times it are its slot in a hash table (Fibonacci hashing).
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
_LABEL_CODES = np.array([*CODE_BY_LABEL.values()] + [-1] * (len(_MARKER_CELLS) + 1),
                        dtype=np.int16)

# The exclusion field: empty on a code, so a marker needs a position above 0.
_REASONS = ("", *EXCLUSION_MARKERS.values())

# The side each code belongs on, -1 for codes on either side and, in the
# last entry, for labels that name no code.
_CODE_SIDES = np.full(max(CODE_LABELS) + 2, -1, dtype=np.int8)
_CODE_SIDES[list(CODE_SIDE)] = list(CODE_SIDE.values())


# Rows the writer formats at a time: a block's matrix, its NUL mask and its
# bytes then take about 1 MB together.
_WRITE_ROWS = DRAW_BLOCK // 4


def _write(path: str, header: list[str],
           *sections: tuple[int, Callable[[slice], tuple]]) -> None:
    """Write the header, then each section's rows `_WRITE_ROWS` at a time.

    A section is its number of rows and a function giving the parts of a
    block of them (see `_matrix`).  Each block becomes one NUL-padded
    matrix, of which only the non-NUL bytes are written.
    """
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\r\n").encode("utf-8"))
        for n, parts in sections:
            for start in range(0, n, _WRITE_ROWS):
                rows = slice(start, min(start + _WRITE_ROWS, n))
                matrix = _matrix(rows.stop - rows.start, parts(rows))
                handle.write(matrix[matrix != 0])


def _matrix(n: int, parts: tuple) -> np.ndarray:
    """One uint8 row for each of `n` records: the parts side by side.  A
    part is a bytes literal repeated on every row, a uint8 matrix with a
    row per record, or a (table, index) pair whose table rows are gathered
    straight into the matrix."""
    parts = [np.frombuffer(part, dtype=np.uint8)[None] if isinstance(part, bytes) else part
             for part in parts]
    bounds = np.cumsum([0] + [(part[0] if isinstance(part, tuple) else part).shape[1]
                              for part in parts])
    out = np.empty((n, bounds[-1]), dtype=np.uint8)
    for part, start, end in zip(parts, bounds[:-1], bounds[1:]):
        if isinstance(part, tuple):
            np.take(*part, axis=0, out=out[:, start:end])
        else:
            out[:, start:end] = part
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

    Each file is a header and sections of rows, a section being its
    number of rows and the function that formats a block of them: census
    records, survey records, codes then household markers, and sampled
    households.  A file is formatted `_WRITE_ROWS` rows at a time, a block
    being one uint8 matrix with a NUL-padded row per record: integers
    become digits by array arithmetic, and columns that take only a few
    values are gathered from tables of their joined text.  Beyond the world
    the writer holds the codes of the captured and the duplicated persons
    while it writes census.csv, then the world's `record_listing`, and one
    block.
    """
    os.makedirs(out_dir, exist_ok=True)
    strata = pop.stratum_labels
    households = pop.households
    place = _matrix(households.count, (
        b"h", _digits(np.arange(households.count)), b",d",
        _digits(households.district, min_width=4),
    ))

    kind_prefix = _table("ccdf")
    census_tail = _joined(strata, CENSUS_KINDS, (0, 1), end="\r\n")

    def census_rows(person: np.ndarray, kind: np.ndarray, index: np.ndarray | None = None
                    ) -> tuple:
        # A fabrication is numbered by its index and has no person id.
        number = _digits(person if index is None else index)
        household = pop.census_household[person]  # census records have one
        return (
            (kind_prefix, kind), number, b",", number if index is None else b"", b",",
            (place, household), b",",
            (census_tail, (pop.post_stratum[person] * len(CENSUS_KINDS) + kind) * 2
             + ~households.institutional[household]),
        )

    # Captured persons, duplicates, then fabrications.
    captured = np.flatnonzero(census.captured)
    duplicated = np.flatnonzero(census.duplicated)
    _write(
        os.path.join(out_dir, "census.csv"), _CENSUS_HEADER,
        (captured.shape[0], lambda rows: census_rows(
            captured[rows], np.where(census.imputed[captured[rows]], KIND_IMPUTED, KIND_PERSON))),
        (duplicated.shape[0], lambda rows: census_rows(
            duplicated[rows], np.full(rows.stop - rows.start, KIND_DUPLICATE))),
        (census.fab_person.shape[0], lambda rows: census_rows(
            census.fab_person[rows], np.full(rows.stop - rows.start, KIND_FABRICATED),
            np.arange(rows.start, rows.stop))),
    )
    del captured, duplicated

    listing = record_listing(pop, census, result)
    prefix = _table(ID_PREFIXES)
    # The survey records are the listing's first rows: roster records by
    # person, then reports, which are written by person as well.
    survey = int(np.count_nonzero(listing.side == SIDE_SURVEY))
    roster = int(np.count_nonzero(listing.source[:survey] == SOURCE_ROSTER))
    reports = roster + np.argsort(listing.number[roster:survey], kind="stable")
    pes_tail = _joined(strata, ROSTER_ROLES, _PES_STATUSES, end="\r\n")

    def pes_rows(record: slice | np.ndarray) -> tuple:
        record_person = listing.number[record]  # survey records are numbered by their person
        household = listing.household[record]
        number = _digits(record_person)
        return (
            (prefix, listing.source[record]), number, b",", number, b",", (place, household),
            b",", (pes_tail, (pop.post_stratum[record_person] * len(ROSTER_ROLES)
                              + listing.role[record]) * len(_PES_STATUSES)
                   + pes.hh_status[household]),
        )

    _write(os.path.join(out_dir, "pes.csv"), _PES_HEADER, (roster, pes_rows),
           (survey - roster, lambda rows: pes_rows(reports[rows])))
    del reports

    codes = sorted(CODE_LABELS)
    phase_code = _joined(_PHASES, [CODE_LABELS[c] for c in codes], ("",), end="\r\n")

    def code_rows(rows: slice) -> tuple:
        source = listing.source[rows]
        code = listing.code[rows]
        recovered = among(result.hh_cell[listing.household[rows]], (CELL_SECT, CELL_PILCROW))
        followup = ~among(code, _INITIAL_CODES) | (source == SOURCE_REPORT) | (
            (source == SOURCE_ROSTER) & recovered
        )
        return (
            (prefix, source), _digits(listing.number[rows]), b",",
            (phase_code, followup * len(codes) + np.searchsorted(codes, code)),
        )

    # Household markers follow the codes, the '#' households first, then
    # the '§' and the '¶' ones: each a household id and, by the household's
    # cell, its marker's phase, label and reason.
    mask = result.household_mask
    marked = np.concatenate([np.flatnonzero((result.hh_cell == cell) & mask)
                             for cell in _MARKER_CELLS.values()])
    marker_phase = _PHASES[result.exclusion_mode == "adjusted"]
    marker_text = {cell: f",{marker_phase},{label},{EXCLUSION_MARKERS[cell]}\r\n"
                   for label, cell in _MARKER_CELLS.items()}
    marker = _table(marker_text.get(cell, "") for cell in range(max(marker_text) + 1))
    _write(os.path.join(out_dir, "codes.csv"), _CODES_HEADER, (listing.code.shape[0], code_rows),
           (marked.shape[0], lambda rows: (b"h", _digits(marked[rows]),
                                           (marker, result.hh_cell[marked[rows]]))))
    del listing

    sampled = np.flatnonzero(mask)
    weight = (np.ones(households.count) if household_weight is None
              else np.asarray(household_weight))
    address_type = _table(ADDRESS_TYPES)
    flag = _table("01")
    interviewed = result.interviewed().view(np.int8)

    def weight_rows(rows: slice) -> tuple:
        household = sampled[rows]
        return (
            (place, household), b",", (address_type, households.address_type[household]), b",",
            (flag, interviewed[household]), b",", _float_text(weight[household]), b"\r\n",
        )

    _write(os.path.join(out_dir, "weights.csv"), _WEIGHTS_HEADER, (sampled.shape[0], weight_rows))


# Bytes of a file scanned and read at a time: the masks and field bounds
# of one chunk, not of the whole file, are held.
_CHUNK = 1 << 20


def _chunks(data: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Start and bytes of each chunk of the data."""
    return ((start, data[start:start + _CHUNK]) for start in range(0, data.shape[0], _CHUNK))


def _row(data: np.ndarray, offset: int) -> int:
    """The row of the byte at `offset`: one plus the newlines before it."""
    return 1 + sum(int(np.count_nonzero(chunk == ord("\n")))
                   for _, chunk in _chunks(data[:offset]))


def _load(path: str, header: list[str]) -> tuple[np.ndarray, int, int, np.ndarray | None]:
    """The file's bytes, checked to be UTF-8 text without NUL that starts
    with `header` and ends in a newline (one is added when missing), their
    count and the count of newlines outside quotes among them.  Zeros follow
    them in the buffer, for the 8-byte word read from a field near the end.

    When the file holds a quote, the last item is the offsets of the first
    quote of each doubled pair inside a quoted field, else None.  A quote
    never closed, the last quote then, raises SchemaError naming its row:
    one plus the newlines outside quotes, all of which come before it.  A
    file that is missing or cannot be read raises SchemaError naming it.
    """
    try:
        with open(path, "rb") as handle:
            buf = np.zeros(os.fstat(handle.fileno()).st_size + 9, dtype=np.uint8)
            size = handle.readinto(buf[:-9])
    except FileNotFoundError:
        raise SchemaError("file is missing", path=path) from None
    except OSError as exc:  # a directory, a path through a file, no permission
        raise SchemaError(f"cannot read file ({exc.strerror})", path=path) from None
    if not size:
        raise SchemaError("file is empty, expected a header", path=path, row=1)
    data = buf[:size]
    nul = int(data.argmin())
    if data[nul] == 0:
        raise SchemaError(f"NUL byte at offset {nul}", path=path, row=_row(data, nul))
    # UTF-8 is decoded a chunk at a time; the decoder holds the bytes of a
    # character that a chunk cuts until the next chunk.  A chunk of ASCII
    # with nothing held is valid on its own.
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, newlines, inside = size, 0, False
    doubled = []
    for start, chunk in _chunks(data):
        held = len(decoder.getstate()[0])
        if held or chunk.max() >= 0x80:
            try:
                decoder.decode(memoryview(chunk), start + chunk.shape[0] == size)
            except UnicodeDecodeError as exc:
                offset = start - held + exc.start
                raise SchemaError(f"not UTF-8: byte {data[offset]:#04x} at offset {offset}",
                                  path=path, row=_row(data, offset)) from None
        newline = chunk == ord("\n")
        if line == size and newline.any():
            line = start + int(newline.argmax())
        quote = chunk == ord('"')
        if inside or quote.any():
            outside = _outside(chunk, inside)
            newline &= outside
            inside = not outside[-1]
            outside &= quote
            outside &= buf[start + 1:start + chunk.shape[0] + 1] == ord('"')
            doubled.append(np.flatnonzero(outside) + start)
        newlines += int(np.count_nonzero(newline))
    try:
        first = next(csv.reader([str(data[:line], "utf-8")]))
    except csv.Error as exc:
        raise SchemaError(f"header is not comma separated text: {exc}",
                          path=path, row=1) from None
    if first != header:
        raise SchemaError(f"header mismatch: expected {header}, found {first}",
                          path=path, row=1)
    if inside:
        raise SchemaError("quote is never closed", path=path, row=newlines + 1)
    if data[-1] != ord("\n"):
        buf[size] = ord("\n")
        size, newlines = size + 1, newlines + 1
    return buf, size, newlines, np.concatenate(doubled) if doubled else None


def _outside(chunk: np.ndarray, inside: bool) -> np.ndarray:
    """Which bytes of the chunk lie outside quotes, `inside` telling
    whether the bytes before them end inside quotes.  A quote toggles
    quoting, and a doubled quote inside a quoted field toggles it twice:
    its first quote closes quoting and the next byte reopens it."""
    return ((np.cumsum(chunk == ord('"'), dtype=np.uint8) + inside) & 1) == 0


def _lines(path: str, data: np.ndarray, n_fields: int, quoted: bool
           ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """The lines after the header, a chunk of the data at a time: the rows
    of the lines that end in the chunk, the end of the line before each,
    and their field ends, a row per line.  Field ends are the commas and
    newlines outside quotes; a line with other than `n_fields` fields
    raises SchemaError."""
    pending = np.zeros(0, dtype=np.intp)  # field ends of a line not yet ended
    previous = -1  # end of the line before the next one
    lines = 0  # lines ended so far, the header's included
    inside = False
    for start, chunk in _chunks(data):
        cut = chunk == ord(",")
        cut |= chunk == ord("\n")
        if quoted:
            outside = _outside(chunk, inside)
            inside = not outside[-1]
            cut &= outside
        ends = np.concatenate([pending, np.flatnonzero(cut) + start])
        newline = data[ends] == ord("\n")
        ended = ends.shape[0] - int(np.argmax(newline[::-1])) if newline.any() else 0
        pending, ends, newline = ends[ended:], ends[:ended], newline[:ended]
        if (ended != np.count_nonzero(newline) * n_fields
                or not newline[n_fields - 1::n_fields].all()):
            fields = np.bincount(np.cumsum(newline) - newline)
            row = int(np.flatnonzero(fields != n_fields)[0])
            raise SchemaError(f"expected {n_fields} fields, found {fields[row]}",
                              path=path, row=lines + row + 1)
        ends = ends.reshape(-1, n_fields)
        if lines == 0 and ends.shape[0]:
            previous, ends, lines = int(ends[0, -1]), ends[1:], 1
        if ends.shape[0]:
            yield (slice(lines - 1, lines - 1 + ends.shape[0]),
                   np.concatenate([[previous], ends[:-1, -1]]), ends)
            lines += ends.shape[0]
            previous = int(ends[-1, -1])


def _read_columns(in_dir: str, name: str, header: list[str], columns: tuple[str, ...],
                  keys: tuple[str, ...] = (), vocabularies: dict | None = None) -> dict:
    """The named columns of one file, each field as its UTF-8 bytes.  A
    column named in `keys` whose fields all fit 8 bytes comes as keys
    instead, each field read as one big-endian uint64, NUL padded; a column
    with a vocabulary comes as the `_Reader` of its positions in it.

    The file is held whole and read `_CHUNK` bytes at a time: a scan of a
    chunk finds the field ends of the lines that end in it (`_lines`), and
    their fields are then read straight out of the buffer, a quoted field
    without its enclosing quotes and with its doubled quotes undoubled, as
    the csv module reads it.
    """
    path = os.path.join(in_dir, name)
    buf, size, newlines, doubled = _load(path, header)
    data = buf[:size]
    text = buf if doubled is None or not doubled.size else np.delete(buf, doubled)
    # Each field as little-endian 8-byte words read from its start, with
    # the bytes past its end masked off; the words viewed as bytes are the
    # field, NUL padded, and a single word byte-swapped is its key.  The
    # zeros past the end are for the word read from a field near it.
    word_at = np.ndarray(shape=(text.shape[0] - 7,), dtype="<u8", buffer=text, strides=(1,))

    # Every line ends in a newline outside quotes, so there are as many
    # rows as those newlines after the header's.
    out = {column: _Reader(newlines - 1, (vocabularies or {}).get(column, ()))
           for column in columns}
    rows = slice(0, 0)
    for rows, line_end, ends in _lines(path, data, len(header), doubled is not None):
        for column, reader in out.items():
            i = header.index(column)
            start = (ends[:, i - 1] if i else line_end) + 1
            end = ends[:, i]
            if i == len(header) - 1:
                # A line ending in \r\n: the \r is not part of the last field.
                # (Before an empty field is the comma or newline that ends the
                # previous one, never a \r.)
                end = end - (data[end - 1] == ord("\r"))
            if doubled is not None:
                # Without enclosing quotes, at its place in the buffer without
                # the doubled quotes.
                enclosed = ((end - start >= 2) & (data[start] == ord('"'))
                            & (data[end - 1] == ord('"')))
                start += enclosed
                start -= np.searchsorted(doubled, start)
                end = end - enclosed
                end -= np.searchsorted(doubled, end)
            reader.read(rows, word_at, start, end - start)
    for column, reader in out.items():
        if reader.long is not None:
            raise SchemaError(f"field is longer than {_MAX_FIELD} bytes", path=path,
                              row=reader.long + 2, column=column)
    return {column: reader.result(rows.stop, column in keys) for column, reader in out.items()}


def _words(word_at: np.ndarray, start: np.ndarray, length: np.ndarray, first: np.ndarray
           ) -> np.ndarray:
    """The fields at `start` as rows of little-endian 8-byte words, NUL
    padded, given their first words: each further word is read only for the
    fields that reach it."""
    field = np.zeros((start.shape[0], max(int(length.max(initial=0)) + 7 >> 3, 1)),
                     dtype="<u8")
    field[:, 0] = first
    for word in range(1, field.shape[1]):
        long = np.flatnonzero(length > 8 * word)
        field[long, word] = (word_at[start[long] + 8 * word]
                             & _LOW_BYTES[np.minimum(length[long] - 8 * word, 8)])
    return field


def _as_bytes(field: np.ndarray) -> np.ndarray:
    """Rows of words as one bytes value each."""
    return field.view(f"S{8 * field.shape[1]}").ravel()


class _Reader:
    """One column of a file, read a block of rows at a time into room for
    `n` rows.  A column with a vocabulary is held as each field's position
    in it, `index`, -1 for other text, in the narrowest integer type, and
    `reader[row]` is a field's bytes; of other text only the first
    `_ISSUES_PER_CHECK` fields are kept, in `other`, which is all a capped
    issue list can show.  Any other column is held as the little-endian
    8-byte words of each field, NUL padded, a row of `field` each, from
    which `result` makes keys or bytes.  `long` is the first row with a
    field longer than `_MAX_FIELD`, after which nothing more is read.

    A field equals a word when its first 8-byte word, NUL padded, equals
    the word's; that settles words shorter than 8 bytes, as no field holds
    a NUL.  A longer word also needs the field's length and its further
    words, read only for the fields that match so far.
    """

    def __init__(self, n: int, vocabulary=()):
        self.vocabulary = [word.encode("utf-8") for word in vocabulary]
        # Each word as 8-byte words, NUL padded.
        self.words = [np.frombuffer(word.ljust(max(-(-len(word) // 8), 1) * 8, b"\0"), dtype="<u8")
                      for word in self.vocabulary]
        self.index = np.full(n if vocabulary else 0, -1, dtype=_index_type(len(vocabulary)))
        self.field = np.zeros((0 if vocabulary else n, 1), dtype="<u8")
        self.other: dict[int, bytes] = {}
        self.long: int | None = None

    def read(self, rows: slice, word_at: np.ndarray, start: np.ndarray, length: np.ndarray
             ) -> None:
        width = int(length.max(initial=0))
        if self.long is not None or width > _MAX_FIELD:
            if self.long is None:
                self.long = rows.start + int(np.argmax(length > _MAX_FIELD))
            return
        first = word_at[start]
        first &= _LOW_BYTES[np.minimum(length, 8) if width > 8 else length]
        if not self.vocabulary:
            field = _words(word_at, start, length, first) if width > 8 else first[:, None]
            if field.shape[1] > self.field.shape[1]:
                self.field = np.pad(self.field,
                                    ((0, 0), (0, field.shape[1] - self.field.shape[1])))
            self.field[rows, :field.shape[1]] = field
            return
        index = self.index[rows]
        for position, (word, target) in enumerate(zip(self.vocabulary, self.words)):
            equal = first == target[0]
            if len(word) >= 8:
                equal = np.flatnonzero(equal & (length == len(word)))
                for k in range(1, target.shape[0]):
                    words = word_at[start[equal] + 8 * k] & _LOW_BYTES[min(len(word) - 8 * k, 8)]
                    equal = equal[words == target[k]]
            index[equal] = position
        other = np.flatnonzero(index < 0)[:_ISSUES_PER_CHECK - len(self.other)]
        text = _as_bytes(_words(word_at, start[other], length[other], first[other]))
        self.other.update(zip((other + rows.start).tolist(), text.tolist()))

    def kept(self, rows: np.ndarray) -> np.ndarray:
        """Which of the rows have their field's bytes at hand."""
        return (self.index[rows] >= 0) | np.isin(rows, list(self.other))

    def __getitem__(self, row: int) -> bytes:
        position = self.index[row]
        return self.other[row] if position < 0 else self.vocabulary[position]

    def result(self, n: int, key: bool):
        """The first `n` rows: this reader for a column with a vocabulary,
        keys when `key` and every field fits 8 bytes, else each field's
        bytes."""
        if self.vocabulary:
            self.index = self.index[:n]
            return self
        field = self.field[:n]
        if key and field.shape[1] == 1:
            return field[:, 0].byteswap(inplace=True)
        return _as_bytes(field)


def _keys(*columns: np.ndarray) -> list[np.ndarray]:
    """Key columns of several files in one representation that sorts and
    compares as their bytes do: the uint64 keys `_read_columns` reads when
    every field fits 8 bytes, else every column as its bytes."""
    if all(column.dtype.kind == "u" for column in columns):
        return list(columns)
    columns = [column.astype(">u8").view("S8") if column.dtype.kind == "u" else column
               for column in columns]
    width = max(column.dtype.itemsize for column in columns)
    return [column.astype(f"S{width}", copy=False) for column in columns]


def _text(field) -> str:
    """A field's text, from its bytes or from its uint64 key."""
    if isinstance(field, np.unsignedinteger):
        field = int(field).to_bytes(8, "big").rstrip(b"\0")
    return field.decode("utf-8")


def _index_type(n: int) -> np.dtype:
    """The narrowest signed integer type that holds -1 and every index
    below n."""
    return np.min_scalar_type(-max(n, 1))


def _hash(keys: np.ndarray) -> np.ndarray:
    """Each key's slot in a hash table of 2**64 slots, whose top bits are
    its slot in a smaller one.  Each 8-byte word of a key, with its high
    half folded into its low half, is mixed in and multiplied by 2**64
    divided by the golden ratio (Fibonacci hashing); the fold spreads keys
    that differ only in their high bytes, as short ids and labels do."""
    words = keys.view(np.uint64).reshape(keys.shape[0], keys.dtype.itemsize // 8).T
    hashed = words[0] >> np.uint64(32)
    for k, word in enumerate(words):
        hashed ^= word if k == 0 else word ^ word >> np.uint64(32)
        hashed *= _GOLDEN
    return hashed


class _Index:
    """A set of keys, integers or bytes, indexed once: the first row
    holding each key, from which follow the rows that repeat an earlier
    one, the first row of each query and each row's position among the
    distinct keys.

    Keys are hashed into a table in which each slot holds the first row
    landing on it: four to eight slots per distinct key, the distinct keys
    being counted first as the slots they take in a table of four to eight
    slots per row, and at least one slot per sixteen rows, so that a few
    keys over many rows seldom share one.  The keys of a slot that
    different keys share are sorted instead, stably, and found by binary
    search.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        n = keys.shape[0]
        rows = np.arange(n, dtype=_index_type(n + 2))
        slot = _hash(keys)
        slot >>= np.uint64(62 - n.bit_length())
        taken = np.zeros(4 << n.bit_length(), dtype=bool)
        taken[slot.view(np.int64)] = True
        bits = max(int(np.count_nonzero(taken)).bit_length() + 2, n.bit_length() - 4)
        del taken
        slot >>= np.uint64(n.bit_length() + 2 - bits)
        slot = slot.view(np.int64)
        self.shift = np.uint64(64 - bits)
        # An empty slot holds n, a slot that different keys share n + 1.
        self.table = np.full(1 << bits, n, dtype=rows.dtype)
        np.minimum.at(self.table, slot, rows)
        self.first = self.table[slot]
        self.table[slot[keys[self.first] != keys]] = n + 1
        shared = np.flatnonzero(self.table[slot] > n)
        del slot
        # The rows of the shared slots, in their keys' order: all of a key's
        # rows are among them, so its first row is the first of its run.
        self.order = shared[np.argsort(keys[shared], kind="stable")]
        self.sorted = keys[self.order]
        run = np.ones(self.order.shape[0], dtype=bool)
        np.not_equal(self.sorted[1:], self.sorted[:-1], out=run[1:])
        start = np.flatnonzero(run)
        self.first[self.order] = np.repeat(self.order[start], np.diff(start, append=run.shape[0]))
        self.repeats = self.first != rows

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The first row holding each query, -1 where none does."""
        n = self.keys.shape[0]
        if not n:
            return np.full(queries.shape[0], -1, dtype=self.first.dtype)
        at = self.table[(_hash(queries) >> self.shift).view(np.int64)]
        row = np.where((at < n) & (self.keys[np.minimum(at, n - 1)] == queries), at, -1)
        # Only keys of a shared slot are sorted, so there are some when a
        # query lands on one.
        search = np.flatnonzero(at > n)
        query = queries[search]
        at = np.minimum(np.searchsorted(self.sorted, query), self.order.shape[0] - 1)
        row[search] = np.where(self.sorted[at] == query, self.order[at], -1)
        return row

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys, sorted, and each row's position among them, in
        the narrowest integer type."""
        distinct = np.flatnonzero(~self.repeats)
        distinct = distinct[np.argsort(self.keys[distinct])]
        rank = np.empty(self.keys.shape[0], dtype=_index_type(distinct.shape[0]))
        rank[distinct] = np.arange(distinct.shape[0])
        return self.keys[distinct], rank[self.first]


def _found(rows: np.ndarray, passed: np.ndarray) -> np.ndarray:
    """Rows found by `_Index.find`, -1 for those that failed a check."""
    return np.where(np.append(passed, False)[rows], rows, -1)


# Rows of a file reported by name for each check they fail; the others are
# counted.
_ISSUES_PER_CHECK = 10


def _check(issues: list[str], name: str, fields: dict, checks: list[tuple[np.ndarray, str]]
           ) -> np.ndarray:
    """Report each row's first failing check as "<file> row <n>: <message>",
    in row order, the message being the check's template filled in from the
    row's `fields`: a column, a `_Reader`, or a function of the row for
    text that only a message needs.  Each check reports its first
    `_ISSUES_PER_CHECK` rows whose fields are at hand and then, when more
    rows fail it, one line "<file> row <n>: <count> more rows fail:
    <template>", n being the first of them.  Returns which rows passed
    every check."""
    first = np.full(checks[0][0].shape[0], -1, dtype=_index_type(len(checks)))
    for number in reversed(range(len(checks))):
        if checks[number][0].any():
            first[checks[number][0]] = number
    failing = np.flatnonzero(first >= 0)
    shown, more = [], []
    for number, (_, template) in enumerate(checks):
        rows = failing[first[failing] == number]
        keys = [key for _, key, _, _ in string.Formatter().parse(template) if key]
        listed = rows
        for key in keys:
            if isinstance(fields[key], _Reader):
                listed = listed[fields[key].kept(listed)]
        listed = listed[:_ISSUES_PER_CHECK]
        for i in listed.tolist():
            row = {key: _text(fields[key](i) if callable(fields[key]) else fields[key][i])
                   for key in keys}
            shown.append((i, f"{name} row {i + 2}: " + template.format(**row)))
        rest = rows[~np.isin(rows, listed)]
        if rest.shape[0]:
            more.append(f"{name} row {rest[0] + 2}: {rest.shape[0]} more rows fail: {template}")
    issues.extend(message for _, message in sorted(shown))
    issues.extend(more)
    return first < 0


def _parse_weights(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights as floats, and which ones are not numbers at all; each
    distinct text is parsed once."""
    distinct, position = _Index(text).positions()
    bad = np.zeros(distinct.shape[0], dtype=bool)
    try:
        values = distinct.astype(np.float64)
    except ValueError:
        values = np.full(distinct.shape[0], np.nan)
        for i, item in enumerate(distinct.tolist()):
            try:
                values[i] = float(item)
            except ValueError:
                bad[i] = True
    return values[position], bad[position]


def ingest_microdata(in_dir: str, level: FileLevel = "national") -> dict[str, MatchTallies]:
    """Rebuild estimation tallies from a microdata directory.

    `level` is a `popsim.FileLevel`, and a ConfigError names any other;
    finer geography is not in the file schema.  In-mover matching is not
    reconstructible from files, so the returned tallies always have m_in
    unset and procedure B needs the simulation path.  Households under a
    '#' marker of the followup phase have their weight moved onto the
    interviewed households by `sampling.noninterview_factor`, as the
    simulation path does in adjusted exclusion mode (see the module
    docstring).
    """
    check_value("level", level, FileLevel)

    ids = ("record_id", "household_id", "stratum")
    census = _read_columns(in_dir, "census.csv", _CENSUS_HEADER, (*ids, "kind", "target_scope"),
                           ids, {"kind": CENSUS_KINDS, "target_scope": ("0", "1")})
    pes = _read_columns(in_dir, "pes.csv", _PES_HEADER, (*ids, "roster"), ids,
                        {"roster": ROSTER_ROLES})
    codes = _read_columns(in_dir, "codes.csv", _CODES_HEADER, tuple(_CODES_HEADER),
                          ("record_id",),
                          {"phase": _PHASES, "code": _LABELS, "exclusion": _REASONS})
    weights = _read_columns(in_dir, "weights.csv", _WEIGHTS_HEADER, tuple(_WEIGHTS_HEADER),
                            ("household_id", "district_id"),
                            {"address_type": ADDRESS_TYPES, "interviewed": ("0", "1")})
    issues: list[str] = []
    # Records are the census rows, then the survey rows: each one's cell
    # among the strata of every record, and further down its weights row, -1
    # outside the sample, and its role, with one more entry standing in for
    # records not found.
    strata, record_cell = _Index(np.concatenate(
        _keys(census.pop("stratum"), pes.pop("stratum")))).positions()
    # Ids as keys, one representation across the files.
    census_id, census_home, pes_id, pes_home, code_id, weight_home = _keys(
        census["record_id"], census.pop("household_id"), pes["record_id"],
        pes.pop("household_id"), codes["record_id"], weights["household_id"],
    )
    record_home = np.concatenate([census_home, pes_home])
    del census_home, pes_home

    value, not_number = _parse_weights(weights["weight"])
    with np.errstate(invalid="ignore"):
        bad_value = ~not_number & ~(np.isfinite(value) & (value >= 0))
    address_type = weights["address_type"].index
    interviewed = weights["interviewed"].index
    homes = _Index(weight_home)
    weighted = _check(issues, "weights.csv", weights, [
        (homes.repeats, "duplicate household {household_id}"),
        (not_number, "weight for {household_id} is not a number: {weight!r}"),
        (bad_value, "weight for {household_id} must be finite and non-negative"),
        (address_type < 0, "household {household_id} has unknown address_type {address_type!r}"),
        (interviewed < 0, "household {household_id} has bad interviewed flag {interviewed!r}"),
    ])
    interviewed = interviewed == 1

    # Only rows that pass their file's checks are joined, a survey row once
    # its id and roster do, and a code finds a census record before a
    # survey record of the same id.
    census_ids = _Index(census_id)
    kind = census["kind"].index
    scope = census["target_scope"].index
    in_census = _found(census_ids.find(code_id), _check(issues, "census.csv", census, [
        (census_ids.repeats, "duplicate record_id {record_id}"),
        (kind < 0, "record {record_id} has unknown kind {kind!r}"),
        (scope < 0, "record {record_id} has bad target_scope {target_scope!r}"),
    ]))
    del census_ids
    pes_ids = _Index(pes_id)
    role = pes["roster"].index
    pes_repeat = pes_ids.repeats
    pes_valid = ~pes_repeat & (role >= 0)
    in_pes = _found(pes_ids.find(code_id), pes_valid)
    del pes_ids
    n_census = census_id.shape[0]
    n_records = n_census + pes_id.shape[0]
    record_row = np.concatenate([_found(homes.find(record_home), weighted), [-1]],
                                dtype=homes.first.dtype)
    record_role = np.concatenate([np.zeros(n_census, dtype=role.dtype), role, [0]],
                                 dtype=role.dtype)

    label = codes["code"].index
    is_marker = label >= len(CODE_BY_LABEL)
    # The code each label names, -1 for markers and unknown labels.
    numeric = _LABEL_CODES[label]
    phase = codes["phase"].index
    at = np.where(in_pes >= 0, in_pes.astype(_index_type(n_records + 1)) + n_census, n_records)
    at = np.where(in_census >= 0, in_census, at)
    del in_census, in_pes
    weight_row = record_row[at]
    code_role = record_role[at]
    side = np.where(at < n_census, np.int8(SIDE_CENSUS), np.int8(SIDE_SURVEY))
    # The side each code belongs on, -1 for codes on either side.
    belongs = _CODE_SIDES[numeric]
    # '#' households covered by the follow-up, and their weights-file rows.
    reweighted = (label == _LABELS.index("#")) & (phase == _PHASES.index("followup"))
    marker_row = np.full(label.shape[0], -1, dtype=record_row.dtype)
    marker_row[reweighted] = _found(homes.find(code_id[reweighted]), weighted)
    del homes

    has_code = np.zeros(n_records + 1, dtype=bool)
    has_code[at[~is_marker]] = True
    _check(issues, "pes.csv", pes, [
        (pes_repeat, "duplicate record_id {record_id}"),
        (role < 0, "record {record_id} has unknown roster {roster!r}"),
        (pes_valid & ~has_code[n_census:-1], "record {record_id} has no code"),
    ])
    del pes, pes_repeat, pes_valid, role, has_code

    fields = {**codes, "household_id": lambda i: record_home[at[i]] if at[i] < n_records else b"",
              "side": lambda i: (b"survey", b"census")[side[i]]}
    _check(issues, "codes.csv", fields, [
        (_Index(code_id).repeats, "duplicate record_id {record_id}"),
        (~is_marker & (numeric < 0), "unknown code {code!r}"),
        (is_marker & (codes["exclusion"].index < 1), "marker {code} needs an exclusion reason"),
        (is_marker & (phase < 0), "marker {code} has unknown phase {phase!r}"),
        (reweighted & (marker_row < 0), "household {record_id} has no weight"),
        (reweighted & np.append(interviewed, False)[marker_row],
         "household {record_id} is interviewed and marked #"),
        (~is_marker & (at == n_records), "record {record_id} not found in census or pes files"),
        (~is_marker & (weight_row < 0), "household {household_id} has no weight"),
        ((belongs >= 0) & (belongs != side), "code {code} on a {side} record {record_id}"),
        ((numeric >= CODE_42_1) & (numeric <= CODE_42_4)
         & ((code_role == ROLE_IN_MOVER) | (code_role == ROLE_BIRTH)),
         "code {code} on an in-mover or birth record {record_id}"),
    ])
    if issues:
        raise ValidationError(issues)
    # Every row of every file passed its checks, so the rows are the valid
    # records and households.
    del codes, fields, code_id, census_id, pes_id, record_home, belongs

    missing = np.zeros(value.shape[0], dtype=bool)
    missing[marker_row[reweighted]] = True
    districts, district = _Index(weights["district_id"]).positions()
    coded = np.flatnonzero(~is_marker)
    at, row, side, code, coded_role = (
        column[coded] for column in (at, weight_row, side, numeric, code_role)
    )
    del coded, is_marker, weight_row, numeric, code_role, label, phase, reweighted, marker_row
    # Only in-scope census records reach a tally, post-strata as their
    # cells; a record outside the sample weighs 0, which adds nothing.
    in_scope = np.flatnonzero(scope == 1)
    census_household = record_row[in_scope]
    # Finite weights can still sum past the float range; the totals are
    # checked here, so every tally built from them is finite.
    with np.errstate(over="ignore", invalid="ignore"):
        factor = noninterview_factor(
            district, address_type, value, interviewed, missing, districts.shape[0],
        )
        record_weight = record_weights(side, coded_role, row, value, factor)
        # Gathered through a sentinel: a record outside the sample, at -1,
        # weighs 0 even when the weights file has no rows.
        census_weight = np.append(value, 0.0)[census_household]
        finite = np.isfinite(record_weight.sum()) and np.isfinite(census_weight.sum())
    if not finite:
        largest = int(np.argmax(value))
        raise ValidationError([
            f"weights.csv row {largest + 2}: weight {_text(weights['weight'][largest])}"
            f" of household {_text(weights['household_id'][largest])}"
            " makes the weighted totals overflow"
        ])
    del weights, factor, census_household, record_row, record_role

    # Cells are the strata that in-scope census records and coded records
    # hold, numbered in sorted order.
    census_cell = record_cell[in_scope]
    cell = record_cell[at]
    used = np.zeros(strata.shape[0], dtype=bool)
    used[census_cell] = True
    used[cell] = True
    if not used.all():
        renumber = (np.cumsum(used) - 1).astype(record_cell.dtype)
        strata, census_cell, cell = strata[used], renumber[census_cell], renumber[cell]
    if strata.shape[0] == 0:
        return {}
    n_strata = strata.shape[0]
    census_kind = kind[in_scope].astype(np.int64)
    table = RecordTable(
        census_count=np.bincount(
            census_kind * n_strata + census_cell, minlength=len(CENSUS_KINDS) * n_strata
        ).reshape(len(CENSUS_KINDS), n_strata),
        census_kind=census_kind,
        census_cell=census_cell,
        census_weight=census_weight,
        side=side,
        code=code,
        role=coded_role,
        cell=cell,
        weight=record_weight,
    )
    if level == "national":
        return tally_records(table, ("all",), np.zeros(n_strata, dtype=np.int64))
    return tally_records(table, tuple(map(_text, strata)), np.arange(n_strata))
