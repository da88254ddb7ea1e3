"""Record matching between the census and the survey, and final coding.

Matching is driven by the household grid: each household falls into a cell
of census listing status crossed with survey listing status, and the cell
decides how its records are handled.

    census WITH_Q   x survey WITH_Q        person-level matching
    census WITH_Q   x survey ABSENT        census records presumed matched
    census WITH_Q   x survey NOT_LISTED /
                      VACANT / VACANT_MISSED
                                           census records resolved as survey
                                           omissions unless an out-mover
                                           report reaches them
    census missed   x survey WITH_Q        whole household coded a census
                                           omission outright (bare 42), or a
                                           survey-only household when nobody
                                           lived there at census time
    census WITHOUT_Q x survey ABSENT       excluded, marker '#'
    census WITHOUT_Q x survey NOT_LISTED   excluded, marker '§'
    census NOT_LISTED x survey ABSENT      excluded, marker '¶', when someone
                                           lived there at census time

Every other cell is dark: no record collected there is coded.  The
statuses are `popsim`'s, labelled by `popsim.CENSUS_STATUSES` and
`popsim.PES_STATUSES`.  `EXCLUSION_MARKERS` gives each excluded cell its
marker symbol and its reason, as the codes file writes them, and
`INTERVIEWED_CELLS` are the cells whose survey roster was collected.

Person-level outcomes use the field code taxonomy: 10 matched non-mover,
20 in-mover on the survey roster, 30 out-mover or death confirmed by proxy
report, 41 erroneous survey record, 51 erroneous census record, 42/1..4
census omissions and 52/1..4 survey omissions, subcoded by how the omission
arose (whole household missed, household known but unenumerated, resolved
from external sources, person-level within a processed household).  Codes
20, 41 and 51 never enter the population estimate.

Matching errors are injected after the truth is known, so every biased
outcome has a correct counterfactual: false nonmatches split a matched
pair into a 42/4 plus a 52/4, false matches turn an unmatched survey
record into a spurious 10, household false nonmatches split a household's
pairs into 42/2 plus 52/2, and resolution flips swap omission and
erroneous outcomes during follow-up.

Excluded cells are either left out (the carry-forward of the field rules,
`exclusion_mode="sci"`) or handled by a simulated full-information
follow-up (`exclusion_mode="adjusted"`): '#' households are covered by
reweighting interviewed survey households with the noninterview rule of
`sampling.noninterview_factor` (within district and address type, then
district, then national), '§' households have their census-time members
recovered as 42/2, and '¶' households are interviewed late, yielding 20s
and 42/1s.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, Rate, check_fields, check_value
from .estimators import FCodeTallies, MoverTallies
from .popsim import (
    CEN_NOT_LISTED,
    CEN_WITH_Q,
    CEN_WITHOUT_Q,
    CENSUS_KINDS,
    CENSUS_STATUSES,
    KIND_DUPLICATE,
    KIND_FABRICATED,
    KIND_IMPUTED,
    KIND_PERSON,
    PES_ABSENT,
    PES_NOT_LISTED,
    PES_STATUSES,
    PES_VACANT,
    PES_VACANT_MISSED,
    PES_WITH_Q,
    SCOPE_BORN,
    SCOPE_DIED,
    SCOPE_IN,
    CensusSim,
    PesSim,
    Population,
    blocks,
    gather,
    groups,
    joint_cell,
    uniform_below,
)
from .sampling import noninterview_factor

__all__ = [
    "CODE_NONE",
    "CODE_PAIRED",
    "CODE_10",
    "CODE_20",
    "CODE_30",
    "CODE_41",
    "CODE_51",
    "CODE_42_1",
    "CODE_42_2",
    "CODE_42_3",
    "CODE_42_4",
    "CODE_52_1",
    "CODE_52_2",
    "CODE_52_3",
    "CODE_52_4",
    "CODE_LABELS",
    "EXCLUSION_MARKERS",
    "INTERVIEWED_CELLS",
    "ExclusionMode",
    "MatchErrorModel",
    "MatchResult",
    "MatchTallies",
    "RecordListing",
    "RecordTable",
    "census_records",
    "household_weights",
    "match_and_code",
    "record_listing",
    "record_table",
    "record_weights",
    "tally_groups",
    "tally_records",
]

CODE_NONE = 0
CODE_PAIRED = 1      # census record represented by its survey-side pair row
CODE_10 = 10
CODE_20 = 20
CODE_30 = 30
CODE_41 = 41
CODE_51 = 51
CODE_42_1 = 421
CODE_42_2 = 422
CODE_42_3 = 423
CODE_42_4 = 424
CODE_52_1 = 521
CODE_52_2 = 522
CODE_52_3 = 523
CODE_52_4 = 524

CODE_LABELS = {
    CODE_10: "10",
    CODE_20: "20",
    CODE_30: "30",
    CODE_41: "41",
    CODE_51: "51",
    CODE_42_1: "42/1",
    CODE_42_2: "42/2",
    CODE_42_3: "42/3",
    CODE_42_4: "42/4",
    CODE_52_1: "52/1",
    CODE_52_2: "52/2",
    CODE_52_3: "52/3",
    CODE_52_4: "52/4",
}
CODE_BY_LABEL = {label: code for code, label in CODE_LABELS.items()}

# Household grid cells.
CELL_DARK = 0
CELL_PAIR = 1
CELL_PRESUME = 2
CELL_CEN_NL = 3
CELL_CEN_VAC = 4
CELL_CEN_VACM = 5
CELL_BARE42 = 6
CELL_PES_ONLY = 7
CELL_HASH = 8
CELL_SECT = 9
CELL_PILCROW = 10
CELL_INSTITUTIONAL = 11

# Each excluded cell's household marker: its symbol and its reason, in the
# order the codes file lists the marked households.
EXCLUSION_MARKERS = {
    CELL_HASH: ("#", "temp-absent-no-questionnaire"),
    CELL_SECT: ("§", "not-listed-no-questionnaire"),
    CELL_PILCROW: ("¶", "temp-absent-unlisted-census"),
}

# Cells whose survey roster was collected: pair, bare 42 and survey-only.
INTERVIEWED_CELLS = (CELL_PAIR, CELL_BARE42, CELL_PES_ONLY)

# How the excluded cells are handled (see the module docstring).
ExclusionMode = Literal["sci", "adjusted"]


@dataclass(frozen=True)
class MatchErrorModel:
    """Independent per-record matching error rates.

    false_nonmatch breaks true links (pairs and out-mover links alike),
    false_match spuriously resolves unmatched survey records, and
    resolution_flip swaps the omission and erroneous outcomes of
    person-level follow-up.  household_false_nonmatch breaks every
    non-mover pair of an affected household at once.
    """

    false_nonmatch: Rate = 0.0
    false_match: Rate = 0.0
    resolution_flip: Rate = 0.0
    household_false_nonmatch: Rate = 0.0

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class MatchResult:
    """Final codes for one matched world.

    `person` lists, in ascending order, the persons matching coded: those
    whose census-time or survey-time household is sampled, every person
    without a mask.  Each listed person owns one entry in every slot
    array: `pes_code` for their survey-side record (pair codes 10, roster
    codes 20/41/42/x) and `cen_code` for their census-side resolution
    (PAIRED sentinel, presumed 10, 30, 51, 52/x, plus 42/x for out-mover
    reports with no census record to land on).  `orphan_code` carries the
    stranded report when a false nonmatch splits an out-mover link, and
    `dup_code` the person's duplicate census record.  Fabricated census
    records get their own code array, one entry per fabrication.
    """

    person: np.ndarray
    pes_code: np.ndarray
    cen_code: np.ndarray
    orphan_code: np.ndarray
    in_mover_matched: np.ndarray   # would match under a nationwide in-mover search
    dup_code: np.ndarray
    fab_code: np.ndarray
    hh_cell: np.ndarray
    exclusion_mode: ExclusionMode
    household_mask: np.ndarray

    def interviewed(self) -> np.ndarray:
        """Sampled households whose survey roster was collected, the
        interviewed set of the noninterview adjustment."""
        return self.household_mask & among(self.hh_cell, INTERVIEWED_CELLS)

    def code_counts(self) -> dict[str, int]:
        """Unweighted tally of every emitted code, labels as keys."""
        total = sum(
            np.bincount(codes, minlength=max(CODE_LABELS) + 1)
            for codes in (self.pes_code, self.cen_code, self.orphan_code, self.dup_code,
                          self.fab_code)
        )
        return {label: int(total[code]) for code, label in CODE_LABELS.items() if total[code]}


@dataclass(frozen=True)
class MatchTallies:
    """Everything the estimators need for one estimation group."""

    fcode: FCodeTallies
    movers: MoverTallies
    census_count: float
    imputations: float
    e_sample: float
    erroneous: float

    def census_correct(self) -> float:
        """(c - ii) * (1 - ee / ne); the deflation drops out when there is
        no E-sample mass to estimate it from."""
        base = self.census_count - self.imputations
        if self.e_sample == 0:
            return base
        return base * (1.0 - self.erroneous / self.e_sample)


# Roster role of a survey record, the survey file's `roster` column.
ROSTER_ROLES = ("non_mover", "in_mover", "out_mover", "birth", "death")
ROLE_NON_MOVER, ROLE_IN_MOVER, ROLE_OUT_MOVER, ROLE_BIRTH, ROLE_DEATH = range(len(ROSTER_ROLES))

# The file a coded record lives in.
SIDE_SURVEY, SIDE_CENSUS = 0, 1

# Where a simulated coded record comes from, indexing its id prefix: a
# survey roster record, a proxy report made at the census-time household,
# or a census, duplicate or fabricated census record.
ID_PREFIXES = ("p", "o", "c", "d", "f")
SOURCE_ROSTER, SOURCE_REPORT, SOURCE_CENSUS, SOURCE_DUPLICATE, SOURCE_FABRICATED = range(5)

# The side each code belongs on; 10 and 41 may sit on either.
CODE_SIDE = {
    CODE_20: SIDE_SURVEY, CODE_30: SIDE_CENSUS, CODE_51: SIDE_CENSUS,
    **dict.fromkeys(range(CODE_42_1, CODE_42_4 + 1), SIDE_SURVEY),
    **dict.fromkeys(range(CODE_52_1, CODE_52_4 + 1), SIDE_CENSUS),
}

# Census-side codes that are written as survey reports: the out-mover or
# death report about a census-time household member.
REPORT_CODES = (CODE_42_1, CODE_42_2, CODE_42_4, CODE_41)


def among(values: np.ndarray, codes: tuple[int, ...]) -> np.ndarray:
    """`np.isin(values, codes)` for a few codes, as one comparison each."""
    found = values == codes[0]
    for code in codes[1:]:
        found |= values == code
    return found


# Bincount slot of each code that the tallies distinguish.
_CODE_SLOT = np.zeros(max(CODE_LABELS) + 1, dtype=np.int64)
_CODE_SLOT[list(CODE_LABELS)] = np.arange(len(CODE_LABELS))


@dataclass(frozen=True)
class RecordTable:
    """What `tally_records` reduces of one matched world: its census side
    and its coded records, as columns.

    `census_count` counts the in-scope census records by kind (a row per
    `CENSUS_KINDS` entry) and cell (a column each), the finest group key at
    hand.  `census_kind`, `census_cell` and `census_weight` are the
    weighted rows: in-scope census records in census file order, those of
    sampled households at least (a record outside the sample weighs 0), or
    under unit weights on a full frame one row per kind and cell, weighted
    by its count.

    Coded records carry one final code each, on a survey record or on the
    census record it resolves (`side`), and a roster `role`; `cell` is the
    cell of the record where it was collected and `weight` its
    `record_weights` weight.  Simulation (`record_table`) and ingest fill
    every column by the same rules, so the two tally alike.
    """

    census_count: np.ndarray
    census_kind: np.ndarray
    census_cell: np.ndarray
    census_weight: np.ndarray
    side: np.ndarray
    code: np.ndarray
    role: np.ndarray
    cell: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class RecordListing:
    """The coded records of a simulated world as the writer lists them, in
    the rows of its `record_table`: `side`, `code` and `role` as there,
    `household` where the record was collected, `number` the number in its
    record id and `source` the index of its id prefix in `ID_PREFIXES`."""

    side: np.ndarray
    code: np.ndarray
    role: np.ndarray
    household: np.ndarray
    number: np.ndarray
    source: np.ndarray


# Household grid cell by census listing status, survey listing status and
# whether anyone lived in the household at census time.
_GRID = np.full((len(CENSUS_STATUSES), len(PES_STATUSES), 2), CELL_DARK, dtype=np.int8)
_GRID[CEN_WITH_Q, [PES_WITH_Q, PES_ABSENT, PES_NOT_LISTED, PES_VACANT, PES_VACANT_MISSED]] = (
    np.array([CELL_PAIR, CELL_PRESUME, CELL_CEN_NL, CELL_CEN_VAC, CELL_CEN_VACM])[:, None])
_GRID[[CEN_WITHOUT_Q, CEN_NOT_LISTED], PES_WITH_Q] = (CELL_PES_ONLY, CELL_BARE42)
_GRID[CEN_WITHOUT_Q, PES_ABSENT] = CELL_HASH
_GRID[CEN_WITHOUT_Q, PES_NOT_LISTED] = CELL_SECT
_GRID[CEN_NOT_LISTED, PES_ABSENT, 1] = CELL_PILCROW
_GRID = _GRID.reshape(-1)


def _classify_households(
    pop: Population,
    census: CensusSim,
    pes: PesSim,
) -> np.ndarray:
    key = census.hh_status.astype(np.intp)
    key *= len(PES_STATUSES)
    key += pes.hh_status
    key *= 2
    key += pop.occupied_at_census
    cell = _GRID[key]
    cell[pop.households.institutional] = CELL_INSTITUTIONAL
    return cell


def _put(codes: np.ndarray, where: np.ndarray, value) -> None:
    """`codes[where] = value`, through the positions `where` selects: numpy
    assigns through a boolean mask several times more slowly than through
    an index.  `value` is a code, or a function giving the codes of the
    positions."""
    at = np.flatnonzero(where)
    codes[at] = value(at) if callable(value) else value


def match_and_code(
    pop: Population,
    census: CensusSim,
    pes: PesSim,
    error_model: MatchErrorModel | None = None,
    seed: int | np.random.SeedSequence = 0,
    exclusion_mode: ExclusionMode = "sci",
    household_mask: np.ndarray | None = None,
) -> MatchResult:
    """Match the two record systems and assign final codes.

    Whole-person imputations are unmatchable by construction: their person
    behaves as census-missed during matching, which is the counterpart of
    subtracting imputations from the census count before estimation.

    `household_mask` restricts coding to a sampled household set; a
    record is coded only when the household it was collected at is in the
    sample.  Out-mover reports belong to the census-time household, roster
    records to the survey-time one.  The result lists the persons with a
    sampled household of either kind (`MatchResult.person`) and holds the
    codes of those persons alone; every random draw is made for the whole
    population all the same, so a mask changes no code it keeps.
    """
    check_value("exclusion_mode", exclusion_mode, ExclusionMode)
    model = error_model if error_model is not None else MatchErrorModel()
    n = pop.size
    n_hh = pop.households.count
    if household_mask is None:
        hh_in = np.ones(n_hh, dtype=bool)
    else:
        hh_in = np.asarray(household_mask, dtype=bool)
        if hh_in.shape != (n_hh,):
            raise DomainError("household_mask must cover every household")
    adjusted = exclusion_mode == "adjusted"

    cell = _classify_households(pop, census, pes)
    rng = np.random.default_rng(seed)

    # Every rule below codes a person only through a sampled census-time
    # (o_in) or survey-time (d_in) household, so the rules run over those
    # persons alone, `keep`.  When they are every person, as on a full
    # frame, the person arrays are read whole instead of copied; no rule
    # writes to them.  Without a mask every household is sampled, so o_in
    # and d_in are whether a person has a household at all.
    origin = pop.census_household
    dest = pop.pes_household
    has_origin = origin >= 0
    has_dest = dest >= 0
    if household_mask is None:
        o_in, d_in = has_origin, has_dest
    else:
        o_in = gather(hh_in, origin) & has_origin
        d_in = gather(hh_in, dest) & has_dest
    keep = np.flatnonzero(o_in | d_in)
    n_kept = keep.shape[0]
    kept = slice(None) if n_kept == n else keep
    o_in, d_in = o_in[kept], d_in[kept]
    origin, dest, has_origin, has_dest = origin[kept], dest[kept], has_origin[kept], has_dest[kept]
    scope = pop.scope[kept]
    born = scope == SCOPE_BORN
    mover = pop.is_mover[kept]
    out_role = (mover | (scope == SCOPE_DIED)) & has_origin
    m_captured = census.captured[kept] & ~census.imputed[kept]
    listed = pes.listed[kept]
    proxy_ok = pes.proxy_ok[kept]
    duplicated = census.duplicated[kept]

    def draw(rate: float) -> np.ndarray:
        """One uniform per person, kept for the persons coded: a mask
        changes no draw."""
        return uniform_below(rng, n, rate)[kept] if rate else np.zeros(n_kept, dtype=bool)

    fnm = draw(model.false_nonmatch)
    fm = draw(model.false_match)
    flip40 = draw(model.resolution_flip)
    flip50 = draw(model.resolution_flip)
    hh_fnm = (
        uniform_below(rng, n_hh, model.household_false_nonmatch)
        if model.household_false_nonmatch
        else None
    )
    dup_flip = draw(model.resolution_flip)

    # A person without a household on one side reads the dark cell there,
    # the entry after every household's.
    cell_or_dark = np.append(cell, np.int8(CELL_DARK))
    ocell = gather(cell_or_dark, origin)
    dcell = gather(cell_or_dark, dest)
    o_status = gather(pes.hh_status, origin)
    in_role = (mover | born) & has_dest
    non_mover = (scope == SCOPE_IN) & ~mover

    # Codes are written through `_put`, except the matched pairs, the first
    # codes written, which are products into the zeros.
    pes_code = np.zeros(n_kept, dtype=np.int16)
    cen_code = np.zeros(n_kept, dtype=np.int16)
    orphan_code = np.zeros(n_kept, dtype=np.int16)

    def flipped(flip: np.ndarray, if_flipped: int, code: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda at: np.where(flip[at], if_flipped, code)

    # --- non-movers: one household, both sides ---
    nm = non_mover & o_in
    pair = nm & (ocell == CELL_PAIR)

    would_match = pair & m_captured & listed
    if hh_fnm is not None:
        hh_split = would_match & gather(hh_fnm, origin)
        would_match &= ~hh_split
    person_split = would_match & fnm
    matched = would_match & ~person_split
    np.multiply(matched, CODE_10, out=pes_code, dtype=np.int16)
    np.multiply(matched, CODE_PAIRED, out=cen_code, dtype=np.int16)
    if hh_fnm is not None:
        _put(pes_code, hh_split, CODE_42_2)
        _put(cen_code, hh_split, CODE_52_2)
    _put(pes_code, person_split, flipped(flip40, CODE_41, CODE_42_4))
    _put(cen_code, person_split, flipped(flip50, CODE_51, CODE_52_4))

    survey_missed = pair & m_captured & ~listed
    _put(cen_code, survey_missed, flipped(flip50, CODE_51, CODE_52_4))

    census_missed = pair & ~m_captured & listed
    _put(pes_code, census_missed & fm, CODE_10)
    _put(pes_code, census_missed & ~fm, flipped(flip40, CODE_41, CODE_42_4))

    _put(cen_code, nm & (ocell == CELL_CEN_NL) & m_captured, CODE_52_1)

    bare = nm & (ocell == CELL_BARE42) & listed
    _put(pes_code, bare, lambda at: np.where(
        census.hh_status[origin[at]] == CEN_WITHOUT_Q, CODE_42_2, CODE_42_1
    ))

    # --- presumption: survey-absent households with census records keep
    # every record as a match, the carry-forward of the field rule ---
    _put(cen_code, (ocell == CELL_PRESUME) & o_in & m_captured, CODE_10)

    # --- out-roles: movers-out and deaths, resolved at the origin ---
    avail = out_role & o_in & (ocell != CELL_INSTITUTIONAL) & (ocell != CELL_PRESUME)
    reported = (
        avail & listed & proxy_ok
        & ((o_status == PES_WITH_Q) | (o_status == PES_VACANT))
    )
    _put(cen_code, reported & m_captured & ~fnm, CODE_30)
    link_fail = reported & m_captured & fnm
    _put(orphan_code, link_fail, flipped(flip40, CODE_41, CODE_42_4))
    _put(cen_code, link_fail, flipped(flip50, CODE_51, CODE_52_4))
    _put(cen_code, reported & ~m_captured, flipped(flip40, CODE_41, CODE_42_4))

    unreported = avail & ~reported & m_captured
    _put(cen_code, unreported & (o_status == PES_WITH_Q), flipped(flip50, CODE_51, CODE_52_4))
    _put(cen_code, unreported & (o_status == PES_VACANT), CODE_52_2)
    _put(cen_code,
         unreported & ((o_status == PES_NOT_LISTED) | (o_status == PES_VACANT_MISSED)),
         CODE_52_1)

    # --- survey roster: in-movers and births at the destination ---
    _put(pes_code, in_role & d_in & listed & among(dcell, INTERVIEWED_CELLS), CODE_20)

    if adjusted:
        # '§': recover every census-time member, none of whom has a record
        # on either side; '¶': late interview of the absent household.
        _put(cen_code, (ocell == CELL_SECT) & o_in & ~born & (cen_code == CODE_NONE), CODE_42_2)
        pilcrow = (dcell == CELL_PILCROW) & d_in
        _put(pes_code, pilcrow & non_mover, CODE_42_1)
        _put(pes_code, pilcrow & in_role, CODE_20)

    # --- duplicate and fabricated census records ---
    dup_code = np.zeros(n_kept, dtype=np.int16)
    dup = duplicated & o_in & (ocell != CELL_INSTITUTIONAL)
    _put(dup_code, dup & (ocell == CELL_PRESUME), CODE_10)
    _put(dup_code, dup & (ocell != CELL_PRESUME), flipped(dup_flip, CODE_52_4, CODE_51))

    fab_home = pop.census_household[census.fab_person]
    fab_cell = cell[fab_home]
    fab_in = hh_in[fab_home] & (fab_cell != CELL_INSTITUTIONAL)
    fab_code = np.zeros(census.fab_person.shape[0], dtype=np.int16)
    fab_code[fab_in & (fab_cell == CELL_PRESUME)] = CODE_10
    fab_seen = fab_in & (fab_cell != CELL_PRESUME)
    if model.resolution_flip and fab_code.shape[0]:
        fab_flip = uniform_below(rng, fab_code.shape[0], model.resolution_flip)
    else:
        fab_flip = np.zeros(fab_code.shape[0], dtype=bool)
    fab_code[fab_seen] = np.where(fab_flip[fab_seen], CODE_52_4, CODE_51)

    in_mover_matched = (pes_code == CODE_20) & ~born & m_captured & ~fnm

    return MatchResult(
        person=keep,
        pes_code=pes_code,
        cen_code=cen_code,
        orphan_code=orphan_code,
        in_mover_matched=in_mover_matched,
        dup_code=dup_code,
        fab_code=fab_code,
        hh_cell=cell,
        exclusion_mode=exclusion_mode,
        household_mask=hh_in,
    )


def census_records(census: CensusSim, person: np.ndarray, fabrication: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The census records of some persons (ascending) and fabrications, in
    census file order: captured persons, duplicates, then fabrications.
    Returns each record's source person and kind."""
    captured = person[census.captured[person]]
    duplicated = person[census.duplicated[person]]
    kind = np.concatenate([
        np.where(census.imputed[captured], KIND_IMPUTED, KIND_PERSON),
        np.full(duplicated.shape[0], KIND_DUPLICATE),
        np.full(fabrication.shape[0], KIND_FABRICATED),
    ])
    return np.concatenate([captured, duplicated, census.fab_person[fabrication]]), kind


def household_weights(household_weight: np.ndarray | None, n_households: int) -> np.ndarray:
    """The weight of each of `n_households` households as float64: 1.0
    each without `household_weight`.  A DomainError refuses weights that
    miss a household or are not finite and non-negative."""
    if household_weight is None:
        return np.ones(n_households, dtype=np.float64)
    weight = np.asarray(household_weight, dtype=np.float64)
    if weight.shape != (n_households,):
        raise DomainError("household_weight must cover every household")
    if np.any(weight < 0) or not np.all(np.isfinite(weight)):
        raise DomainError("household weights must be finite and non-negative")
    return weight


def record_weights(side: np.ndarray, role: np.ndarray, household: np.ndarray,
                   weight: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """The weight of each coded record collected at `household`: survey
    records found at the interview take their household's
    noninterview-adjusted weight (`weight` times `factor`); out-mover and
    death reports, and codes on census records, the plain weight."""
    found = (side == SIDE_SURVEY) & (role != ROLE_OUT_MOVER) & (role != ROLE_DEATH)
    return weight[household] * np.where(found, factor[household], 1.0)


# Roster role of a survey record: a roster record names who was found at
# the survey-time household (an in-mover, or else a birth), a report who
# left the census-time household (an out-mover, or else a death).  Each
# source's role of a mover, and its scope and the role of that scope; a
# mover is in scope at both times, so the two never meet.  Codes on census
# records carry no role.
_MOVED_ROLE = {SOURCE_ROSTER: ROLE_IN_MOVER, SOURCE_REPORT: ROLE_OUT_MOVER}
_SCOPE_ROLE = {SOURCE_ROSTER: (SCOPE_BORN, ROLE_BIRTH), SOURCE_REPORT: (SCOPE_DIED, ROLE_DEATH)}


def _segments(result: MatchResult) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """The coded records of a matched world by segment, in the order the
    codes file lists them: survey roster records, out-mover reports,
    stranded reports, then census, duplicate and fabricated census records.
    Each segment is its source, the codes its records take theirs from and
    where those codes make a record, nonzero entries (CODE_NONE is 0)."""
    report = among(result.cen_code, REPORT_CODES)
    resolved = result.cen_code > CODE_PAIRED
    resolved &= ~report
    return (
        (SOURCE_ROSTER, result.pes_code, result.pes_code),
        (SOURCE_REPORT, result.cen_code, report),
        (SOURCE_REPORT, result.orphan_code, result.orphan_code),
        (SOURCE_CENSUS, result.cen_code, resolved),
        (SOURCE_DUPLICATE, result.dup_code, result.dup_code),
        (SOURCE_FABRICATED, result.fab_code, result.fab_code),
    )


def _coded_blocks(pop: Population, census: CensusSim, result: MatchResult, segments
                  ) -> Iterator[tuple[slice, int, np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]]:
    """The records of `segments`, those of `popsim.DRAW_BLOCK` slots (or
    fabrications) at a time: each block's rows, source, persons, numbers,
    codes, households and roles.  Slot records are numbered by the persons
    they belong to, fabricated records by their fabrication.  A roster
    record is collected at its person's survey-time household, every other
    record at the census-time one; households come as intp."""
    start = 0
    # When every person is listed, a slot is its person.
    every = result.person.shape[0] == pop.size
    for source, codes, held in segments:
        named = census.fab_person if source == SOURCE_FABRICATED else result.person
        home = pop.pes_household if source == SOURCE_ROSTER else pop.census_household
        for block in blocks(held.shape[0]):
            slot = np.flatnonzero(held[block] != 0)
            if not slot.shape[0]:
                continue
            slot += block.start
            person = slot if every and source != SOURCE_FABRICATED else named[slot]
            if source <= SOURCE_REPORT:
                role = pop.is_mover[person].view(np.int8) * np.int8(_MOVED_ROLE[source])
                scope, scope_role = _SCOPE_ROLE[source]
                role += (pop.scope[person] == scope).view(np.int8) * np.int8(scope_role)
            else:
                role = np.full(slot.shape[0], ROLE_NON_MOVER, dtype=np.int8)
            rows = slice(start, start + slot.shape[0])
            start = rows.stop
            yield (rows, source, person, slot if source == SOURCE_FABRICATED else person,
                   codes[slot], home[person].astype(np.intp), role)


def _record_count(segments) -> int:
    return sum(int(np.count_nonzero(held)) for _, _, held in segments)


def _side(source: int) -> int:
    return SIDE_CENSUS if source >= SOURCE_CENSUS else SIDE_SURVEY


def record_listing(pop: Population, census: CensusSim, result: MatchResult) -> RecordListing:
    """The coded records of a matched world as the writer lists them, built
    a block of a segment at a time (see `record_table` for their order)."""
    segments = _segments(result)
    n = _record_count(segments)
    listing = RecordListing(
        side=np.empty(n, dtype=np.int8), code=np.empty(n, dtype=np.int16),
        role=np.empty(n, dtype=np.int8), household=np.empty(n, dtype=np.intp),
        number=np.empty(n, dtype=np.intp), source=np.empty(n, dtype=np.int8),
    )
    for rows, source, _, number, code, household, role in _coded_blocks(
            pop, census, result, segments):
        listing.side[rows] = _side(source)
        listing.code[rows] = code
        listing.role[rows] = role
        listing.household[rows] = household
        listing.number[rows] = number
        listing.source[rows] = source
    return listing


def record_table(
    pop: Population,
    census: CensusSim,
    result: MatchResult,
    household_weight: np.ndarray | None = None,
) -> RecordTable:
    """What `tally_records` reduces of a matched world, as columns.

    Cells are the joint cells of `popsim.joint_cell`, and the census counts
    the world's `CensusSim.counts`.  Coded records come in the order the
    codes file lists them, the rows of `record_listing`: survey roster
    records, out-mover reports, stranded reports, then census, duplicate and
    fabricated census records.  They are built a block of a segment at a
    time, and each weighs what `record_weights` gives it: the '#'
    reweighting of adjusted mode applies to records found at the survey
    interview.
    """
    n_hh = pop.households.count
    weight = household_weights(household_weight, n_hh)
    if result.exclusion_mode == "adjusted":
        factor = noninterview_factor(
            pop.households.district, pop.households.address_type, weight,
            result.interviewed(), result.household_mask & (result.hh_cell == CELL_HASH),
            pop.districts.count,
        )
    else:
        factor = np.ones(n_hh, dtype=np.float64)

    # A person without a household on one side reads the last household
    # there; no record of theirs is placed on that side.
    origin = pop.census_household
    census_count = census.counts[:len(CENSUS_KINDS)]
    if household_weight is None and result.household_mask.all():
        # Every in-scope record weighs 1.0, and n ones sum to exactly n.
        census_kind, census_cells = np.indices(census_count.shape).reshape(2, -1)
        census_weight = census_count.ravel().astype(np.float64)
    else:
        # In-scope census records of sampled households; their persons are
        # all matching coded.
        sampled = result.household_mask & ~pop.households.institutional
        census_person, census_kind = census_records(
            census, result.person[sampled[origin[result.person]]],
            np.flatnonzero(sampled[origin[census.fab_person]]),
        )
        census_cells = joint_cell(pop, census_person, origin[census_person])
        census_weight = weight[origin[census_person]]

    segments = _segments(result)
    n = _record_count(segments)
    side = np.empty(n, dtype=np.int8)
    code = np.empty(n, dtype=np.int16)
    role = np.empty(n, dtype=np.int8)
    cell = np.empty(n, dtype=np.int32)
    # Unit weights and no reweighting: every record weighs 1.0.
    unit = household_weight is None and result.exclusion_mode == "sci"
    record_weight = np.ones(n, dtype=np.float64) if unit else np.empty(n, dtype=np.float64)
    for rows, source, person, _, codes, household, roles in _coded_blocks(
            pop, census, result, segments):
        side[rows] = _side(source)
        code[rows] = codes
        role[rows] = roles
        cell[rows] = joint_cell(pop, person, household)
        if not unit:
            record_weight[rows] = record_weights(_side(source), roles, household, weight, factor)

    return RecordTable(
        census_count=census_count,
        census_kind=census_kind,
        census_cell=census_cells,
        census_weight=census_weight,
        side=side,
        code=code,
        role=role,
        cell=cell,
        weight=record_weight,
    )


def _fields_of(side: int, code: int, role: int) -> tuple[str, ...]:
    """The tally fields a coded record adds its weight to; codes off their
    side, 41s and in-mover omissions carry no weight in any estimator."""
    if CODE_SIDE.get(code, side) != side:
        return ()
    if code == CODE_10:
        return ("f10", "n_non", "m_non")
    if code == CODE_20 and role != ROLE_BIRTH:
        return ("n_in",)
    if code == CODE_30:
        return ("f30", "n_out", "m_out")
    if code == CODE_51:
        return ("erroneous",)
    if CODE_42_1 <= code <= CODE_42_4:
        mover = {ROLE_NON_MOVER: ("n_non",), ROLE_OUT_MOVER: ("n_out",), ROLE_DEATH: ("n_out",)}
        return (f"f42_{code - CODE_42_1 + 1}",) + mover.get(role, ())
    if CODE_52_1 <= code <= CODE_52_4:
        return (f"f52_{code - CODE_52_1 + 1}",)
    return ()


_MOVER_FIELDS = ("n_non", "n_in", "n_out", "m_non", "m_out")
_TALLY_FIELDS = (
    *(field.name for field in dataclasses.fields(FCodeTallies)), *_MOVER_FIELDS, "erroneous"
)
# 0/1 membership of each tally field, for every (side, code, role) slot in
# the order tally_records numbers them.
_SLOT_FIELDS = np.array([
    [name in fields for name in _TALLY_FIELDS]
    for fields in itertools.starmap(_fields_of, itertools.product(
        (SIDE_SURVEY, SIDE_CENSUS), CODE_LABELS, range(len(ROSTER_ROLES))
    ))
], dtype=np.float64)


def tally_records(
    table: RecordTable,
    labels: tuple[str, ...],
    cell_group: np.ndarray,
    m_in: np.ndarray | None = None,
) -> dict[str, MatchTallies]:
    """Every MatchTallies field for every group, from one weighted bincount
    over the coded records, one over the weighted census rows and a sum of
    the census cells.  `cell_group` indexes `labels` for each cell.  `m_in`
    is each group's weight of in-movers a nationwide search would match,
    which only a simulated world knows; without it `m_in` is unset.
    """
    n_groups = len(labels)
    # Gathers with an intp index are fastest; numpy casts a narrower index
    # entry by entry.  A single group is every cell's, group 0.
    slot = _CODE_SLOT[table.code.astype(np.intp)]
    slot += table.side * len(CODE_LABELS)
    slot *= len(ROSTER_ROLES)
    slot += table.role
    if n_groups > 1:
        slot *= n_groups
        slot += cell_group[table.cell.astype(np.intp)]
    sums = np.bincount(
        slot, weights=table.weight, minlength=len(_SLOT_FIELDS) * n_groups,
    ).reshape(len(_SLOT_FIELDS), n_groups)
    # Every field sums the same slots in the same order, so a field whose
    # slots contain another's never comes out smaller.  `n_in`'s in-mover
    # slot adds a superset of `m_in`'s records in the same order, and
    # rounding is monotone, so n_in >= m_in holds as well.
    values = dict(zip(_TALLY_FIELDS, (_SLOT_FIELDS.T[:, :, None] * sums).sum(axis=1)))

    # Integer counts sum exactly in any order.  Each weighted bin adds its
    # rows in census file order, as a bincount over every census record with
    # weight 0 outside the sample would: adding 0.0 changes no sum.
    counts = table.census_count @ (cell_group[:, None] == np.arange(n_groups))
    kinds = len(CENSUS_KINDS)
    weighted = np.bincount(
        table.census_kind * n_groups + cell_group[table.census_cell.astype(np.intp)],
        weights=table.census_weight, minlength=kinds * n_groups,
    ).reshape(kinds, n_groups)
    e_sample = np.delete(weighted, KIND_IMPUTED, axis=0).sum(axis=0)

    out: dict[str, MatchTallies] = {}
    for g, label in enumerate(labels):
        value = {name: float(column[g]) for name, column in values.items()}
        out[label] = MatchTallies(
            fcode=FCodeTallies(
                **{field.name: value[field.name] for field in dataclasses.fields(FCodeTallies)}
            ),
            movers=MoverTallies(
                **{name: value[name] for name in _MOVER_FIELDS},
                m_in=None if m_in is None else float(m_in[g]),
            ),
            census_count=float(counts[:, g].sum()),
            imputations=float(counts[KIND_IMPUTED, g]),
            e_sample=float(e_sample[g]),
            erroneous=value["erroneous"],
        )
    return out


def tally_groups(
    pop: Population,
    census: CensusSim,
    result: MatchResult,
    level: str = "national",
    household_weight: np.ndarray | None = None,
    with_in_mover_matching: bool = False,
    *,
    table: RecordTable | None = None,
) -> dict[str, MatchTallies]:
    """Weighted code tallies per estimation group.

    Coded records weigh what `record_weights` gives them: survey records
    found at the interview the weight of their household after the '#'
    reweighting in adjusted mode, every other record its household's plain
    weight.  With `with_in_mover_matching`, `m_in` sums the roster records
    of in-movers that a nationwide search would match, which only a
    simulated world knows.  The census count and imputation count are
    whole-universe constants, never masked or weighted: they come from
    census processing, not from the survey sample, and are sums of the
    world's `CensusSim.counts`.

    `table` is this world's `record_table`, built once to tally several
    levels; it already holds the weights, so it excludes
    `household_weight`.
    """
    if table is None:
        table = record_table(pop, census, result, household_weight)
    elif household_weight is not None:
        raise DomainError("pass household_weight to record_table, not beside a prebuilt table")
    labels, cell_group = groups(pop, level)
    m_in = None
    if with_in_mover_matching:
        # Roster records are the table's first rows, in person order.
        matched = np.flatnonzero(result.in_mover_matched[result.pes_code != CODE_NONE])
        m_in = np.bincount(cell_group[table.cell[matched]], weights=table.weight[matched],
                           minlength=len(labels))
    return tally_records(table, labels, cell_group, m_in)
