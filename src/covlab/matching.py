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
    census NOT_LISTED x survey ABSENT      excluded, marker '¶'

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, check_fields
from .estimators import FCodeTallies, MoverTallies
from .popsim import (
    CEN_NOT_LISTED,
    CEN_WITH_Q,
    CEN_WITHOUT_Q,
    PES_ABSENT,
    PES_NOT_LISTED,
    PES_VACANT,
    PES_VACANT_MISSED,
    PES_WITH_Q,
    SCOPE_BORN,
    SCOPE_DIED,
    SCOPE_IN,
    CensusSim,
    PesSim,
    Population,
    group_labels,
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
    "MatchErrorModel",
    "MatchResult",
    "MatchTallies",
    "RecordTable",
    "match_and_code",
    "record_table",
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

EXCLUSION_MARKERS = {
    CELL_HASH: "temp-absent-no-questionnaire",
    CELL_SECT: "not-listed-no-questionnaire",
    CELL_PILCROW: "temp-absent-unlisted-census",
}


@dataclass(frozen=True)
class MatchErrorModel:
    """Independent per-record matching error rates.

    false_nonmatch breaks true links (pairs and out-mover links alike),
    false_match spuriously resolves unmatched survey records, and
    resolution_flip swaps the omission and erroneous outcomes of
    person-level follow-up.  household_false_nonmatch breaks every
    non-mover pair of an affected household at once.
    """

    false_nonmatch: float = 0.0
    false_match: float = 0.0
    resolution_flip: float = 0.0
    household_false_nonmatch: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("false_nonmatch", "false_match", "resolution_flip", "household_false_nonmatch"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {rate}")


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
    exclusion_mode: str
    household_mask: np.ndarray

    def interviewed(self) -> np.ndarray:
        """Sampled households whose survey roster was collected, the
        interviewed set of the noninterview adjustment."""
        cell = self.hh_cell
        return self.household_mask & (
            (cell == CELL_PAIR) | (cell == CELL_BARE42) | (cell == CELL_PES_ONLY)
        )

    def code_counts(self) -> dict[str, int]:
        """Unweighted tally of every emitted code, labels as keys."""
        counts: dict[str, int] = {}
        for code, label in CODE_LABELS.items():
            total = int(
                (self.pes_code == code).sum()
                + (self.cen_code == code).sum()
                + (self.orphan_code == code).sum()
                + (self.dup_code == code).sum()
                + (self.fab_code == code).sum()
            )
            if total:
                counts[label] = total
        return counts


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


# Kinds of census record, the census file's `kind` column.
CENSUS_KINDS = ("person", "imputed", "duplicate", "fabricated")
KIND_PERSON, KIND_IMPUTED, KIND_DUPLICATE, KIND_FABRICATED = range(len(CENSUS_KINDS))

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

# Bincount slot of each code that the tallies distinguish.
_CODE_SLOT = np.zeros(max(CODE_LABELS) + 1, dtype=np.int64)
_CODE_SLOT[list(CODE_LABELS)] = np.arange(len(CODE_LABELS))


@dataclass(frozen=True)
class RecordTable:
    """One matched world as columns: its census records and its codes.

    Census records (`census_*`) are the rows of the census file.  Coded
    records carry one final code each, on a survey record or on the census
    record it resolves (`side`).  `household` is where a record was
    collected, `stratum` the post-stratum, the finest group key the files
    carry, and `weight` the survey weight.  `census_weight` is a census
    record's household weight inside the survey sample, 0 outside it.

    `matched_in_mover` marks in-movers a nationwide search would match,
    which files do not record.  Tables built from a simulated world also
    name their records for the writer: `census_number` and `number` are
    the numbers in the record ids, and `source` indexes `ID_PREFIXES`.
    """

    census_kind: np.ndarray
    census_in_scope: np.ndarray
    census_household: np.ndarray
    census_stratum: np.ndarray
    census_weight: np.ndarray
    side: np.ndarray
    code: np.ndarray
    role: np.ndarray
    household: np.ndarray
    stratum: np.ndarray
    weight: np.ndarray
    matched_in_mover: np.ndarray
    census_number: np.ndarray | None = None
    number: np.ndarray | None = None
    source: np.ndarray | None = None


def _classify_households(
    pop: Population,
    census: CensusSim,
    pes: PesSim,
) -> np.ndarray:
    n_hh = pop.households.count
    occupied_at_census = pop.occupied_at_census()

    cs = census.hh_status
    ss = pes.hh_status
    cell = np.full(n_hh, CELL_DARK, dtype=np.int8)

    with_q = cs == CEN_WITH_Q
    cell[with_q & (ss == PES_WITH_Q)] = CELL_PAIR
    cell[with_q & (ss == PES_ABSENT)] = CELL_PRESUME
    cell[with_q & (ss == PES_NOT_LISTED)] = CELL_CEN_NL
    cell[with_q & (ss == PES_VACANT)] = CELL_CEN_VAC
    cell[with_q & (ss == PES_VACANT_MISSED)] = CELL_CEN_VACM

    without_q = cs == CEN_WITHOUT_Q
    cell[without_q & (ss == PES_WITH_Q)] = CELL_BARE42
    cell[without_q & (ss == PES_ABSENT)] = CELL_HASH
    cell[without_q & (ss == PES_NOT_LISTED)] = CELL_SECT

    unlisted = cs == CEN_NOT_LISTED
    found = unlisted & (ss == PES_WITH_Q)
    cell[found & occupied_at_census] = CELL_BARE42
    cell[found & ~occupied_at_census] = CELL_PES_ONLY
    cell[unlisted & (ss == PES_ABSENT) & occupied_at_census] = CELL_PILCROW

    cell[pop.households.institutional] = CELL_INSTITUTIONAL
    return cell


def match_and_code(
    pop: Population,
    census: CensusSim,
    pes: PesSim,
    error_model: MatchErrorModel | None = None,
    seed: int | np.random.SeedSequence = 0,
    exclusion_mode: str = "sci",
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
    if exclusion_mode not in ("sci", "adjusted"):
        raise ConfigError(f"exclusion_mode must be 'sci' or 'adjusted', got {exclusion_mode!r}")
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
    # persons alone, `keep`.
    origin = pop.census_home()
    dest = pop.survey_home()
    has_origin = pop.census_household >= 0
    has_dest = pop.pes_household >= 0
    o_in = hh_in[origin] & has_origin
    d_in = hh_in[dest] & has_dest
    keep = np.flatnonzero(o_in | d_in)
    o_in, d_in = o_in[keep], d_in[keep]
    origin, dest, has_origin, has_dest = origin[keep], dest[keep], has_origin[keep], has_dest[keep]
    scope = pop.scope[keep]
    born = scope == SCOPE_BORN
    mover = pop.is_mover()[keep]
    out_role = (mover | (scope == SCOPE_DIED)) & has_origin
    m_captured = census.captured[keep] & ~census.imputed[keep]
    listed = pes.listed[keep]
    proxy_ok = pes.proxy_ok[keep]
    duplicated = census.duplicated[keep]
    n_kept = keep.shape[0]

    def draw(rate: float) -> np.ndarray:
        """One uniform per person, kept for the persons coded: a mask
        changes no draw."""
        return rng.random(n)[keep] < rate if rate else np.zeros(n_kept, dtype=bool)

    fnm = draw(model.false_nonmatch)
    fm = draw(model.false_match)
    flip40 = draw(model.resolution_flip)
    flip50 = draw(model.resolution_flip)
    hh_fnm = (
        rng.random(n_hh) < model.household_false_nonmatch
        if model.household_false_nonmatch
        else np.zeros(n_hh, dtype=bool)
    )
    dup_flip = draw(model.resolution_flip)

    ocell = np.where(has_origin, cell[origin], CELL_DARK)
    dcell = np.where(has_dest, cell[dest], CELL_DARK)
    o_status = pes.hh_status[origin]
    in_role = (mover | born) & has_dest
    non_mover = (scope == SCOPE_IN) & ~mover

    pes_code = np.zeros(n_kept, dtype=np.int16)
    cen_code = np.zeros(n_kept, dtype=np.int16)
    orphan_code = np.zeros(n_kept, dtype=np.int16)

    # --- non-movers: one household, both sides ---
    nm = non_mover & o_in
    pair = nm & (ocell == CELL_PAIR)

    would_match = pair & m_captured & listed
    hh_split = would_match & hh_fnm[origin]
    person_split = would_match & ~hh_split & fnm
    matched = would_match & ~hh_split & ~person_split
    pes_code[matched] = CODE_10
    cen_code[matched] = CODE_PAIRED
    pes_code[hh_split] = CODE_42_2
    cen_code[hh_split] = CODE_52_2
    pes_code[person_split] = np.where(flip40[person_split], CODE_41, CODE_42_4)
    cen_code[person_split] = np.where(flip50[person_split], CODE_51, CODE_52_4)

    survey_missed = pair & m_captured & ~listed
    cen_code[survey_missed] = np.where(flip50[survey_missed], CODE_51, CODE_52_4)

    census_missed = pair & ~m_captured & listed
    spurious = census_missed & fm
    pes_code[spurious] = CODE_10
    rest = census_missed & ~fm
    pes_code[rest] = np.where(flip40[rest], CODE_41, CODE_42_4)

    in_not_listed = nm & (ocell == CELL_CEN_NL) & m_captured
    cen_code[in_not_listed] = CODE_52_1

    bare = nm & (ocell == CELL_BARE42) & listed
    pes_code[bare] = np.where(
        census.hh_status[origin[bare]] == CEN_WITHOUT_Q, CODE_42_2, CODE_42_1
    )

    # --- presumption: survey-absent households with census records keep
    # every record as a match, the carry-forward of the field rule ---
    presumed = (ocell == CELL_PRESUME) & o_in & m_captured
    cen_code[presumed] = CODE_10

    # --- out-roles: movers-out and deaths, resolved at the origin ---
    avail = out_role & o_in & (ocell != CELL_INSTITUTIONAL) & (ocell != CELL_PRESUME)
    reported = (
        avail & listed & proxy_ok
        & ((o_status == PES_WITH_Q) | (o_status == PES_VACANT))
    )
    linked = reported & m_captured & ~fnm
    cen_code[linked] = CODE_30
    link_fail = reported & m_captured & fnm
    orphan_code[link_fail] = np.where(flip40[link_fail], CODE_41, CODE_42_4)
    cen_code[link_fail] = np.where(flip50[link_fail], CODE_51, CODE_52_4)
    report_only = reported & ~m_captured
    cen_code[report_only] = np.where(flip40[report_only], CODE_41, CODE_42_4)

    unreported = avail & ~reported & m_captured
    at_home = unreported & (o_status == PES_WITH_Q)
    cen_code[at_home] = np.where(flip50[at_home], CODE_51, CODE_52_4)
    cen_code[unreported & (o_status == PES_VACANT)] = CODE_52_2
    cen_code[
        unreported & ((o_status == PES_NOT_LISTED) | (o_status == PES_VACANT_MISSED))
    ] = CODE_52_1

    # --- survey roster: in-movers and births at the destination ---
    roster_cell = (dcell == CELL_PAIR) | (dcell == CELL_BARE42) | (dcell == CELL_PES_ONLY)
    roster = in_role & d_in & listed & roster_cell
    pes_code[roster] = CODE_20

    if adjusted:
        # '§': recover every census-time member, none of whom has a record
        # on either side; '¶': late interview of the absent household.
        sect = (ocell == CELL_SECT) & o_in & ~born & (cen_code == CODE_NONE)
        cen_code[sect] = CODE_42_2
        pilcrow = (dcell == CELL_PILCROW) & d_in
        pes_code[pilcrow & non_mover] = CODE_42_1
        pes_code[pilcrow & in_role] = CODE_20

    # --- duplicate and fabricated census records ---
    dup_code = np.zeros(n_kept, dtype=np.int16)
    dup = duplicated & o_in & (ocell != CELL_INSTITUTIONAL)
    dup_code[dup & (ocell == CELL_PRESUME)] = CODE_10
    dup_seen = dup & (ocell != CELL_PRESUME)
    dup_code[dup_seen] = np.where(dup_flip[dup_seen], CODE_52_4, CODE_51)

    fab_home = pop.census_home()[census.fab_person]
    fab_cell = cell[fab_home]
    fab_in = hh_in[fab_home] & (fab_cell != CELL_INSTITUTIONAL)
    fab_code = np.zeros(census.fab_person.shape[0], dtype=np.int16)
    fab_code[fab_in & (fab_cell == CELL_PRESUME)] = CODE_10
    fab_seen = fab_in & (fab_cell != CELL_PRESUME)
    if model.resolution_flip and fab_code.shape[0]:
        fab_flip = rng.random(fab_code.shape[0]) < model.resolution_flip
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


def record_table(
    pop: Population,
    census: CensusSim,
    result: MatchResult,
    household_weight: np.ndarray | None = None,
) -> RecordTable:
    """The census records and coded records of a matched world, as columns.

    Coded records come in the order the codes file lists them: survey
    roster records, out-mover reports, stranded reports, then census,
    duplicate and fabricated census records.  Survey roster records carry
    the weight of the household they were collected at (after the '#'
    reweighting in adjusted mode), every other record the weight of its
    census household.
    """
    n_hh = pop.households.count
    if household_weight is None:
        weight = np.ones(n_hh, dtype=np.float64)
    else:
        weight = np.asarray(household_weight, dtype=np.float64)
        if weight.shape != (n_hh,):
            raise DomainError("household_weight must cover every household")
        if np.any(weight < 0) or not np.all(np.isfinite(weight)):
            raise DomainError("household weights must be finite and non-negative")
    if result.exclusion_mode == "adjusted":
        cell = result.hh_cell
        interviewed = result.interviewed()
        survey_weight = weight * noninterview_factor(
            pop.households.district, pop.households.address_type, weight,
            interviewed, result.household_mask & (cell == CELL_HASH), pop.districts.count,
        )
    else:
        survey_weight = weight

    origin = pop.census_home()
    dest = pop.survey_home()
    fab_person = census.fab_person
    n_fab = fab_person.shape[0]

    captured = np.flatnonzero(census.captured)
    duplicated = np.flatnonzero(census.duplicated)
    census_person = np.concatenate([captured, duplicated, fab_person])
    census_kind = np.concatenate([
        np.where(census.imputed[captured], np.int8(KIND_IMPUTED), np.int8(KIND_PERSON)),
        np.full(duplicated.shape[0], KIND_DUPLICATE, dtype=np.int8),
        np.full(n_fab, KIND_FABRICATED, dtype=np.int8),
    ])
    census_household = origin[census_person]

    # Slot records are named by the persons they belong to, fabricated
    # records by their fabrication.
    named = result.person
    report = np.isin(result.cen_code, REPORT_CODES)
    roster = np.flatnonzero(result.pes_code != CODE_NONE)
    reports = np.flatnonzero(report)
    orphans = np.flatnonzero(result.orphan_code != CODE_NONE)
    resolved = np.flatnonzero((result.cen_code > CODE_PAIRED) & ~report)
    dups = np.flatnonzero(result.dup_code != CODE_NONE)
    fabs = np.flatnonzero(result.fab_code != CODE_NONE)
    segments = (
        (SOURCE_ROSTER, named[roster], roster, result.pes_code),
        (SOURCE_REPORT, named[reports], reports, result.cen_code),
        (SOURCE_REPORT, named[orphans], orphans, result.orphan_code),
        (SOURCE_CENSUS, named[resolved], resolved, result.cen_code),
        (SOURCE_DUPLICATE, named[dups], dups, result.dup_code),
        (SOURCE_FABRICATED, fab_person[fabs], fabs, result.fab_code),
    )
    person = np.concatenate([persons for _, persons, _, _ in segments])
    source = np.concatenate(
        [np.full(persons.shape[0], src, dtype=np.int8) for src, persons, _, _ in segments]
    )
    on_roster = source == SOURCE_ROSTER
    household = np.where(on_roster, dest[person], origin[person])

    # Roster records name who was found at the survey-time household,
    # reports who left the census-time household; codes on census records
    # carry no role.
    scope = pop.scope[person]
    moved = pop.is_mover()[person]
    role = np.full(person.shape[0], ROLE_NON_MOVER, dtype=np.int8)
    role[on_roster & moved] = ROLE_IN_MOVER
    role[on_roster & (scope == SCOPE_BORN)] = ROLE_BIRTH
    on_report = source == SOURCE_REPORT
    role[on_report & moved] = ROLE_OUT_MOVER
    role[on_report & (scope == SCOPE_DIED)] = ROLE_DEATH

    # Only roster records, the first segment, can be matched in-movers.
    matched_in_mover = np.zeros(person.shape[0], dtype=bool)
    matched_in_mover[:roster.shape[0]] = result.in_mover_matched[roster]

    return RecordTable(
        census_kind=census_kind,
        census_in_scope=~pop.households.institutional[census_household],
        census_household=census_household,
        census_stratum=pop.post_stratum[census_person],
        census_weight=np.where(result.household_mask, weight, 0.0)[census_household],
        side=np.where(source >= SOURCE_CENSUS, SIDE_CENSUS, SIDE_SURVEY).astype(np.int8),
        code=np.concatenate([codes[index] for _, _, index, codes in segments]),
        role=role,
        household=household,
        stratum=pop.post_stratum[person],
        weight=np.where(on_roster, survey_weight[household], weight[household]),
        matched_in_mover=matched_in_mover,
        census_number=np.concatenate([captured, duplicated, np.arange(n_fab)]),
        number=np.concatenate([*(persons for _, persons, _, _ in segments[:-1]), fabs]),
        source=source,
    )


def _fields_of(side: int, code: int, role: int, matched: bool) -> tuple[str, ...]:
    """The tally fields a coded record adds its weight to; codes off their
    side, 41s and in-mover omissions carry no weight in any estimator."""
    if CODE_SIDE.get(code, side) != side:
        return ()
    if code == CODE_10:
        return ("f10", "n_non", "m_non")
    if code == CODE_20 and role != ROLE_BIRTH:
        return ("n_in", "m_in") if matched else ("n_in",)
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
    *(field.name for field in dataclasses.fields(FCodeTallies)), *_MOVER_FIELDS, "m_in", "erroneous"
)
# 0/1 membership of each tally field, for every (side, code, role, matched)
# slot in the order tally_records numbers them.
_SLOT_FIELDS = np.array([
    [name in fields for name in _TALLY_FIELDS]
    for fields in itertools.starmap(_fields_of, itertools.product(
        (SIDE_SURVEY, SIDE_CENSUS), CODE_LABELS, range(len(ROSTER_ROLES)), (False, True)
    ))
], dtype=np.float64)


def tally_records(
    table: RecordTable,
    labels: tuple[str, ...],
    census_group: np.ndarray,
    group: np.ndarray,
    with_in_mover_matching: bool = False,
) -> dict[str, MatchTallies]:
    """Every MatchTallies field for every group, from one weighted bincount
    over the coded records and two over the census records.

    `census_group` and `group` index `labels` for the census records and
    the coded records.
    """
    n_groups = len(labels)
    slot = (
        (table.side.astype(np.int64) * len(CODE_LABELS) + _CODE_SLOT[table.code])
        * len(ROSTER_ROLES) + table.role
    ) * 2 + table.matched_in_mover
    sums = np.bincount(
        slot * n_groups + group, weights=table.weight, minlength=len(_SLOT_FIELDS) * n_groups
    ).reshape(len(_SLOT_FIELDS), n_groups)
    # Every field sums the same slots in the same order, so a field whose
    # slots contain another's never comes out smaller.
    values = dict(zip(_TALLY_FIELDS, (_SLOT_FIELDS.T[:, :, None] * sums).sum(axis=1)))

    kinds = len(CENSUS_KINDS)
    census_slot = (table.census_in_scope * kinds + table.census_kind) * n_groups + census_group
    size = 2 * kinds * n_groups
    counts = np.bincount(census_slot, minlength=size).reshape(2, kinds, n_groups)[1]
    weighted = np.bincount(census_slot, weights=table.census_weight, minlength=size)
    e_sample = np.delete(weighted.reshape(2, kinds, n_groups)[1], KIND_IMPUTED, axis=0).sum(axis=0)

    out: dict[str, MatchTallies] = {}
    for g, label in enumerate(labels):
        value = {name: float(column[g]) for name, column in values.items()}
        out[label] = MatchTallies(
            fcode=FCodeTallies(
                **{field.name: value[field.name] for field in dataclasses.fields(FCodeTallies)}
            ),
            movers=MoverTallies(
                **{name: value[name] for name in _MOVER_FIELDS},
                m_in=value["m_in"] if with_in_mover_matching else None,
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

    Survey-side rows carry the weight of the household they were collected
    at (after the '#' reweighting in adjusted mode), census-side rows the
    weight of the census household.  The census count and imputation count
    are whole-universe constants, never masked or weighted: they come from
    census processing, not from the survey sample.

    `table` is this world's `record_table`, built once to tally several
    levels; it already holds the weights, so it excludes
    `household_weight`.
    """
    if table is None:
        table = record_table(pop, census, result, household_weight)
    elif household_weight is not None:
        raise DomainError("pass household_weight to record_table, not beside a prebuilt table")
    if level == "province_stratum":
        district = pop.households.district
        districts = pop.districts
        key = districts.province[district].astype(np.int64) * 2 + districts.stratum[district]
        census_group, group = key[table.census_household], key[table.household]
    elif level == "post_stratum":
        census_group, group = table.census_stratum, table.stratum
    else:
        census_group, group = np.zeros_like(table.census_stratum), np.zeros_like(table.stratum)
    labels = group_labels(pop, level)
    return tally_records(table, labels, census_group, group, with_in_mover_matching)
