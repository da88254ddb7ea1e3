"""Coverage-error estimators used in post-enumeration survey practice.

Two families are implemented.

The empirical dual-system estimator scales the correct-enumeration margin
(`matching.MatchTallies.census_correct`: the census count less whole-person
imputations, deflated by the estimated share of erroneous enumerations) by
the inverse match rate of the survey,

    t = (c - ii) * (1 - ee / ne) * (np / m).

Movers make the inverse match rate ambiguous, and the three classical
treatments are provided: procedure A matches where people lived at census
time, procedure B matches where they live at survey time, and procedure C
counts in-movers but borrows the out-mover match rate for them.

The second family works from final match-code tallies of the kind produced
by a household-based survey: code 10 (matched non-movers), code 30
(out-movers and deaths matched by proxy report), the census-omission family
42/1..42/4 and the survey-omission family 52/1..52/4.  The both-missed cell
is estimated from the omission families, and the placement of the code-30
mass is configurable because it changes the estimate in a known direction:
with positive code-30 mass,

    in_numerator  >  omitted  >  in_denominator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .constants import REL_TOL_IDENTITY
from .ds_core import CoverageSummary, DsTable, _require_finite_nonneg, ds_estimate_cells
from .errors import DegenerateInputs, DomainError, InvalidMargins, MissingField

__all__ = [
    "Procedure",
    "F30Placement",
    "MoverTallies",
    "FCodeTallies",
    "ProcedureCResult",
    "mover_ratio",
    "net_undercount",
    "fcode_missed_both",
    "fcode_estimate",
    "procedure_c_table",
]


class Procedure(str, Enum):
    """Mover treatment for the inverse match rate."""

    A = "a"
    B = "b"
    C = "c"


class F30Placement(str, Enum):
    """Where the matched out-mover mass sits when estimating the
    both-missed cell from match-code tallies.

    `omitted` excludes it entirely (the default), `numerator` counts it
    among survey-side omissions, and `denominator` counts it as matched
    mass.
    """

    OMITTED = "omitted"
    IN_NUMERATOR = "numerator"
    IN_DENOMINATOR = "denominator"


@dataclass(frozen=True)
class MoverTallies:
    """Weighted survey totals and matches, split by mover status.

    n_non / n_out / n_in are survey totals of non-movers, out-movers
    (deaths included) and in-movers (births excluded).  m_non and m_out are
    the matched parts of the first two.  m_in is only available when
    in-mover matching was actually performed, so it is optional.
    """

    n_non: float
    n_in: float
    n_out: float
    m_non: float
    m_out: float
    m_in: float | None = None

    def __post_init__(self) -> None:
        _require_finite_nonneg(
            [
                ("n_non", self.n_non),
                ("n_in", self.n_in),
                ("n_out", self.n_out),
                ("m_non", self.m_non),
                ("m_out", self.m_out),
            ]
        )
        if self.m_non > self.n_non:
            raise DomainError(f"m_non={self.m_non} exceeds n_non={self.n_non}")
        if self.m_out > self.n_out:
            raise DomainError(f"m_out={self.m_out} exceeds n_out={self.n_out}")
        if self.m_in is not None:
            _require_finite_nonneg([("m_in", self.m_in)])
            if self.m_in > self.n_in:
                raise DomainError(f"m_in={self.m_in} exceeds n_in={self.n_in}")

    @property
    def mover_imbalance(self) -> float:
        """Absolute in-mover versus out-mover imbalance, a diagnostic for
        how far procedure C's borrowed match rate is being stretched."""
        return abs(self.n_in - self.n_out)

    def m_in_indirect(self) -> float:
        """Imputed matched in-movers: the in-movers n_in, matched at the
        out-mover match rate m_out / n_out."""
        if self.n_out == 0:
            raise DegenerateInputs("procedure C: n_out = 0, the out-mover match rate is undefined")
        return (self.m_out / self.n_out) * self.n_in


@dataclass(frozen=True)
class FCodeTallies:
    """Weighted totals of final match codes for one estimation group."""

    f10: float
    f30: float
    f42_1: float = 0.0
    f42_2: float = 0.0
    f42_3: float = 0.0
    f42_4: float = 0.0
    f52_1: float = 0.0
    f52_2: float = 0.0
    f52_3: float = 0.0
    f52_4: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_nonneg(
            [(field.name, getattr(self, field.name)) for field in dataclasses.fields(self)]
        )

    @property
    def f42_total(self) -> float:
        return self.f42_1 + self.f42_2 + self.f42_3 + self.f42_4

    @property
    def f52_total(self) -> float:
        return self.f52_1 + self.f52_2 + self.f52_3 + self.f52_4

    def seen_total(self) -> float:
        """Weighted mass observed by at least one system and kept for
        estimation (codes 20, 41 and 51 never enter)."""
        return self.f10 + self.f30 + self.f42_total + self.f52_total


@dataclass(frozen=True)
class ProcedureCResult:
    table: DsTable
    estimate: float
    clamped: bool


def mover_ratio(tallies: MoverTallies, procedure: Procedure | str) -> float:
    """Inverse match rate np / m under the requested mover treatment.

    procedure A:  (n_non + n_out) / (m_non + m_out)
    procedure B:  (n_non + n_in) / (m_non + m_in)       [needs m_in]
    procedure C:  (n_non + n_in) / (m_non + m_in_indirect)

    Always at least 1, since matches never exceed totals.
    """
    procedure = Procedure(procedure)
    if procedure is Procedure.A:
        denom = tallies.m_non + tallies.m_out
        if denom == 0:
            raise DegenerateInputs("procedure A: no matched non-movers or out-movers")
        return (tallies.n_non + tallies.n_out) / denom
    if procedure is Procedure.B:
        if tallies.m_in is None:
            raise MissingField("procedure B needs m_in, which was not measured")
        denom = tallies.m_non + tallies.m_in
        if denom == 0:
            raise DegenerateInputs("procedure B: no matched non-movers or in-movers")
        return (tallies.n_non + tallies.n_in) / denom
    denom = tallies.m_non + tallies.m_in_indirect()
    if denom == 0:
        raise DegenerateInputs("procedure C: matched weight is zero")
    return (tallies.n_non + tallies.n_in) / denom


def net_undercount(estimated_total: float, census_count: float) -> CoverageSummary:
    """Net undercount u = t - c and its percentage 100 * u / t."""
    if not math.isfinite(estimated_total) or estimated_total <= 0:
        raise DomainError(f"estimated total must be positive, got {estimated_total!r}")
    if not math.isfinite(census_count) or census_count < 0:
        raise DomainError(f"census count must be non-negative, got {census_count!r}")
    undercount = estimated_total - census_count
    return CoverageSummary(
        estimated_total=estimated_total,
        census_count=census_count,
        net_undercount=undercount,
        percent_undercount=100.0 * undercount / estimated_total,
    )


def fcode_missed_both(
    tallies: FCodeTallies,
    placement: F30Placement | str = F30Placement.OMITTED,
) -> float:
    """Both-missed mass estimated from the omission code families.

    The unit-odds-ratio completion of the code table, with the matched
    out-mover mass f30 placed according to `placement`:

    omitted:      f42 * f52 / f10
    numerator:    f42 * (f30 + f52) / f10
    denominator:  f42 * f52 / (f10 + f30)
    """
    placement = F30Placement(placement)
    f42 = tallies.f42_total
    f52 = tallies.f52_total
    if placement is F30Placement.IN_DENOMINATOR:
        denom = tallies.f10 + tallies.f30
        if denom == 0:
            raise DegenerateInputs("f10 + f30 = 0: no matched mass")
        return f42 * f52 / denom
    if tallies.f10 == 0:
        raise DegenerateInputs("f10 = 0: no matched mass")
    if placement is F30Placement.IN_NUMERATOR:
        return f42 * (tallies.f30 + f52) / tallies.f10
    return f42 * f52 / tallies.f10


def fcode_estimate(
    tallies: FCodeTallies,
    placement: F30Placement | str = F30Placement.OMITTED,
) -> float:
    """Population total from final match-code tallies.

    The observed mass f10 + f30 + f42 + f52 plus the estimated both-missed
    mass.  Only the latter depends on the f30 placement, so with positive
    f30 and positive omission families the three placements are strictly
    ordered: numerator > omitted > denominator.
    """
    return tallies.seen_total() + fcode_missed_both(tallies, placement)


def _difference(total: float, part: float) -> float:
    """total - part, with a negative result within rounding of the terms
    read as zero."""
    cell = total - part
    if cell < 0 and -cell <= REL_TOL_IDENTITY * max(abs(total), abs(part)):
        return 0.0
    return cell


def procedure_c_table(
    movers: MoverTallies,
    census_correct: float,
    clamp_negative: bool = False,
) -> ProcedureCResult:
    """Assemble the dual-system table implied by procedure C.

    `movers` are the survey totals and matches of one group by mover
    status (`m_in` is not read) and `census_correct` is the weighted total
    of correct census enumerations in the same areas, as
    `matching.MatchTallies.census_correct` returns it:

    x11 = m_non + m_in_indirect, the imputed matched in-movers
    x10 = census_correct - x11
    x01 = (n_non + n_in) - x11

    The total from the completed table algebraically equals
    census_correct * (n_non + n_in) / x11, the margin form of the same
    estimator; the two are used as a cross-check elsewhere.

    A cell that comes out negative by no more than REL_TOL_IDENTITY times
    the larger of the two terms it is the difference of is rounding noise
    (x11 and census_correct can agree in exact arithmetic), and is zero.
    Inconsistent field estimates make x10 or x01 negative beyond that.
    That raises InvalidMargins unless `clamp_negative` is set, in which
    case the offending cell is clamped to zero and the result flagged.
    """
    _require_finite_nonneg([("census_correct", census_correct)])
    x11 = movers.m_non + movers.m_in_indirect()
    if x11 == 0:
        raise DegenerateInputs("no matched mass: x11 = 0")
    survey_total = movers.n_non + movers.n_in
    x10 = _difference(census_correct, x11)
    x01 = _difference(survey_total, x11)
    clamped = False
    if x10 < 0 or x01 < 0:
        if not clamp_negative:
            raise InvalidMargins(
                f"matched mass {x11} exceeds census_correct={census_correct} "
                f"or the survey total {survey_total}"
            )
        x10 = max(x10, 0.0)
        x01 = max(x01, 0.0)
        clamped = True
    table = DsTable(x11=x11, x10=x10, x01=x01)
    return ProcedureCResult(table=table, estimate=ds_estimate_cells(table), clamped=clamped)
