"""Dual-system 2x2 capture table and the classic estimators built on it.

A census (first capture) and a post-enumeration survey (second capture)
cross-classify each person into a 2x2 table.  Three cells are observable:

    x11  counted by both systems
    x10  counted by the census only
    x01  counted by the survey only

The fourth cell, persons missed by both, is not observable.  Under
independent captures the completed table has unit odds ratio, which gives
the usual estimate x00 = x10 * x01 / x11 and the total

    t = x1plus * xplus1 / x11

where x1plus = x11 + x10 and xplus1 = x11 + x01 are the capture margins.

The same model has a likelihood formulation.  For integer cells and capture
probabilities p_census and p_pes, the completed-table likelihood factors
into a multinomial over the three seen cells (which depends only on the
probabilities) and a binomial in the number seen (which carries all the
information about the total).  Both parts are exposed so the factorization
can be verified numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import TIE_TOL_SEARCH
from .errors import DegenerateInputs, DomainError, InvalidMargins

__all__ = [
    "DsTable",
    "CoverageSummary",
    "LikelihoodParts",
    "MleResult",
    "estimate_x00",
    "ds_estimate_margins",
    "ds_estimate_cells",
    "log_likelihood",
    "mle_by_search",
]


def _require_finite_nonneg(pairs: list[tuple[str, float]]) -> None:
    for name, value in pairs:
        if not math.isfinite(value) or value < 0:
            raise DomainError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class DsTable:
    """Observable cells of a dual-system table.

    Cells may carry survey weights, so they are real-valued.  The
    likelihood operations additionally require integer cells because they
    model persons, not weighted mass.
    """

    x11: float
    x10: float
    x01: float

    def __post_init__(self) -> None:
        _require_finite_nonneg([("x11", self.x11), ("x10", self.x10), ("x01", self.x01)])

    def x1plus(self) -> float:
        """Census margin x11 + x10."""
        return self.x11 + self.x10

    def xplus1(self) -> float:
        """Survey margin x11 + x01."""
        return self.x11 + self.x01

    def x_seen(self) -> float:
        """Persons seen by at least one system."""
        return self.x11 + self.x10 + self.x01


@dataclass(frozen=True)
class CoverageSummary:
    """Net coverage error of a census count against an estimated total."""

    estimated_total: float
    census_count: float
    net_undercount: float
    percent_undercount: float

    @property
    def is_net_overcount(self) -> bool:
        return self.net_undercount < 0


@dataclass(frozen=True)
class LikelihoodParts:
    """Log likelihood of a completed table, with its two factors.

    `total` is the joint log likelihood, `conditional` the multinomial part
    for the seen cells given the number seen, and `binomial` the part for
    the number seen out of the total.  Mathematically
    total = conditional + binomial; numerically the identity holds to
    within ABS_TOL_LOGLIK.
    """

    total: float
    conditional: float
    binomial: float


@dataclass(frozen=True)
class MleResult:
    t: int
    p_census: float
    p_pes: float


def estimate_x00(table: DsTable) -> float:
    """Estimate the both-missed cell under capture independence.

    Independence forces the completed table's odds ratio to one, so
    x00 = x10 * x01 / x11.  The estimate is exactly zero when either
    single-system cell is empty.

    Raises DegenerateInputs when x11 = 0 while both off cells are positive,
    because no finite completion has unit odds ratio there.
    """
    if table.x11 == 0:
        if table.x10 * table.x01 == 0:
            return 0.0
        raise DegenerateInputs(
            "x11 = 0 with both single-system cells positive: the both-missed "
            "cell has no finite independence completion"
        )
    return table.x10 * table.x01 / table.x11


def ds_estimate_margins(x1plus: float, xplus1: float, x11: float) -> float:
    """Dual-system total from the capture margins: x1plus * xplus1 / x11."""
    _require_finite_nonneg([("x1plus", x1plus), ("xplus1", xplus1), ("x11", x11)])
    if x11 == 0:
        raise DegenerateInputs("x11 = 0: the dual-system ratio is undefined")
    if x1plus < x11 or xplus1 < x11:
        raise InvalidMargins(
            f"margins must contain the matched cell: x1plus={x1plus}, "
            f"xplus1={xplus1}, x11={x11}"
        )
    # Keep the evaluation order (a * b) / c: the cell form and the empirical
    # estimator reproduce this expression bit for bit in their edge cases.
    return (x1plus * xplus1) / x11


def ds_estimate_cells(table: DsTable) -> float:
    """Dual-system total as the four completed cells summed.

    Equals ds_estimate_margins on the same table up to floating rounding;
    it is never below the number seen, with equality exactly when
    x10 * x01 = 0.
    """
    if table.x11 == 0:
        raise DegenerateInputs("x11 = 0: the dual-system total is undefined")
    return table.x_seen() + estimate_x00(table)


def _require_integer_cells(table: DsTable) -> tuple[int, int, int]:
    cells = []
    for name in ("x11", "x10", "x01"):
        value = getattr(table, name)
        if value != int(value):
            raise DomainError(f"{name} must be integer-valued for likelihood work, got {value!r}")
        cells.append(int(value))
    return cells[0], cells[1], cells[2]


def log_likelihood(t: float, p_census: float, p_pes: float, table: DsTable) -> LikelihoodParts:
    """Log likelihood of the completed table at total `t`.

    Parameters
    ----------
    t : candidate population total, at least the number seen.
    p_census, p_pes : capture probabilities, strictly inside (0, 1).
    table : observed table with integer cells.

    Returns
    -------
    LikelihoodParts with the joint value and the two factors.  The joint
    value is computed directly from the completed-table multinomial, not as
    the sum of the factors, so the factorization identity is a real check.
    """
    if not (0.0 < p_census < 1.0):
        raise DomainError(f"p_census must lie strictly inside (0, 1), got {p_census!r}")
    if not (0.0 < p_pes < 1.0):
        raise DomainError(f"p_pes must lie strictly inside (0, 1), got {p_pes!r}")
    x11, x10, x01 = _require_integer_cells(table)
    x_seen = x11 + x10 + x01
    if not math.isfinite(t) or t < x_seen:
        raise DomainError(f"t must be at least the number seen ({x_seen}), got {t!r}")

    miss_both = (1.0 - p_census) * (1.0 - p_pes)
    log_cell_terms = (
        x11 * math.log(p_census * p_pes)
        + x10 * math.log(p_census * (1.0 - p_pes))
        + x01 * math.log((1.0 - p_census) * p_pes)
    )
    log_cell_factorials = (
        math.lgamma(x11 + 1.0) + math.lgamma(x10 + 1.0) + math.lgamma(x01 + 1.0)
    )

    total = (
        math.lgamma(t + 1.0)
        - math.lgamma(t - x_seen + 1.0)
        - log_cell_factorials
        + log_cell_terms
        + (t - x_seen) * math.log(miss_both)
    )
    conditional = (
        math.lgamma(x_seen + 1.0)
        - log_cell_factorials
        + log_cell_terms
        - x_seen * math.log(1.0 - miss_both)
    )
    binomial = (
        math.lgamma(t + 1.0)
        - math.lgamma(x_seen + 1.0)
        - math.lgamma(t - x_seen + 1.0)
        + x_seen * math.log(1.0 - miss_both)
        + (t - x_seen) * math.log(miss_both)
    )
    return LikelihoodParts(total=total, conditional=conditional, binomial=binomial)


def mle_by_search(table: DsTable, t_max: int) -> MleResult:
    """Maximum-likelihood total and capture probabilities by direct search.

    The probability estimates have closed forms: the fraction of survey
    captures also counted by the census, and vice versa.  The total is
    found by scanning the integer grid [x_seen, t_max] of the count factor
    of the likelihood; the scan uses cumulative log ratios, so no factorial
    overflows occur.  When the continuous optimum is an integer the grid
    holds an exact two-way tie, which resolves to the larger candidate.
    A grid that ends before the likelihood stops rising holds no maximum,
    and raises DomainError rather than returning its last point.
    """
    x11, x10, x01 = _require_integer_cells(table)
    if x11 == 0:
        raise DegenerateInputs("x11 = 0: capture probabilities are not identifiable")
    x_seen = x11 + x10 + x01
    t_max = int(t_max)
    if t_max < x_seen:
        raise DomainError(f"t_max must be at least the number seen ({x_seen}), got {t_max}")

    p_census_hat = x11 / (x11 + x01)
    p_pes_hat = x11 / (x11 + x10)
    miss_both = (1.0 - p_census_hat) * (1.0 - p_pes_hat)
    if miss_both == 0.0:
        # Full capture on at least one side: every unseen person would have
        # probability zero, so the total is the number seen.
        return MleResult(t=x_seen, p_census=p_census_hat, p_pes=p_pes_hat)

    ts = np.arange(x_seen, t_max + 1, dtype=np.int64)
    steps = (
        np.log(ts[1:].astype(np.float64))
        - np.log((ts[1:] - x_seen).astype(np.float64))
        + math.log(miss_both)
    )
    profile = np.concatenate(([0.0], np.cumsum(steps)))
    beyond = math.log(t_max + 1) - math.log(t_max + 1 - x_seen) + math.log(miss_both)
    if profile[-1] + beyond >= profile.max() - TIE_TOL_SEARCH:
        raise DomainError(f"the likelihood still rises at t_max={t_max}; the MLE lies beyond it")
    near_best = np.nonzero(profile >= profile.max() - TIE_TOL_SEARCH)[0]
    t_mle = int(ts[near_best[-1]])
    return MleResult(t=t_mle, p_census=p_census_hat, p_pes=p_pes_hat)
