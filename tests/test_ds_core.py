"""Dual-system table arithmetic: closed forms, likelihood, and the grid MLE."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covlab.constants import ABS_TOL_LOGLIK, REL_TOL_IDENTITY
from covlab.ds_core import (
    DsTable,
    ds_estimate_cells,
    ds_estimate_margins,
    estimate_x00,
    log_likelihood,
    mle_by_search,
)
from covlab.errors import DegenerateInputs, DomainError, InvalidMargins

cells = st.integers(min_value=0, max_value=100)
matched = st.integers(min_value=1, max_value=100)
probs = st.floats(min_value=0.05, max_value=0.95)


def test_x00_known_tables():
    assert estimate_x00(DsTable(72, 18, 8)) == 2.0
    assert estimate_x00(DsTable(800, 100, 100)) == 12.5
    assert estimate_x00(DsTable(5, 0, 7)) == 0.0


def test_x00_empty_matched_cell():
    # A zero matched cell is fine only while an off cell is empty too.
    assert estimate_x00(DsTable(0, 0, 9)) == 0.0
    assert estimate_x00(DsTable(0, 4, 0)) == 0.0
    with pytest.raises(DegenerateInputs):
        estimate_x00(DsTable(0, 4, 9))


def test_margin_estimate_known_values():
    assert ds_estimate_margins(90, 80, 72) == 100.0
    assert ds_estimate_margins(900, 900, 800) == 1012.5


def test_margin_estimate_rejects_bad_inputs():
    with pytest.raises(DegenerateInputs):
        ds_estimate_margins(90, 80, 0)
    with pytest.raises(InvalidMargins):
        ds_estimate_margins(50, 80, 72)
    with pytest.raises(InvalidMargins):
        ds_estimate_margins(90, 60, 72)
    with pytest.raises(DomainError):
        ds_estimate_margins(-1, 80, 72)
    with pytest.raises(DomainError):
        ds_estimate_margins(math.nan, 80, 72)


def test_cell_estimate_matches_margins_exactly_on_round_table():
    table = DsTable(72, 18, 8)
    assert ds_estimate_cells(table) == 100.0
    assert ds_estimate_cells(table) == ds_estimate_margins(90, 80, 72)


def test_cell_estimate_never_below_seen():
    table = DsTable(10, 0, 25)
    assert ds_estimate_cells(table) == table.x_seen()


@given(x11=matched, x10=cells, x01=cells)
def test_cells_and_margins_agree(x11, x10, x01):
    """The two computational forms of the same estimator."""
    table = DsTable(x11, x10, x01)
    via_cells = ds_estimate_cells(table)
    via_margins = ds_estimate_margins(table.x1plus(), table.xplus1(), x11)
    assert math.isclose(via_cells, via_margins, rel_tol=REL_TOL_IDENTITY)


@given(x11=matched, x10=cells, x01=cells, k=st.integers(min_value=1, max_value=1000))
def test_margin_estimate_scale_equivariance(x11, x10, x01, k):
    base = ds_estimate_margins(x11 + x10, x11 + x01, x11)
    scaled = ds_estimate_margins(k * (x11 + x10), k * (x11 + x01), k * x11)
    assert math.isclose(scaled, k * base, rel_tol=REL_TOL_IDENTITY)


@given(x11=matched, x10=st.integers(min_value=1, max_value=100),
       x01=st.integers(min_value=1, max_value=100))
def test_completed_table_has_unit_odds_ratio(x11, x10, x01):
    x00 = estimate_x00(DsTable(x11, x10, x01))
    assert math.isclose(x00 * x11 / (x10 * x01), 1.0, rel_tol=REL_TOL_IDENTITY)


def test_log_likelihood_against_direct_enumeration():
    """Small-table check against factorial arithmetic done from scratch."""
    table = DsTable(2, 1, 1)
    t, pc, pp = 6, 0.7, 0.6
    parts = log_likelihood(t, pc, pp, table)

    coeff = math.factorial(6) // (
        math.factorial(2) * math.factorial(1) * math.factorial(1) * math.factorial(2)
    )
    joint = (
        coeff
        * (pc * pp) ** 2
        * (pc * (1 - pp))
        * ((1 - pc) * pp)
        * ((1 - pc) * (1 - pp)) ** 2
    )
    assert math.isclose(parts.total, math.log(joint), abs_tol=1e-12)

    p_seen = 1.0 - (1 - pc) * (1 - pp)
    binom = math.comb(6, 4) * p_seen**4 * (1 - p_seen) ** 2
    assert math.isclose(parts.binomial, math.log(binom), abs_tol=1e-12)

    cond_coeff = math.factorial(4) // (math.factorial(2) * 1 * 1)
    cond = (
        cond_coeff
        * (pc * pp / p_seen) ** 2
        * (pc * (1 - pp) / p_seen)
        * ((1 - pc) * pp / p_seen)
    )
    assert math.isclose(parts.conditional, math.log(cond), abs_tol=1e-12)


@given(
    x11=matched,
    x10=cells,
    x01=cells,
    extra=st.integers(min_value=0, max_value=500),
    p_census=probs,
    p_pes=probs,
)
def test_likelihood_factorization(x11, x10, x01, extra, p_census, p_pes):
    """total = conditional + binomial, each computed independently."""
    table = DsTable(x11, x10, x01)
    t = table.x_seen() + extra
    parts = log_likelihood(t, p_census, p_pes, table)
    assert math.isclose(
        parts.total, parts.conditional + parts.binomial, abs_tol=ABS_TOL_LOGLIK
    )


def test_log_likelihood_domain_checks():
    table = DsTable(72, 18, 8)
    with pytest.raises(DomainError):
        log_likelihood(97, 0.9, 0.8, table)  # below the number seen
    with pytest.raises(DomainError):
        log_likelihood(100, 0.0, 0.8, table)
    with pytest.raises(DomainError):
        log_likelihood(100, 0.9, 1.0, table)
    with pytest.raises(DomainError):
        log_likelihood(100, 0.9, 0.8, DsTable(72.5, 18, 8))


def test_mle_round_table():
    result = mle_by_search(DsTable(72, 18, 8), t_max=300)
    assert result.t == 100
    assert result.p_census == 0.9
    assert result.p_pes == 0.8


def test_mle_exact_tie_resolves_upward():
    # Continuous optimum 200 sits exactly on the grid, tying with 199.
    result = mle_by_search(DsTable(50, 50, 50), t_max=600)
    assert result.t == 200
    assert result.p_census == 0.5
    assert result.p_pes == 0.5


def test_mle_full_capture_shortcut():
    result = mle_by_search(DsTable(30, 0, 0), t_max=100)
    assert result.t == 30
    assert result.p_census == 1.0
    assert result.p_pes == 1.0


def test_mle_non_integer_optimum_floors():
    # 91 * 80 / 72 = 101.11..., so the grid optimum is 101.
    result = mle_by_search(DsTable(72, 19, 8), t_max=300)
    assert result.t == 101


def test_mle_input_checks():
    with pytest.raises(DegenerateInputs):
        mle_by_search(DsTable(0, 4, 9), t_max=50)
    with pytest.raises(DomainError):
        mle_by_search(DsTable(72, 18, 8), t_max=90)
    with pytest.raises(DomainError):
        mle_by_search(DsTable(72.5, 18, 8), t_max=300)
    with pytest.raises(DomainError):
        mle_by_search(DsTable(1, 64, 76), t_max=5000)  # the MLE is 5005


@settings(max_examples=200)
@given(x11=matched, x10=cells, x01=cells)
def test_mle_matches_closed_form(x11, x10, x01):
    """The grid search lands on the closed-form optimum.

    The continuous optimum is the margin estimate; the grid takes its
    floor, or the value itself at an exact integer tie.
    """
    ratio = Fraction((x11 + x10) * (x11 + x01), x11)
    expected = int(ratio) if ratio.denominator == 1 else math.floor(ratio)
    result = mle_by_search(DsTable(x11, x10, x01), t_max=expected + 25)
    assert result.t == expected
    assert result.p_census == x11 / (x11 + x01)
    assert result.p_pes == x11 / (x11 + x10)


@given(x11=matched, x10=st.integers(min_value=1, max_value=100),
       x01=st.integers(min_value=1, max_value=100))
@example(x11=1, x10=64, x01=76)
def test_mle_is_a_local_maximum(x11, x10, x01):
    table = DsTable(x11, x10, x01)
    # Above every MLE these cells allow, (1 + 100) * (1 + 100) = 10201.
    result = mle_by_search(table, t_max=11_000)
    at = log_likelihood(result.t, result.p_census, result.p_pes, table).total
    up = log_likelihood(result.t + 1, result.p_census, result.p_pes, table).total
    assert at >= up - ABS_TOL_LOGLIK
    if result.t > table.x_seen():
        down = log_likelihood(result.t - 1, result.p_census, result.p_pes, table).total
        assert at >= down - ABS_TOL_LOGLIK


def test_table_rejects_negative_cells():
    with pytest.raises(DomainError):
        DsTable(-1, 2, 3)
    with pytest.raises(DomainError):
        DsTable(1, math.inf, 3)
