"""Field estimators: empirical dual-system, mover procedures, code tallies."""

import dataclasses
import math

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from covlab.constants import REL_TOL_IDENTITY
from covlab.ds_core import DsTable
from covlab.errors import (
    DegenerateInputs,
    DomainError,
    InvalidMargins,
    MissingField,
)
from covlab.estimators import (
    F30Placement,
    FCodeTallies,
    MoverTallies,
    Procedure,
    fcode_estimate,
    fcode_missed_both,
    mover_ratio,
    net_undercount,
    procedure_c_table,
)
from covlab.matching import MatchTallies

weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


def _empirical_ds(census_count, imputations, ee_weight, e_sample_weight,
                  p_sample_weight, match_weight):
    """(c - ii) * (1 - ee / ne) * (np / m), with no movers."""
    tallies = MatchTallies(
        fcode=FCodeTallies(f10=0.0, f30=0.0),
        movers=MoverTallies(n_non=p_sample_weight, n_in=0, n_out=0,
                            m_non=match_weight, m_out=0),
        census_count=census_count,
        imputations=imputations,
        e_sample=e_sample_weight,
        erroneous=ee_weight,
    )
    return tallies.census_correct(), tallies.census_correct() * mover_ratio(tallies.movers, "a")


def test_empirical_ds_round_numbers():
    correct, estimate = _empirical_ds(1050, 50, 100, 1000, 1000, 900)
    assert correct == 900.0
    assert estimate == 1000.0


def test_empirical_ds_clean_census():
    _, estimate = _empirical_ds(1000, 0, 0, 900, 920, 880)
    assert estimate == pytest.approx(1045.4545454545455)


def test_mover_ratio_all_procedures():
    tallies = MoverTallies(n_non=800, n_in=120, n_out=100, m_non=720, m_out=80, m_in=100)
    assert mover_ratio(tallies, Procedure.A) == pytest.approx(900 / 800)
    assert mover_ratio(tallies, "b") == pytest.approx(920 / 820)
    assert mover_ratio(tallies, Procedure.C) == pytest.approx(920 / 816)


def test_mover_ratio_b_needs_inmover_matching():
    tallies = MoverTallies(n_non=800, n_in=120, n_out=100, m_non=720, m_out=80)
    with pytest.raises(MissingField):
        mover_ratio(tallies, Procedure.B)


def test_mover_ratio_degenerate_cases():
    with pytest.raises(DegenerateInputs):
        mover_ratio(MoverTallies(5, 1, 2, 0, 0), Procedure.A)
    with pytest.raises(DegenerateInputs):
        mover_ratio(MoverTallies(5, 1, 0, 3, 0), Procedure.C)


def test_mover_tallies_match_bounds():
    with pytest.raises(DomainError):
        MoverTallies(n_non=10, n_in=0, n_out=5, m_non=11, m_out=0)
    with pytest.raises(DomainError):
        MoverTallies(n_non=10, n_in=0, n_out=5, m_non=9, m_out=6)
    with pytest.raises(DomainError):
        MoverTallies(n_non=10, n_in=4, n_out=5, m_non=9, m_out=5, m_in=5)


@pytest.mark.parametrize("cls, args", [
    (DsTable, (72, 18, 8)),
    (MoverTallies, (10, 4, 5, 9, 5, 4)),
    (FCodeTallies, (10, 2, 1, 1, 1, 1, 1, 1, 1, 1)),
])
def test_every_tally_field_is_a_finite_nonnegative_number(cls, args):
    # m_in is `AtLeast0[float] | None`, a `typing.Union`, not a class.
    for index, item in enumerate(dataclasses.fields(cls)):
        for value in (-1.0, math.nan, math.inf, "1", True):
            with pytest.raises(DomainError, match=rf"^{item.name} must .*, got "):
                cls(*args[:index], value, *args[index + 1:])


def test_mover_imbalance():
    assert MoverTallies(10, 7, 4, 8, 2).mover_imbalance == 3
    assert MoverTallies(10, 4, 7, 8, 2).mover_imbalance == 3


@given(
    n_non=positive,
    n_in=weights,
    n_out=positive,
    match_rate=st.floats(min_value=0.05, max_value=1.0),
    out_rate=st.floats(min_value=0.05, max_value=1.0),
)
def test_mover_ratio_never_below_one(n_non, n_in, n_out, match_rate, out_rate):
    tallies = MoverTallies(
        n_non=n_non,
        n_in=n_in,
        n_out=n_out,
        m_non=n_non * match_rate,
        m_out=n_out * out_rate,
        m_in=n_in * match_rate,
    )
    for procedure in Procedure:
        assert mover_ratio(tallies, procedure) >= 1.0 - 1e-12


def test_net_undercount_positive():
    summary = net_undercount(1000, 960)
    assert summary.net_undercount == 40.0
    assert summary.percent_undercount == pytest.approx(4.0)
    assert not summary.is_net_overcount


def test_net_undercount_negative():
    summary = net_undercount(1012.5, 1020)
    assert summary.net_undercount == -7.5
    assert summary.percent_undercount == pytest.approx(-0.7407407407407407)
    assert summary.is_net_overcount


def test_net_undercount_rejects_nonpositive_total():
    with pytest.raises(DomainError):
        net_undercount(0.0, 10)
    with pytest.raises(DomainError):
        net_undercount(math.nan, 10)


def test_fcode_estimate_no_movers():
    tallies = FCodeTallies(f10=100, f30=0, f42_1=10, f52_1=20)
    assert tallies.seen_total() == 130.0
    assert fcode_missed_both(tallies) == 2.0
    assert fcode_estimate(tallies) == 132.0


def test_fcode_estimate_f30_placements():
    tallies = FCodeTallies(f10=100, f30=50, f42_4=10, f52_4=20)
    assert fcode_estimate(tallies, F30Placement.OMITTED) == 182.0
    assert fcode_estimate(tallies, "numerator") == 187.0
    assert fcode_estimate(tallies, "denominator") == pytest.approx(181.33333333333334)


def test_fcode_subcode_families_sum():
    tallies = FCodeTallies(
        f10=10, f30=1,
        f42_1=1, f42_2=2, f42_3=3, f42_4=4,
        f52_1=5, f52_2=6, f52_3=7, f52_4=8,
    )
    assert tallies.f42_total == 10.0
    assert tallies.f52_total == 26.0
    assert tallies.seen_total() == 47.0


def test_fcode_degenerate_matched_mass():
    empty = FCodeTallies(f10=0, f30=0, f42_1=3, f52_1=4)
    with pytest.raises(DegenerateInputs):
        fcode_missed_both(empty)
    with pytest.raises(DegenerateInputs):
        fcode_missed_both(empty, F30Placement.IN_DENOMINATOR)
    # f30 alone can anchor the denominator placement.
    movers_only = FCodeTallies(f10=0, f30=10, f42_1=3, f52_1=4)
    assert fcode_missed_both(movers_only, "denominator") == pytest.approx(1.2)


comparable = st.floats(min_value=1.0, max_value=1e4, allow_nan=False)


@given(f10=comparable, f30=comparable, f42=comparable, f52=comparable)
def test_fcode_placement_ordering(f10, f30, f42, f52):
    """With movers present the three placements are strictly ordered.

    Scales are kept comparable; a mover mass below the float resolution
    of the matched mass would tie the placements numerically.
    """
    tallies = FCodeTallies(f10=f10, f30=f30, f42_4=f42, f52_4=f52)
    numerator = fcode_estimate(tallies, F30Placement.IN_NUMERATOR)
    omitted = fcode_estimate(tallies, F30Placement.OMITTED)
    denominator = fcode_estimate(tallies, F30Placement.IN_DENOMINATOR)
    assert numerator > omitted > denominator


def test_procedure_c_table_round_numbers():
    movers = MoverTallies(n_non=800, n_out=100, n_in=100, m_non=720, m_out=80)
    assert movers.m_in_indirect() == pytest.approx(80.0)
    result = procedure_c_table(movers, census_correct=900)
    assert result.table.x11 == pytest.approx(800.0)
    assert result.table.x10 == pytest.approx(100.0)
    assert result.table.x01 == pytest.approx(100.0)
    assert result.estimate == pytest.approx(1012.5)
    assert not result.clamped


def test_procedure_c_table_second_oracle():
    movers = MoverTallies(n_non=500, n_out=50, n_in=50, m_non=400, m_out=40)
    result = procedure_c_table(movers, census_correct=540)
    assert result.estimate == pytest.approx(675.0)


def test_procedure_c_negative_cell_raises_unless_clamped():
    movers = MoverTallies(n_non=800, n_out=100, n_in=100, m_non=720, m_out=80)
    with pytest.raises(InvalidMargins):
        procedure_c_table(movers, census_correct=700)
    result = procedure_c_table(movers, census_correct=700, clamp_negative=True)
    assert result.clamped
    assert result.table.x10 == 0.0


def test_procedure_c_no_matches():
    movers = MoverTallies(n_non=10, n_out=5, n_in=5, m_non=0, m_out=0)
    with pytest.raises(DegenerateInputs, match="x11 = 0"):
        procedure_c_table(movers, census_correct=12)
    with pytest.raises(DegenerateInputs, match="n_out = 0"):
        procedure_c_table(MoverTallies(n_non=10, n_out=0, n_in=5, m_non=8, m_out=0), 12)
    for census_correct in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="census_correct"):
            procedure_c_table(movers, census_correct)


@given(
    n_non=positive,
    n_out=positive,
    n_in=weights,
    match_rate=st.floats(min_value=0.2, max_value=0.95),
    out_rate=st.floats(min_value=0.2, max_value=0.95),
    census_extra=st.floats(min_value=0.0, max_value=1e5),
)
# census_correct equals x11 in exact arithmetic; x10 rounds to -2.2e-16.
@example(
    n_non=1.0, n_out=578525.2795503666, n_in=3.0, match_rate=0.5, out_rate=0.453125,
    census_extra=0.0,
)
def test_procedure_c_table_equals_margin_form(
    n_non, n_out, n_in, match_rate, out_rate, census_extra
):
    """The completed-cells form equals census_correct * survey / matched."""
    movers = MoverTallies(
        n_non=n_non, n_out=n_out, n_in=n_in, m_non=n_non * match_rate, m_out=n_out * out_rate
    )
    census_correct = n_non * match_rate + out_rate * n_in + census_extra
    x11 = movers.m_non + movers.m_in_indirect()
    assume(x11 > 1e-9)
    result = procedure_c_table(movers, census_correct)
    margin_form = census_correct * (n_non + n_in) / x11
    assert math.isclose(result.estimate, margin_form, rel_tol=REL_TOL_IDENTITY)
