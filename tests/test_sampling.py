"""Two-stage sample selection, design weights, noninterview adjustment."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covlab import harness
from covlab.errors import ConfigError, DesignError
from covlab.harness import config as harness_config
from covlab.sampling import (
    STRATA,
    DistrictFrame,
    SampleSpec,
    draw_sample,
    noninterview_factor,
    select_households,
    select_psus,
    selection_probability,
    systematic_indices,
)


class _FixedRng:
    """Stand-in generator with scripted draws."""

    def __init__(self, uniform=0.0, integer=0):
        self._uniform = uniform
        self._integer = integer

    def uniform(self, low, high):
        return low + self._uniform * (high - low)

    def integers(self, n):
        return self._integer % n


def _frame(counts, strata=None, provinces=None, labels=("p1",)):
    """Districts of the given sizes, listed one after another, with
    household ids 1000, 1001, ... so that ids differ from positions."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.shape[0]
    return DistrictFrame(
        households=1000 + np.arange(counts.sum()),
        offset=np.cumsum(counts) - counts,
        count=counts,
        province=np.zeros(n, dtype=np.int64) if provinces is None else np.asarray(provinces),
        stratum=np.zeros(n, dtype=np.int8) if strata is None else np.asarray(strata, dtype=np.int8),
        province_labels=labels,
    )


def _whole_province(urban, rural):
    """One province: urban districts of the given sizes, then rural ones."""
    return _frame(list(urban) + list(rural), strata=[0] * len(urban) + [1] * len(rural))


def test_selection_probability_round_numbers():
    assert selection_probability(10, 100, 50, 500) == pytest.approx(0.01)
    assert selection_probability(5, 20, 100, 400) == 0.0625  # dyadic, exact


def test_selection_probability_bounds():
    with pytest.raises(DesignError):
        selection_probability(0, 100, 50, 500)
    with pytest.raises(DesignError):
        selection_probability(101, 100, 50, 500)
    with pytest.raises(DesignError):
        selection_probability(10, 100, 501, 500)


@given(
    total=st.integers(min_value=1, max_value=5000),
    count=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_systematic_indices_are_a_valid_selection(total, count, seed):
    if count > total:
        count = total
    indices = systematic_indices(total, count, np.random.default_rng(seed))
    assert len(indices) == count
    assert indices[0] >= 0 and indices[-1] < total
    gaps = np.diff(indices)
    step = total / count
    assert np.all(gaps >= 1)
    assert np.all((gaps == np.floor(step)) | (gaps == np.ceil(step)))


@pytest.mark.parametrize("start", [0.0, 1 - 2**-53])
def test_systematic_indices_stay_distinct_and_in_range_at_either_end_of_the_start(start):
    # `rng.uniform(0, step)` returns at most step * (1 - 2**-53); there the
    # unclipped floor reached `total` (total = count = 2 gave [0, 2]) or
    # repeated an index.
    bad = []
    for total in range(2, 400):
        for count in range(1, total + 1):
            indices = systematic_indices(total, count, _FixedRng(uniform=start))
            if not (len(indices) == count and indices[0] >= 0 and indices[-1] < total
                    and np.all(np.diff(indices) >= 1)):
                bad.append((total, count, indices.tolist()))
    assert bad[:3] == []


def test_systematic_indices_known_start():
    # step = 2, start at 0.5: floor of 0.5, 2.5, 4.5, ...
    indices = systematic_indices(10, 5, _FixedRng(uniform=0.25))
    assert list(indices) == [0, 2, 4, 6, 8]


def test_systematic_indices_rejects_oversized_count():
    with pytest.raises(DesignError):
        systematic_indices(5, 6, np.random.default_rng(0))


def test_select_psus_progression():
    # Rural districts 4..7 are taken before urban ones 0..3.
    frame = _whole_province([10] * 4, [10] * 4)
    chosen = select_psus(frame, SampleSpec(psus_per_stratum=2), _FixedRng(uniform=0.25))
    assert chosen.tolist() == [4, 6, 0, 2]


def test_select_psus_respects_frame_size():
    frame = _whole_province([10], [10])
    with pytest.raises(DesignError, match="asks for 2 districts"):
        select_psus(frame, SampleSpec(psus_per_stratum=2), np.random.default_rng(0))
    # A pair without districts cannot supply one either.
    with pytest.raises(DesignError, match=r"\('p1', 'rural'\).* holds 0"):
        select_psus(_frame([10, 10]), SampleSpec(), np.random.default_rng(0))


def test_select_psus_keeps_frame_order_within_each_stratum():
    # Urban and rural districts interleave; each stratum keeps its own order.
    frame = _frame([10] * 8, strata=[0, 1] * 4, provinces=[0] * 4 + [1] * 4, labels=("p1", "p2"))
    chosen = select_psus(frame, SampleSpec(psus_per_stratum=2), _FixedRng(uniform=0.0))
    assert chosen.tolist() == [1, 3, 0, 2, 5, 7, 4, 6]


def test_select_psus_takes_provinces_by_label_and_rural_first():
    # Province p takes districts 2p (urban) and 2p + 1 (rural).  The labels
    # sort as text, "p1" < "p10" < "p2", the reverse of their codes, and
    # "rural" < "urban": the pairs come in the order of the sorted
    # (label, stratum name) keys.
    labels = ("p2", "p10", "p1")
    frame = _frame([10] * 6, strata=[0, 1] * 3, provinces=[0, 0, 1, 1, 2, 2], labels=labels)
    chosen = select_psus(frame, SampleSpec(), np.random.default_rng(0))
    keys = [(labels[frame.province[d]], STRATA[frame.stratum[d]]) for d in chosen]
    assert keys == sorted(keys)
    assert chosen.tolist() == [5, 4, 3, 2, 1, 0]


def test_select_households_reverse_wraparound():
    frame = _frame([5, 10])
    take = select_households(frame, 1, 4, _FixedRng(integer=2))
    assert take.tolist() == [1007, 1006, 1005, 1014]


def test_select_households_short_district_taken_whole():
    frame = _frame([3])
    take = select_households(frame, 0, 50, np.random.default_rng(0))
    assert take.tolist() == [1000, 1001, 1002]


def test_draw_sample_is_deterministic():
    frame = _whole_province([200] * 10, [200] * 10)
    spec = SampleSpec(psus_per_stratum=3, urban_take=50)
    first = draw_sample(frame, spec, seed=42)
    again = draw_sample(frame, spec, seed=42)
    for name in ("households", "district", "weight"):
        np.testing.assert_array_equal(getattr(first, name), getattr(again, name))
    other = draw_sample(frame, spec, seed=43)
    assert not np.array_equal(first.households, other.households)


def test_draw_sample_weights_and_counts():
    frame = _whole_province([200] * 10, [400] * 5)
    sample = draw_sample(frame, SampleSpec(psus_per_stratum=2, urban_take=50, rural_take=100),
                         seed=7)
    assert len(sample.households) == 2 * 50 + 2 * 100
    assert len(np.unique(sample.households)) == 300
    # The reciprocals of (2 / 10) * (50 / 200) and (2 / 5) * (100 / 400).
    urban = frame.stratum[sample.district] == 0
    np.testing.assert_allclose(sample.weight[urban], 20.0)
    np.testing.assert_allclose(sample.weight[~urban], 10.0)
    # Every drawn household lies in the district it is reported under.
    start = frame.offset[sample.district]
    assert np.all((sample.households - 1000 >= start)
                  & (sample.households - 1000 < start + frame.count[sample.district]))
    # Per selected district the weighted take recovers the full frame share.
    totals = np.bincount(sample.district, weights=sample.weight)
    np.testing.assert_allclose(totals[np.unique(sample.district)], 1000.0)


def test_draw_sample_mixed_strata_take_sizes():
    frame = _whole_province([80] * 4, [150] * 4)
    sample = draw_sample(frame, SampleSpec(), seed=5)
    stratum = frame.stratum[sample.district]
    assert (stratum == 0).sum() == 50
    assert (stratum == 1).sum() == 100


def test_draw_sample_takes_short_districts_whole():
    frame = _whole_province([30, 30, 30], [60])
    sample = draw_sample(frame, SampleSpec(urban_take=50, rural_take=100), seed=0)
    # The rural district, then one of the urban ones, each listed whole.
    urban, rural = np.unique(sample.district)
    np.testing.assert_array_equal(sample.households, np.concatenate([
        frame.households[frame.offset[d]:frame.offset[d] + frame.count[d]] for d in (rural, urban)
    ]))
    # The household factor is 1, so the weight is tn_d / n_d.
    np.testing.assert_array_equal(sample.weight, [1.0] * 60 + [3.0] * 30)


def test_draw_sample_empty_district_contributes_nothing():
    frame = _whole_province([0], [0])
    sample = draw_sample(frame, SampleSpec(), seed=0)
    assert len(sample.households) == 0
    assert sample.district.shape == (0,)
    assert sample.weight.shape == (0,)


def test_horvitz_thompson_total_is_unbiased_with_empty_districts():
    rng = np.random.default_rng(11)
    counts = rng.integers(20, 120, size=12)
    counts[[1, 4, 5, 9]] = 0
    frame = _whole_province(counts[:6], counts[6:])
    spec = SampleSpec(psus_per_stratum=2, urban_take=30, rural_take=40)
    totals = np.array([
        draw_sample(frame, spec, np.random.SeedSequence(7, spawn_key=(k,))).weight.sum()
        for k in range(2_000)
    ])
    se = totals.std(ddof=1) / np.sqrt(totals.size)
    assert abs(totals.mean() - counts.sum()) <= 3.0 * se


def test_frame_from_households_lists_each_district_in_id_order():
    district = np.array([2, 0, 2, 1, 0, 2], dtype=np.int32)
    frame = DistrictFrame.from_households(
        district, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1], dtype=np.int8), ("p1", "p2")
    )
    assert frame.households.tolist() == [1, 4, 3, 0, 2, 5]
    assert frame.offset.tolist() == [0, 2, 3, 6]
    assert frame.count.tolist() == [2, 1, 3, 0]


def _adjusted(district, address_type, weight, interviewed, missing, n_districts=1):
    """Weights after the noninterview rule: interviewed weight times the
    factor, zero for every other household."""
    weight = np.asarray(weight, dtype=np.float64)
    interviewed = np.asarray(interviewed, dtype=bool)
    factor = noninterview_factor(
        np.asarray(district), np.asarray(address_type), weight, interviewed,
        np.asarray(missing, dtype=bool), n_districts,
    )
    return np.where(interviewed, weight * factor, 0.0)


def test_noninterview_adjustment_conserves_weight():
    # a and c interviewed, b missing, one district x address type cell.
    adjusted = _adjusted([0, 0, 0], [0, 0, 0], [10.0, 10.0, 5.0],
                         [True, False, True], [False, True, False])
    assert adjusted.sum() == pytest.approx(25.0, rel=1e-12)
    assert adjusted[1] == 0.0
    # Interviewed households share the missing weight by base weight.
    assert adjusted[0] == pytest.approx(10.0 * 25 / 15)
    assert adjusted[2] == pytest.approx(5.0 * 25 / 15)


def test_noninterview_adjustment_district_fallback():
    # The multi-unit cell has missing weight and no interview: its district
    # takes it.  District 1's missing household stays within its own cell.
    adjusted = _adjusted([0, 0, 1, 1], [0, 1, 0, 0], [10.0, 4.0, 6.0, 2.0],
                         [True, False, True, False], [False, True, False, True], 2)
    assert adjusted.tolist() == pytest.approx([14.0, 0.0, 8.0, 0.0])


def test_noninterview_adjustment_national_fallback():
    # District 0 has no interview at all; its 14 go to the national total.
    # The household that is neither interviewed nor missing takes no part.
    adjusted = _adjusted([0, 0, 1, 1], [0, 1, 2, 0], [10.0, 4.0, 6.0, 9.0],
                         [False, False, True, False], [True, True, False, False], 2)
    assert adjusted.tolist() == pytest.approx([0.0, 0.0, 20.0, 0.0])
    # With nothing interviewed anywhere, the missing weight is dropped.
    factor = noninterview_factor(np.array([0, 1]), np.array([0, 0]), np.array([3.0, 4.0]),
                                 np.zeros(2, dtype=bool), np.ones(2, dtype=bool), 2)
    assert factor.tolist() == [1.0, 1.0]


@given(
    n=st.integers(min_value=2, max_value=40),
    absent=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_noninterview_adjustment_conservation_property(n, absent, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 30.0, size=n)
    missing = np.zeros(n, dtype=bool)
    missing[rng.choice(n, size=min(absent, n - 1), replace=False)] = True
    # Three districts and three address types, so cells and whole
    # districts can be left without an interview.
    district = rng.integers(3, size=n)
    address_type = rng.integers(3, size=n)
    adjusted = _adjusted(district, address_type, weights, ~missing, missing, 3)
    assert adjusted.sum() == pytest.approx(weights.sum(), rel=1e-9)


def test_district_requires_known_stratum():
    with pytest.raises(DesignError):
        _frame([1], strata=[2])
    with pytest.raises(DesignError):
        _frame([1], provinces=[2])
    with pytest.raises(DesignError, match="inside the household listing"):
        DistrictFrame(np.arange(3), np.array([2]), np.array([2]), np.array([0]),
                      np.array([0]), ("p1",))


def test_the_config_sample_is_the_sampler_design():
    assert harness.SampleSpec is harness_config.SampleSpec is SampleSpec


def test_sample_spec_checks_its_fields():
    with pytest.raises(ConfigError, match="psus_per_stratum"):
        SampleSpec(psus_per_stratum=0)
    with pytest.raises(ConfigError, match="urban_take"):
        SampleSpec(urban_take=0)
