"""Synthetic worlds: generation invariants and both capture passes."""

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covlab.errors import ConfigError
from covlab.popsim import (
    DRAW_BLOCK,
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
    CaptureProbabilities,
    PopulationConfig,
    _capture_probability,
    _buckets,
    _choice,
    _occupied,
    _sigmoid,
    blocks,
    gather,
    ground_truth_ledger,
    groups,
    joint_cell,
    simulate_census,
    simulate_pes,
    synthesize_population,
    uniform_below,
)
from oracles import capture_reference, ledger_reference, two_branch_sigmoid


def _world(seed=11, **overrides):
    defaults = dict(
        persons=4000,
        mover_rate=0.05,
        birth_rate=0.02,
        death_rate=0.02,
        institutional_rate=0.02,
    )
    defaults.update(overrides)
    config = PopulationConfig(**defaults)
    return config, synthesize_population(config, seed=seed)


def test_household_indices_are_int32():
    # The golden digests pin the values; this pins the dtype, with and
    # without the birth and mover paths that extend and rewrite them.
    for rates in ({}, {"birth_rate": 0.0, "mover_rate": 0.0}):
        _, pop = _world(**rates)
        assert pop.census_household.dtype == np.int32
        assert pop.pes_household.dtype == np.int32


def test_synthesis_is_deterministic():
    config, pop = _world()
    again = synthesize_population(config, seed=11)
    assert np.array_equal(pop.census_household, again.census_household)
    assert np.array_equal(pop.pes_household, again.pes_household)
    assert np.array_equal(pop.propensity, again.propensity)
    other = synthesize_population(config, seed=12)
    assert not np.array_equal(pop.propensity, other.propensity)


def test_propensity_values_are_locked():
    # SHA-256 of the float64 bytes, recorded while synthesis drew the
    # propensity eagerly as its last draw.
    _, pop = _world()
    assert pop.propensity.dtype == np.float64 and pop.propensity.shape == (pop.size,)
    digest = hashlib.sha256(pop.propensity.tobytes()).hexdigest()
    assert digest == "6198bfe6b16dbd0a7355d2155d53b943543c2b35a105265faa79df78731c06ff"


def test_population_scopes_and_sizes():
    config, pop = _world()
    assert pop.size >= config.persons
    born = pop.scope == SCOPE_BORN
    died = pop.scope == SCOPE_DIED
    assert born.sum() == pop.size - config.persons
    assert np.all(pop.census_household[born] == -1)
    assert np.all(pop.census_household[~born] >= 0)
    assert np.all(pop.pes_household[died] == -1)
    assert np.all(pop.pes_household[~died] >= 0)


def test_no_births_or_deaths_when_rates_zero():
    config, pop = _world(birth_rate=0.0, death_rate=0.0)
    assert pop.size == config.persons
    assert np.all(pop.scope == SCOPE_IN)


def test_movers_change_household_within_scope():
    _, pop = _world(mover_rate=0.2)
    mover = pop.is_mover()
    assert mover.sum() > 0
    assert np.all(pop.scope[mover] == SCOPE_IN)
    assert np.all(pop.census_household[mover] != pop.pes_household[mover])
    stayers = (pop.scope == SCOPE_IN) & ~mover
    assert np.all(pop.census_household[stayers] == pop.pes_household[stayers])
    # Destinations are ordinary households.
    assert not pop.households.institutional[pop.pes_household[mover]].any()


def test_in_target_excludes_born_and_institutional():
    _, pop = _world(institutional_rate=0.1)
    target = pop.in_target()
    assert not target[pop.scope == SCOPE_BORN].any()
    home = np.where(pop.census_household >= 0, pop.census_household, 0)
    institutional = pop.households.institutional[home] & (pop.scope != SCOPE_BORN)
    assert not target[institutional].any()
    assert target[pop.scope == SCOPE_DIED].sum() > 0  # deaths stay in scope


def test_joint_cell_covers_everyone():
    _, pop = _world()
    cell = joint_cell(pop, slice(None), pop.census_household)
    assert cell.shape == (pop.size,)
    assert cell.min() >= 0
    assert cell.max() < groups(pop, "national")[1].shape[0]


def test_post_strata_shapes():
    config, pop = _world(age_groups=4)
    assert pop.n_post_strata == 8
    assert len(pop.stratum_labels) == 8
    assert pop.post_stratum.min() >= 0
    assert pop.post_stratum.max() < 8
    assert config.n_post_strata == 8


def test_config_validation():
    with pytest.raises(ConfigError):
        PopulationConfig(persons=0)
    with pytest.raises(ConfigError):
        PopulationConfig(urban_share=1.5)
    with pytest.raises(ConfigError):
        PopulationConfig(mover_rate=1.0)
    with pytest.raises(ConfigError):
        PopulationConfig(age_groups=0)


def test_capture_probabilities_validation():
    with pytest.raises(ConfigError, match="^census"):
        CaptureProbabilities(census=1.0, pes=0.9)
    with pytest.raises(ConfigError, match="^pes"):
        CaptureProbabilities(census=0.9, pes=0.0)
    with pytest.raises(ConfigError, match="^heterogeneity"):
        CaptureProbabilities(census=0.9, pes=0.9, heterogeneity=-1.0)
    probs = CaptureProbabilities(census=0.9, pes=0.8)
    assert (probs.dependence, probs.heterogeneity) == (0.0, 0.0)


def test_census_capture_invariants():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, ee_rate=0.03, ii_rate=0.02, seed=3)
    born = pop.scope == SCOPE_BORN
    assert not census.captured[born].any()
    assert not census.imputed[~census.captured].any()
    assert not census.duplicated[~census.captured].any()
    assert not census.captured[census.fab_person].any()
    assert not born[census.fab_person].any()
    expected = int(census.captured.sum() + census.duplicated.sum()) + len(census.fab_person)
    assert census.record_count() == expected


def test_census_is_deterministic_and_clean_without_error_rates():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, seed=3)
    again = simulate_census(pop, probs, seed=3)
    assert np.array_equal(census.captured, again.captured)
    assert not census.imputed.any()
    assert not census.duplicated.any()
    assert len(census.fab_person) == 0


def test_census_household_status():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, seed=3, listed_nonresponse_rate=0.1)
    home = np.where(pop.census_household >= 0, pop.census_household, 0)
    eligible = pop.scope != SCOPE_BORN
    with_records = np.zeros(pop.households.count, dtype=bool)
    with_records[home[census.captured]] = True
    assert np.all(census.hh_status[with_records] == CEN_WITH_Q)
    # Nonresponding households yield no person records.
    noq = census.hh_status == CEN_WITHOUT_Q
    assert noq.sum() > 0
    assert not (with_records & noq).any()
    occupied = np.zeros(pop.households.count, dtype=bool)
    occupied[home[eligible]] = True
    assert np.all(census.hh_status[~occupied & ~with_records] == CEN_NOT_LISTED)


def test_census_rejects_bad_rates():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    with pytest.raises(ConfigError, match=r"^ee_rate must lie in \[0, 1\), got 1.0$"):
        simulate_census(pop, probs, ee_rate=1.0)


def test_pes_household_status_partition():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, seed=3)
    pes = simulate_pes(pop, census, probs, seed=4, absent_rate=0.05, unlisted_rate=0.05)
    here = pop.pes_household[pop.pes_household >= 0]
    occupied = np.zeros(pop.households.count, dtype=bool)
    occupied[here] = True
    occupied_statuses = set(np.unique(pes.hh_status[occupied]).tolist())
    assert occupied_statuses <= {PES_WITH_Q, PES_ABSENT, PES_NOT_LISTED}
    vacant_statuses = set(np.unique(pes.hh_status[~occupied]).tolist())
    assert vacant_statuses <= {PES_VACANT, PES_VACANT_MISSED}


def test_pes_clean_settings_interview_everything():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, seed=3)
    pes = simulate_pes(pop, census, probs, seed=4)
    assert pes.proxy_ok.all()
    here = pop.pes_household[pop.pes_household >= 0]
    occupied = np.zeros(pop.households.count, dtype=bool)
    occupied[here] = True
    assert np.all(pes.hh_status[occupied] == PES_WITH_Q)
    assert np.all(pes.hh_status[~occupied] == PES_VACANT)


def test_pes_rejects_conflicting_household_rates():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.9, pes=0.9)
    census = simulate_census(pop, probs, seed=3)
    with pytest.raises(ConfigError, match=r"^absent_rate \+ unlisted_rate must lie in \[0, 1\)"):
        simulate_pes(pop, census, probs, absent_rate=0.6, unlisted_rate=0.5)


def test_dependence_lowers_survey_capture_of_census_misses():
    config = PopulationConfig(persons=30_000)
    pop = synthesize_population(config, seed=21)
    probs = CaptureProbabilities(census=0.6, pes=0.6, dependence=1.5)
    census = simulate_census(pop, probs, seed=1)
    pes = simulate_pes(pop, census, probs, seed=2)
    rate_hit = pes.listed[census.captured].mean()
    rate_missed = pes.listed[~census.captured].mean()
    assert rate_missed < rate_hit - 0.1


def test_heterogeneity_correlates_the_two_passes():
    config = PopulationConfig(persons=30_000)
    pop = synthesize_population(config, seed=22)
    plain = CaptureProbabilities(census=0.6, pes=0.6)
    spread = CaptureProbabilities(census=0.6, pes=0.6, heterogeneity=1.5)
    census_plain = simulate_census(pop, plain, seed=1)
    pes_plain = simulate_pes(pop, census_plain, plain, seed=2)
    census_spread = simulate_census(pop, spread, seed=1)
    pes_spread = simulate_pes(pop, census_spread, spread, seed=2)

    def capture_correlation(census, pes):
        a = census.captured.astype(float)
        b = pes.listed.astype(float)
        return float(np.corrcoef(a, b)[0, 1])

    assert abs(capture_correlation(census_plain, pes_plain)) < 0.05
    assert capture_correlation(census_spread, pes_spread) > 0.15


def test_ground_truth_ledger_clean_world():
    _, pop = _world(institutional_rate=0.05)
    probs = CaptureProbabilities(census=0.85, pes=0.85)
    census = simulate_census(pop, probs, seed=5)
    ledger = ground_truth_ledger(pop, census)["all"]
    target = pop.in_target()
    assert ledger.true_total == target.sum()
    assert ledger.census_count == (target & census.captured).sum()
    assert ledger.overcount == 0.0
    assert ledger.undercount == ledger.true_total - ledger.census_count
    assert ledger.net_undercount == ledger.undercount
    assert ledger.gross_error == ledger.undercount


def test_ground_truth_ledger_counts_erroneous_records():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.85, pes=0.85)
    census = simulate_census(pop, probs, ee_rate=0.05, seed=5)
    ledger = ground_truth_ledger(pop, census)["all"]
    target = pop.in_target()
    dup = (target & census.duplicated).sum()
    fab = target[census.fab_person].sum()
    assert ledger.overcount == dup + fab
    assert ledger.census_count == (target & census.captured).sum() + dup + fab


def test_ground_truth_ledger_groups_sum_to_national():
    _, pop = _world()
    probs = CaptureProbabilities(census=0.85, pes=0.85)
    census = simulate_census(pop, probs, ee_rate=0.02, seed=5)
    national = ground_truth_ledger(pop, census)["all"]
    for level in ("post_stratum", "province_stratum"):
        parts = ground_truth_ledger(pop, census, level=level)
        assert len(parts) == len(groups(pop, level)[0])
        assert sum(p.true_total for p in parts.values()) == national.true_total
        assert sum(p.census_count for p in parts.values()) == national.census_count


def test_ground_truth_ledger_equals_masked_reference():
    # Births, deaths, institutions, duplicates and fabrications all present.
    _, pop = _world(institutional_rate=0.05)
    probs = CaptureProbabilities(census=0.85, pes=0.85)
    census = simulate_census(pop, probs, ee_rate=0.05, ii_rate=0.02, seed=5)
    assert census.duplicated.any() and census.fab_person.shape[0] > 0
    assert (pop.scope == SCOPE_BORN).any() and (pop.scope == SCOPE_DIED).any()
    assert pop.households.institutional.any()
    for level in ("national", "post_stratum", "province_stratum"):
        assert ground_truth_ledger(pop, census, level) == ledger_reference(pop, census, level)


def test_groups_label_every_cell_group():
    _, pop = _world()
    for level in ("national", "post_stratum", "province_stratum"):
        labels, cell_group = groups(pop, level)
        assert np.array_equal(np.unique(cell_group), np.arange(len(labels)))
    with pytest.raises(ConfigError, match="^level must be one of 'national', "):
        groups(pop, "county")


def test_sigmoid_is_bit_equal_to_the_two_branch_reference():
    edges = np.array([0.0, 1e-300, 40.0, 745.0, 1e300, np.inf])
    rng = np.random.default_rng(3)
    wide = np.concatenate([
        rng.standard_normal(5000) * 10.0,
        np.ldexp(rng.random(5000), rng.integers(-1074, 1000, size=5000)),
    ])
    for x in (np.concatenate([edges, -edges]), wide, -wide):
        got, expected = _sigmoid(x), two_branch_sigmoid(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("dependence", [-1.0, 0.0, 2.0])
@pytest.mark.parametrize("heterogeneity", [0.0, 0.5])
def test_capture_draws_equal_the_per_person_formula(heterogeneity, dependence):
    # A census base probability with a logit of exactly 0.0 (p = 0.5) and
    # dependence of both signs and 0.0, over several blocks of persons.
    _, pop = _world(persons=2 * DRAW_BLOCK + 7)
    probs = CaptureProbabilities(census=0.5, pes=0.7, dependence=dependence,
                                 heterogeneity=heterogeneity)
    census = simulate_census(pop, probs, seed=3)
    pes = simulate_pes(pop, census, probs, seed=4)
    # Without heterogeneity the probabilities are taken once per census
    # outcome, and the propensity is never drawn.
    assert ("propensity" in pop._derived) == bool(heterogeneity)

    for seed, got, base, captured in (
        (3, census.captured, probs.census, None),
        (4, pes.listed, probs.pes, census.captured),
    ):
        expected = capture_reference(pop, base, probs, captured)
        threshold = _capture_probability(pop, base, probs, captured)
        if callable(threshold):
            blockwise = np.concatenate([threshold(block) for block in blocks(pop.size)])
        else:
            assert captured is None and not heterogeneity
            blockwise = np.full(pop.size, threshold)
        assert np.array_equal(blockwise.view(np.uint64), expected.view(np.uint64))
        # Each pass draws its capture uniforms first (no listed nonresponse).
        draws = np.random.default_rng(seed).random(pop.size) < expected
        if captured is None:
            draws &= pop.scope != SCOPE_BORN
        assert np.array_equal(got, draws)


def test_propensity_reads_in_threads_agree_and_are_read_only():
    config, _ = _world(persons=4 * DRAW_BLOCK)
    expected = synthesize_population(config, seed=11).propensity
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            pop = synthesize_population(config, seed=11)
            barrier = threading.Barrier(4)
            reads = []

            def read():
                barrier.wait(timeout=30)
                reads.append(pop.propensity)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(reads) == 4
            for array in reads:
                assert np.array_equal(array, expected)
                assert array is pop.propensity
    finally:
        sys.setswitchinterval(interval)
    assert not pop.propensity.flags.writeable
    with pytest.raises(ValueError):
        pop.propensity[0] = 0.0


def test_joiners_need_a_second_ordinary_household():
    # A joiner's destination was redrawn until it left the census-time
    # household, which one ordinary household never does.  At seed 4 the
    # institutional draws leave one of the two households ordinary.
    config = PopulationConfig(persons=8, mean_household_size=4, institutional_rate=0.5,
                              mover_rate=0.9, new_household_rate=0.0)
    with pytest.raises(ConfigError, match="left one ordinary household"):
        synthesize_population(config, seed=4)
    # One household at all is known from the config.
    with pytest.raises(ConfigError, match="mover_rate must be 0, or new_household_rate 1"):
        PopulationConfig(persons=3, mover_rate=0.5, new_household_rate=0.0)
    for rates in ({"mover_rate": 0.5, "new_household_rate": 1.0}, {"mover_rate": 0.0}):
        synthesize_population(PopulationConfig(persons=3, **rates), seed=1)


@pytest.mark.parametrize("p, size", [
    ([1.0], 50),
    ([0.0, 1.0, 0.0], 50),
    ([0.5, 0.0, 0.0, 0.5], 500),
    ([0.6, 0.3, 0.1], 0),
    ([1e-12, 1.0 - 2e-12, 1e-12], 2000),
])
def test_choice_draws_as_generator_choice_on_degenerate_weights(p, size):
    ours, numpys = np.random.default_rng(12), np.random.default_rng(12)
    got = _choice(ours, p, size)
    expected = numpys.choice(len(p), size=size, p=p)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    assert ours.random() == numpys.random()


def test_choice_draws_as_generator_choice_on_random_weights():
    source = np.random.default_rng(8)
    for trial in range(200):
        k = int(source.integers(1, 600))
        p = source.random(k) ** 3
        p[source.random(k) < 0.2] = 0.0
        if not p.any():
            p[0] = 1.0
        p /= p.sum()
        size = int(source.integers(0, 3000))
        ours, numpys = np.random.default_rng(trial), np.random.default_rng(trial)
        assert np.array_equal(_choice(ours, p, size), numpys.choice(k, size=size, p=p)), trial
        assert ours.random() == numpys.random()


def test_choice_buckets_are_kept_read_only_per_weight_vector():
    weights = np.array([0.2, 0.5, 0.3])
    first = _choice(np.random.default_rng(3), weights, 100)
    weights[:] = [0.5, 0.3, 0.2]
    other = _choice(np.random.default_rng(3), weights, 100)
    assert np.array_equal(other, np.random.default_rng(3).choice(3, size=100, p=weights))
    assert not np.array_equal(first, other)
    for array in _buckets(weights.tobytes()):
        assert not array.flags.writeable
    assert _buckets(weights.tobytes())[0] is _buckets(weights.copy().tobytes())[0]


def test_choice_in_threads_draws_as_generator_choice_past_the_bucket_cache():
    # More weight vectors than the bucket cache keeps, drawn from four
    # threads at once, so that entries are added and evicted concurrently.
    source = np.random.default_rng(4)
    weights = [source.random(int(source.integers(1, 40))) for _ in range(24)]
    expected = [np.random.default_rng(k).choice(p.shape[0], size=300, p=p / p.sum())
                for k, p in enumerate(weights)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(4)
        wrong = []

        def draw(offset):
            barrier.wait(timeout=30)
            for round_ in range(5):
                for k in range(len(weights)):
                    k = (k + offset * 7 + round_) % len(weights)
                    p = weights[k] / weights[k].sum()
                    got = _choice(np.random.default_rng(k), p, 300)
                    if not np.array_equal(got, expected[k]):
                        wrong.append(k)

        threads = [threading.Thread(target=draw, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


# The person-length draws of a world, as synthesis and the passes make them.
_DRAWS = {
    "random": lambda rng, n: rng.random(n),
    "integers_2": lambda rng, n: rng.integers(0, 2, size=n),
    "integers_5": lambda rng, n: rng.integers(0, 5, size=n),
    "integers_300k": lambda rng, n: rng.integers(0, 300_017, size=n),
    "standard_normal": lambda rng, n: rng.standard_normal(n),
}
_BLOCK_EDGES = (0, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1)


@pytest.mark.parametrize("kind", sorted(_DRAWS))
@settings(deadline=None, max_examples=20)
@given(
    n=st.one_of(st.sampled_from(_BLOCK_EDGES), st.integers(0, 3 * DRAW_BLOCK + 7)),
    seed=st.integers(0, 2**64 - 1),
    buffered=st.booleans(),
)
@example(n=0, seed=1, buffered=False)
@example(n=0, seed=1, buffered=True)
@example(n=DRAW_BLOCK - 1, seed=2, buffered=False)
@example(n=DRAW_BLOCK - 1, seed=2, buffered=True)
@example(n=DRAW_BLOCK, seed=3, buffered=False)
@example(n=DRAW_BLOCK, seed=3, buffered=True)
@example(n=DRAW_BLOCK + 1, seed=4, buffered=False)
@example(n=DRAW_BLOCK + 1, seed=4, buffered=True)
def test_block_draws_equal_one_call(kind, n, seed, buffered):
    draw = _DRAWS[kind]
    one, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        # A 32-bit draw leaves the other half of a 64-bit output buffered.
        for rng in (one, blocked):
            rng.integers(0, 2**32, dtype=np.uint32)
        assert one.bit_generator.state["has_uint32"] == 1
    expected = draw(one, n)
    got = np.concatenate([draw(blocked, 0), *(draw(blocked, b.stop - b.start) for b in blocks(n))])
    assert np.array_equal(got, expected)
    assert blocked.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("n", [*_BLOCK_EDGES, 3 * DRAW_BLOCK + 7])
def test_uniform_below_equals_one_comparison(n):
    thresholds = np.random.default_rng(n).random(n)
    for threshold, buffered in itertools.product(
        (0.3, 0.0, lambda block: thresholds[block]), (False, True)
    ):
        one, blocked = np.random.default_rng(9), np.random.default_rng(9)
        if buffered:
            # A 32-bit draw leaves the other half of a 64-bit output
            # buffered; a zero threshold advances the generator and keeps it.
            for rng in (one, blocked):
                rng.integers(0, 2**32, dtype=np.uint32)
            assert one.bit_generator.state["has_uint32"] == 1
        expected = one.random(n) < (thresholds if callable(threshold) else threshold)
        got = uniform_below(blocked, n, threshold)
        assert got.dtype == bool
        assert np.array_equal(got, expected)
        assert blocked.bit_generator.state == one.bit_generator.state
        assert blocked.integers(0, 2**32, dtype=np.uint32) == one.integers(0, 2**32, dtype=np.uint32)


class _CountingGenerator(np.random.Generator):
    """A generator that counts its calls of `random`."""

    calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)


@pytest.mark.parametrize("bit_generator, draws", [(np.random.PCG64, 0), (np.random.Philox, 1)])
def test_uniform_below_draws_below_zero_only_off_pcg64(bit_generator, draws):
    one, blocked = np.random.Generator(bit_generator(5)), _CountingGenerator(bit_generator(5))
    expected = one.random(1000) < 0.0
    got = uniform_below(blocked, 1000, 0.0)
    assert blocked.calls == draws
    assert np.array_equal(got, expected)
    # Philox's state holds arrays, so the next outputs are compared instead.
    assert np.array_equal(blocked.integers(0, 2**63, size=9), one.integers(0, 2**63, size=9))


def test_derived_person_arrays_are_read_only_fresh_and_per_world():
    _, pop = _world(institutional_rate=0.05)
    _, other = _world(seed=12, institutional_rate=0.05)
    census, survey = pop.census_household, pop.pes_household
    home = np.where(census >= 0, census, 0)
    fresh = {
        "occupied_at_census": np.bincount(
            home[pop.scope != SCOPE_BORN], minlength=pop.households.count
        ) > 0,
        "in_target": (pop.scope != SCOPE_BORN) & ~pop.households.institutional[home],
        "is_mover": (pop.scope == SCOPE_IN) & (census >= 0) & (survey >= 0) & (census != survey),
    }
    for name, expected in fresh.items():
        array = getattr(pop, name)()
        assert array is getattr(pop, name)(), name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = array[0]
        assert np.array_equal(array, expected), name
        assert not np.shares_memory(array, getattr(other, name)()), name


@pytest.mark.parametrize("n", [*_BLOCK_EDGES, 3 * DRAW_BLOCK + 7])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_block_cast_gather_and_scatter_equal_plain_indexing(n, index_dtype):
    rng = np.random.default_rng(n)
    n_households = 1000
    index = rng.integers(-1, n_households, size=n).astype(index_dtype)
    index[::97] = -1
    for values in (rng.random(n_households) < 0.5, rng.random(n_households)):
        got = gather(values, index)
        assert got.dtype == values.dtype
        assert np.array_equal(got, values[index])
    occupied = np.zeros(n_households + 1, dtype=bool)
    occupied[index] = True
    assert np.array_equal(_occupied(index, n_households), occupied[:-1])
