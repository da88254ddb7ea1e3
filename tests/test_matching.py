"""Record matching and final code assignment, checked against the world."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from covlab.errors import ConfigError, DomainError
from covlab.estimators import fcode_estimate, mover_ratio
from covlab.harness import build_world
from covlab.matching import (
    CELL_BARE42,
    CELL_CEN_NL,
    CELL_CEN_VAC,
    CELL_CEN_VACM,
    CELL_DARK,
    CELL_HASH,
    CELL_INSTITUTIONAL,
    CELL_PAIR,
    CELL_PES_ONLY,
    CELL_PILCROW,
    CELL_PRESUME,
    CELL_SECT,
    CODE_10,
    CODE_20,
    CODE_30,
    CODE_41,
    CODE_42_1,
    CODE_42_2,
    CODE_42_4,
    CODE_51,
    CODE_52_1,
    CODE_52_2,
    CODE_52_4,
    CODE_NONE,
    CODE_LABELS,
    CODE_PAIRED,
    INTERVIEWED_CELLS,
    SOURCE_ROSTER,
    MatchErrorModel,
    MatchResult,
    MatchTallies,
    RecordTable,
    _classify_households,
    match_and_code,
    record_listing,
    record_table,
    tally_groups,
    tally_records,
)
from covlab.popsim import (
    CEN_NOT_LISTED,
    CEN_WITH_Q,
    CEN_WITHOUT_Q,
    CENSUS_STATUSES,
    DRAW_BLOCK,
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
    CaptureProbabilities,
    TARGET_MISSED,
    PopulationConfig,
    ground_truth_ledger,
    groups,
    simulate_census,
    simulate_pes,
    synthesize_population,
)
from covlab.sampling import noninterview_factor
from oracles import (
    clean_expected,
    multi_block_config,
    person_codes,
    record_table_reference,
    tally_reference,
)
from test_golden_outputs import LOCKED


def _world(
    seed=31,
    persons=4000,
    census=0.9,
    pes=0.9,
    ee_rate=0.0,
    ii_rate=0.0,
    listed_nonresponse_rate=0.0,
    absent_rate=0.0,
    unlisted_rate=0.0,
    proxy_miss=0.0,
    **config_overrides,
):
    defaults = dict(
        persons=persons,
        mover_rate=0.06,
        birth_rate=0.02,
        death_rate=0.02,
        institutional_rate=0.02,
    )
    defaults.update(config_overrides)
    config = PopulationConfig(**defaults)
    pop = synthesize_population(config, seed=seed)
    probs = CaptureProbabilities(census=census, pes=pes)
    cen = simulate_census(
        pop, probs, ee_rate=ee_rate, ii_rate=ii_rate, seed=seed + 1,
        listed_nonresponse_rate=listed_nonresponse_rate,
    )
    sur = simulate_pes(
        pop, cen, probs, seed=seed + 2, proxy_miss=proxy_miss,
        absent_rate=absent_rate, unlisted_rate=unlisted_rate,
    )
    return pop, cen, sur


def test_clean_world_codes_match_direct_recomputation():
    pop, cen, sur = _world()
    result = match_and_code(pop, cen, sur)
    tallies = tally_groups(pop, cen, result)["all"]
    expected = clean_expected(pop, cen, sur)

    assert tallies.fcode.f10 == expected["f10"]
    assert tallies.fcode.f30 == expected["f30"]
    assert tallies.fcode.f42_1 == expected["f42_1"]
    assert tallies.fcode.f42_4 == expected["f42_4"]
    assert tallies.fcode.f52_1 == expected["f52_1"]
    assert tallies.fcode.f52_2 == expected["f52_2"]
    assert tallies.fcode.f52_4 == expected["f52_4"]
    assert tallies.fcode.f42_2 == 0.0
    assert tallies.movers.n_in == expected["n_in"]
    assert tallies.census_count == expected["census_count"]
    assert tallies.imputations == 0.0
    assert tallies.erroneous == 0.0
    assert tallies.census_correct() == tallies.census_count


def test_procedure_a_equals_fcode_denominator_placement():
    """Both routes complete the same table, so they agree identically."""
    pop, cen, sur = _world(seed=33)
    result = match_and_code(pop, cen, sur)
    tallies = tally_groups(pop, cen, result)["all"]
    via_procedure = tallies.census_correct() * mover_ratio(tallies.movers, "a")
    via_codes = fcode_estimate(tallies.fcode, "denominator")
    assert via_procedure == pytest.approx(via_codes, rel=1e-12)


def test_pair_slots_are_consistent():
    pop, cen, sur = _world(seed=35, absent_rate=0.05, unlisted_rate=0.05, ee_rate=0.02)
    result = match_and_code(pop, cen, sur)
    # Without a mask every person is listed, in order.
    assert np.array_equal(result.person, np.arange(pop.size))
    paired_pes = result.pes_code == CODE_10
    paired_cen = result.cen_code == CODE_PAIRED
    assert np.array_equal(paired_pes, paired_cen)
    # Roster codes only for survey-time arrivals, origin codes only for leavers.
    birth = pop.scope == SCOPE_BORN
    leaver = (pop.is_mover | (pop.scope == SCOPE_DIED)) & (pop.census_household >= 0)
    assert np.all(birth[result.pes_code == CODE_20] | pop.is_mover[result.pes_code == CODE_20])
    assert np.all(leaver[result.cen_code == CODE_30])


def test_in_mover_match_flag_against_direct_count():
    pop, cen, sur = _world(seed=36)
    result = match_and_code(pop, cen, sur)
    tallies = tally_groups(pop, cen, result, with_in_mover_matching=True)["all"]
    direct = (
        (result.pes_code == CODE_20)
        & (pop.scope != SCOPE_BORN)
        & cen.captured
        & ~cen.imputed
    ).sum()
    assert tallies.movers.m_in == direct
    assert tallies.movers.m_in <= tallies.movers.n_in
    assert mover_ratio(tallies.movers, "b") >= 1.0


def test_in_mover_matching_off_leaves_m_in_unset():
    pop, cen, sur = _world(seed=36)
    result = match_and_code(pop, cen, sur)
    tallies = tally_groups(pop, cen, result)["all"]
    assert tallies.movers.m_in is None


def test_imputed_records_behave_census_missed():
    pop, cen, sur = _world(seed=37, ii_rate=0.3)
    result = match_and_code(pop, cen, sur)
    imputed = cen.imputed
    assert not (result.pes_code[imputed] == CODE_10).any()
    assert not np.isin(result.cen_code[imputed], (CODE_10, CODE_30, CODE_51, CODE_52_4)).any()
    non_mover = (pop.scope == SCOPE_IN) & ~pop.is_mover
    flagged = imputed & sur.listed & non_mover & (result.hh_cell[pop.census_household] == CELL_PAIR)
    assert (result.pes_code[flagged] == CODE_42_4).all()
    tallies = tally_groups(pop, cen, result)["all"]
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    assert tallies.imputations == (imputed & ~pop.households.institutional[origin]).sum()
    # Imputations are excluded from the E-sample denominator.
    assert tallies.e_sample == tallies.census_count - tallies.imputations
    assert tallies.census_correct() == tallies.census_count - tallies.imputations


def test_duplicates_and_fabrications_are_erroneous():
    pop, cen, sur = _world(seed=38, ee_rate=0.05)
    result = match_and_code(pop, cen, sur)
    dup = result.dup_code[cen.duplicated]
    assert set(np.unique(dup).tolist()) <= {CODE_NONE, CODE_51}
    assert (dup == CODE_51).sum() > 0
    fab = result.fab_code
    assert set(np.unique(fab).tolist()) <= {CODE_NONE, CODE_51}
    tallies = tally_groups(pop, cen, result)["all"]
    cen51 = (result.cen_code == CODE_51).sum()
    assert tallies.erroneous == cen51 + (dup == CODE_51).sum() + (fab == CODE_51).sum()
    assert tallies.census_correct() < tallies.census_count - tallies.imputations


def test_presumed_households_keep_all_records_matched():
    pop, cen, sur = _world(seed=39, absent_rate=0.3, ee_rate=0.03)
    result = match_and_code(pop, cen, sur)
    presume = result.hh_cell == CELL_PRESUME
    assert presume.any()
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    records = presume[origin] & cen.captured & ~cen.imputed & (pop.census_household >= 0)
    assert (result.cen_code[records] == CODE_10).all()
    # Presumption is blind: duplicated records in such households pass too.
    dup_there = records & cen.duplicated
    if dup_there.any():
        assert (result.dup_code[dup_there] == CODE_10).all()


def test_false_nonmatch_splits_pairs_symmetrically():
    pop, cen, sur = _world(seed=40)
    model = MatchErrorModel(false_nonmatch=0.4)
    result = match_and_code(pop, cen, sur, error_model=model, seed=9)
    split = (result.pes_code == CODE_42_4) & (result.cen_code == CODE_52_4)
    assert split.sum() > 0
    assert (cen.captured & sur.listed)[split].all()

    clean = match_and_code(pop, cen, sur)
    noisy_tallies = tally_groups(pop, cen, result)["all"]
    clean_tallies = tally_groups(pop, cen, clean)["all"]
    estimate = lambda t: t.census_correct() * mover_ratio(t.movers, "a")
    assert estimate(noisy_tallies) > estimate(clean_tallies)
    # Survey totals by mover status are preserved, only matches are lost.
    assert noisy_tallies.movers.n_non == clean_tallies.movers.n_non
    assert noisy_tallies.movers.m_non < clean_tallies.movers.m_non


def test_false_match_inflates_matches_and_lowers_the_estimate():
    pop, cen, sur = _world(seed=41)
    model = MatchErrorModel(false_match=0.4)
    result = match_and_code(pop, cen, sur, error_model=model, seed=9)
    clean = match_and_code(pop, cen, sur)
    spurious = (result.pes_code == CODE_10) & ~cen.captured
    assert spurious.sum() > 0
    noisy_tallies = tally_groups(pop, cen, result)["all"]
    clean_tallies = tally_groups(pop, cen, clean)["all"]
    assert noisy_tallies.fcode.f10 > clean_tallies.fcode.f10
    assert fcode_estimate(noisy_tallies.fcode) < fcode_estimate(clean_tallies.fcode)


def test_resolution_flip_moves_omissions_to_erroneous():
    pop, cen, sur = _world(seed=42)
    model = MatchErrorModel(resolution_flip=0.5)
    result = match_and_code(pop, cen, sur, error_model=model, seed=9)
    clean = match_and_code(pop, cen, sur)
    assert (result.pes_code == CODE_41).sum() > 0
    assert (result.cen_code == CODE_51).sum() > 0
    noisy_tallies = tally_groups(pop, cen, result)["all"]
    clean_tallies = tally_groups(pop, cen, clean)["all"]
    assert noisy_tallies.erroneous > clean_tallies.erroneous
    assert noisy_tallies.fcode.f52_4 < clean_tallies.fcode.f52_4
    assert noisy_tallies.census_correct() < clean_tallies.census_correct()


def test_household_false_nonmatch_splits_whole_households():
    pop, cen, sur = _world(seed=43)
    model = MatchErrorModel(household_false_nonmatch=0.3)
    result = match_and_code(pop, cen, sur, error_model=model, seed=9)
    split = (result.pes_code == CODE_42_2) & (result.cen_code == CODE_52_2)
    assert split.sum() > 0
    # Within an affected household no pair survives.
    affected = np.unique(pop.census_household[split])
    pair_ok = (result.pes_code == CODE_10) & np.isin(pop.census_household, affected)
    assert pair_ok.sum() == 0


def test_sci_mode_hides_the_excluded_cells():
    pop, cen, sur = _world(
        seed=44, census=0.55, listed_nonresponse_rate=0.3,
        absent_rate=0.25, unlisted_rate=0.2,
    )
    result = match_and_code(pop, cen, sur, exclusion_mode="sci")
    assert (result.hh_cell == CELL_SECT).any()
    assert (result.hh_cell == CELL_PILCROW).any()
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    dest = np.where(pop.pes_household >= 0, pop.pes_household, 0)
    in_sect = (result.hh_cell[origin] == CELL_SECT) & (pop.census_household >= 0)
    assert (result.cen_code[in_sect] == CODE_NONE).all()
    in_pilcrow = (result.hh_cell[dest] == CELL_PILCROW) & (pop.pes_household >= 0)
    assert (result.pes_code[in_pilcrow] == CODE_NONE).all()


def test_adjusted_mode_recovers_the_excluded_cells():
    pop, cen, sur = _world(
        seed=44, census=0.55, listed_nonresponse_rate=0.3,
        absent_rate=0.25, unlisted_rate=0.2,
    )
    result = match_and_code(pop, cen, sur, exclusion_mode="adjusted")
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    dest = np.where(pop.pes_household >= 0, pop.pes_household, 0)
    born = pop.scope == SCOPE_BORN

    in_sect = (result.hh_cell[origin] == CELL_SECT) & (pop.census_household >= 0) & ~born
    assert in_sect.sum() > 0
    assert (result.cen_code[in_sect] == CODE_42_2).all()

    non_mover = (pop.scope == SCOPE_IN) & ~pop.is_mover
    pil = (result.hh_cell[dest] == CELL_PILCROW) & (pop.pes_household >= 0)
    assert (result.pes_code[pil & non_mover] == CODE_42_1).all()
    movers_there = pil & pop.is_mover
    if movers_there.any():
        assert (result.pes_code[movers_there] == CODE_20).all()

    sci = match_and_code(pop, cen, sur, exclusion_mode="sci")
    adj_tallies = tally_groups(pop, cen, result)["all"]
    sci_tallies = tally_groups(pop, cen, sci)["all"]
    assert adj_tallies.fcode.f42_2 > sci_tallies.fcode.f42_2
    assert adj_tallies.fcode.f42_1 >= sci_tallies.fcode.f42_1


# The household grid of the module docstring: the cell of a (census status,
# survey status) pair when nobody, and when somebody, lived in the household
# at census time.  Every other pair is dark.
_DOCSTRING_GRID = {
    (CEN_WITH_Q, PES_WITH_Q): (CELL_PAIR, CELL_PAIR),
    (CEN_WITH_Q, PES_ABSENT): (CELL_PRESUME, CELL_PRESUME),
    (CEN_WITH_Q, PES_NOT_LISTED): (CELL_CEN_NL, CELL_CEN_NL),
    (CEN_WITH_Q, PES_VACANT): (CELL_CEN_VAC, CELL_CEN_VAC),
    (CEN_WITH_Q, PES_VACANT_MISSED): (CELL_CEN_VACM, CELL_CEN_VACM),
    (CEN_WITHOUT_Q, PES_WITH_Q): (CELL_PES_ONLY, CELL_BARE42),
    (CEN_NOT_LISTED, PES_WITH_Q): (CELL_PES_ONLY, CELL_BARE42),
    (CEN_WITHOUT_Q, PES_ABSENT): (CELL_HASH, CELL_HASH),
    (CEN_WITHOUT_Q, PES_NOT_LISTED): (CELL_SECT, CELL_SECT),
    (CEN_NOT_LISTED, PES_ABSENT): (CELL_DARK, CELL_PILCROW),
}


def test_household_grid_gives_the_cells_the_module_docstring_lists():
    keys = list(itertools.product(
        range(len(CENSUS_STATUSES)), range(len(PES_STATUSES)), (False, True)
    ))
    census_status, survey_status, occupied = (np.array(column) for column in zip(*keys))
    expected = [_DOCSTRING_GRID.get((c, p), (CELL_DARK, CELL_DARK))[o] for c, p, o in keys]
    for institutional in (False, True):
        pop = SimpleNamespace(
            occupied_at_census=occupied,
            households=SimpleNamespace(institutional=np.full(len(keys), institutional)),
        )
        cell = _classify_households(pop, SimpleNamespace(hh_status=census_status.astype(np.int8)),
                                    SimpleNamespace(hh_status=survey_status.astype(np.int8)))
        assert cell.tolist() == ([CELL_INSTITUTIONAL] * len(keys) if institutional else expected)


def test_hash_reweighting_conserves_survey_mass():
    pop, cen, sur = _world(
        seed=45, listed_nonresponse_rate=0.3, absent_rate=0.25, unlisted_rate=0.1,
    )
    result = match_and_code(pop, cen, sur, exclusion_mode="adjusted")
    cell = result.hh_cell
    assert (cell == CELL_HASH).any()
    rng = np.random.default_rng(0)
    weight = rng.uniform(0.5, 3.0, size=pop.households.count)
    interviewed = np.isin(cell, INTERVIEWED_CELLS)
    factor = noninterview_factor(
        pop.households.district, pop.households.address_type, weight,
        interviewed, cell == CELL_HASH, pop.districts.count,
    )
    covered = weight[interviewed].sum() + weight[cell == CELL_HASH].sum()
    respread = (weight[interviewed] * factor[interviewed]).sum()
    assert respread == pytest.approx(covered, rel=1e-9)
    assert (factor[~interviewed] == 1.0).all()
    # Survey roster records carry exactly this reweighted household weight.
    table = record_table(pop, cen, result, weight)
    listing = record_listing(pop, cen, result)
    roster = listing.source == SOURCE_ROSTER
    assert (table.weight[roster] == (weight * factor)[listing.household[roster]]).all()


def test_household_mask_gates_every_code():
    pop, cen, sur = _world(seed=46, ee_rate=0.03)
    rng = np.random.default_rng(1)
    mask = rng.random(pop.households.count) < 0.5
    result = match_and_code(pop, cen, sur, household_mask=mask)
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    dest = np.where(pop.pes_household >= 0, pop.pes_household, 0)
    pes_code, cen_code, dup_code = (
        person_codes(result, pop.size, name) for name in ("pes_code", "cen_code", "dup_code")
    )
    assert mask[dest[pes_code != CODE_NONE]].all()
    cen_rows = (cen_code != CODE_NONE) & (cen_code != CODE_PAIRED)
    assert mask[origin[cen_rows]].all()
    assert mask[origin[dup_code != CODE_NONE]].all()
    fab_rows = result.fab_code != CODE_NONE
    assert mask[origin[cen.fab_person][fab_rows]].all()


def test_match_and_code_input_validation():
    pop, cen, sur = _world(seed=47, persons=500)
    with pytest.raises(ConfigError):
        match_and_code(pop, cen, sur, exclusion_mode="drop")
    with pytest.raises(DomainError):
        match_and_code(pop, cen, sur, household_mask=np.ones(3, dtype=bool))
    result = match_and_code(pop, cen, sur)
    with pytest.raises(DomainError):
        tally_groups(pop, cen, result, household_weight=np.ones(3))
    bad = np.full(pop.households.count, -1.0)
    with pytest.raises(DomainError):
        tally_groups(pop, cen, result, household_weight=bad)


def test_group_tallies_sum_to_national():
    pop, cen, sur = _world(seed=48, ee_rate=0.02, ii_rate=0.02)
    result = match_and_code(pop, cen, sur)
    national = tally_groups(pop, cen, result)["all"]
    for level in ("post_stratum", "province_stratum"):
        parts = tally_groups(pop, cen, result, level=level)
        for field in ("f10", "f30", "f42_1", "f42_2", "f42_4", "f52_1", "f52_2", "f52_4"):
            total = sum(getattr(t.fcode, field) for t in parts.values())
            assert total == pytest.approx(getattr(national.fcode, field), abs=1e-9)
        assert sum(t.census_count for t in parts.values()) == national.census_count
        assert sum(t.movers.n_in for t in parts.values()) == national.movers.n_in


def test_weighted_tallies_scale_with_the_design_weight():
    pop, cen, sur = _world(seed=49)
    result = match_and_code(pop, cen, sur)
    unit = tally_groups(pop, cen, result)["all"]
    double = tally_groups(
        pop, cen, result, household_weight=np.full(pop.households.count, 2.0)
    )["all"]
    assert double.fcode.f10 == pytest.approx(2 * unit.fcode.f10)
    assert double.movers.n_non == pytest.approx(2 * unit.movers.n_non)
    assert double.e_sample == pytest.approx(2 * unit.e_sample)
    # Census processing constants never pick up survey weights.
    assert double.census_count == unit.census_count
    assert double.imputations == unit.imputations
    assert double.census_correct() == pytest.approx(unit.census_correct())


@pytest.mark.parametrize(
    "world", ["clean-national", "adjusted-sampled", "every-knob", "multi-block"]
)
def test_listing_and_table_equal_the_one_pass_reference(world):
    config = multi_block_config() if world == "multi-block" else LOCKED[world]
    bundle = build_world(config, 1)
    world_args = (bundle.pop, bundle.census, bundle.result)
    expected = record_table_reference(*world_args, bundle.household_weight)
    table = record_table(*world_args, bundle.household_weight)
    listing = record_listing(*world_args)
    built = {**dataclasses.asdict(listing), **dataclasses.asdict(table)}
    assert set(built) == set(expected)
    for name, column in expected.items():
        got = built[name]
        assert got.dtype == column.dtype, name
        assert got.shape == column.shape and got.tobytes() == column.tobytes(), name
    assert np.array_equal(listing.side, table.side)
    assert np.array_equal(listing.code, table.code)
    assert np.array_equal(listing.role, table.role)
    reference = RecordTable(
        **{field.name: expected[field.name] for field in dataclasses.fields(RecordTable)}
    )
    for level in ("national", "post_stratum", "province_stratum"):
        labels, cell_group = groups(bundle.pop, level)
        assert (repr(tally_records(table, labels, cell_group))
                == repr(tally_records(reference, labels, cell_group)))


def test_prebuilt_table_tallies_equal_direct_tallies():
    pop, cen, sur = _world(
        seed=51, ee_rate=0.03, ii_rate=0.02, listed_nonresponse_rate=0.1,
        absent_rate=0.1, unlisted_rate=0.05, proxy_miss=0.1,
    )
    rng = np.random.default_rng(51)
    mask = rng.random(pop.households.count) < 0.4
    weight = np.where(mask, rng.uniform(1.0, 20.0, size=mask.shape[0]), 0.0)
    model = MatchErrorModel(false_nonmatch=0.05, false_match=0.02, resolution_flip=0.05)
    result = match_and_code(
        pop, cen, sur, error_model=model, seed=6, exclusion_mode="adjusted", household_mask=mask
    )
    assert ((result.hh_cell == CELL_HASH) & mask).any()
    table = record_table(pop, cen, result, weight)
    for level in ("national", "post_stratum", "province_stratum"):
        direct = tally_groups(
            pop, cen, result, level=level, household_weight=weight, with_in_mover_matching=True
        )
        shared = tally_groups(pop, cen, result, level=level, with_in_mover_matching=True,
                              table=table)
        assert shared == direct
    with pytest.raises(DomainError, match="household_weight"):
        tally_groups(pop, cen, result, household_weight=weight, table=table)


@pytest.mark.parametrize("seed", [61, 62, 63])
def test_tallies_equal_the_full_row_census_reduction(seed):
    pop, cen, sur = _world(
        seed=seed, ee_rate=0.04, ii_rate=0.03, listed_nonresponse_rate=0.1,
        absent_rate=0.1, unlisted_rate=0.05, proxy_miss=0.1, institutional_rate=0.05,
    )
    rng = np.random.default_rng(seed)
    n_hh = pop.households.count
    mask = rng.random(n_hh) < 0.4
    weight = np.where(mask, rng.uniform(0.5, 30.0, size=n_hh), 0.0)
    # A sampled household of weight 0 that holds in-scope census records.
    origin = pop.census_household[cen.captured]
    weight[origin[mask[origin] & ~pop.households.institutional[origin]][0]] = 0.0
    model = MatchErrorModel(false_nonmatch=0.05, false_match=0.02, resolution_flip=0.05)
    worlds = [
        (mode, household_mask, household_weight)
        for mode in ("sci", "adjusted")
        for household_mask, household_weight in (
            (mask, weight), (mask, None), (None, None), (None, weight + 1.0)
        )
    ]
    for mode, household_mask, household_weight in worlds:
        result = match_and_code(pop, cen, sur, error_model=model, seed=seed,
                                exclusion_mode=mode, household_mask=household_mask)
        for level in ("national", "post_stratum", "province_stratum"):
            expected = tally_reference(pop, cen, result, level, household_weight, True)
            assert tally_groups(pop, cen, result, level, household_weight, True) == expected, (
                mode, household_mask is None, household_weight is None, level
            )


def test_census_counts_equal_a_per_person_recount():
    # More than two blocks of persons, with births, deaths, institutional
    # households, duplicates, fabrications and imputations.
    pop, cen, sur = _world(seed=52, persons=2 * DRAW_BLOCK + 1001, ee_rate=0.03, ii_rate=0.02,
                           listed_nonresponse_rate=0.02, institutional_rate=0.05)
    target = pop.in_target
    assert target.size > 2 * DRAW_BLOCK and pop.households.institutional.any()
    assert (pop.scope == SCOPE_BORN).any() and (pop.scope == SCOPE_DIED).any()
    n_areas = 2 * len(pop.districts.province_labels)
    n_cells = pop.n_post_strata * n_areas
    home = np.where(pop.census_household >= 0, pop.census_household, 0)
    district = pop.households.district[home]
    area = pop.districts.province[district] * 2 + pop.districts.stratum[district]
    cell = pop.post_stratum.astype(np.int64) * n_areas + area

    def recount(persons):
        return np.bincount(cell[persons], minlength=n_cells)

    expected = np.empty((TARGET_MISSED + 1, n_cells), dtype=np.int64)
    expected[KIND_PERSON] = recount(target & cen.captured & ~cen.imputed)
    expected[KIND_IMPUTED] = recount(target & cen.imputed)
    expected[KIND_DUPLICATE] = recount(target & cen.duplicated)
    expected[KIND_FABRICATED] = recount(cen.fab_person[target[cen.fab_person]])
    expected[TARGET_MISSED] = recount(target & ~cen.captured)
    assert np.array_equal(cen.counts, expected)
    assert cen.counts.dtype == np.int64 and expected.sum(axis=1).all()
    assert not cen.counts.flags.writeable
    with pytest.raises(ValueError):
        cen.counts[0, 0] = cen.counts[0, 0]

    result = match_and_code(pop, cen, sur)
    for level in ("national", "post_stratum", "province_stratum"):
        ledger = ground_truth_ledger(pop, cen, level)
        for label, tally in tally_groups(pop, cen, result, level).items():
            assert tally.census_count == ledger[label].census_count
    # Another census of the same population has counts of its own.
    other = simulate_census(pop, CaptureProbabilities(census=0.9, pes=0.9), seed=7)
    assert not np.shares_memory(other.counts, cen.counts)


def test_code_counts_reports_every_slot():
    pop, cen, sur = _world(seed=50, ee_rate=0.04)
    model = MatchErrorModel(false_nonmatch=0.1, resolution_flip=0.1)
    result = match_and_code(pop, cen, sur, error_model=model, seed=5)
    counts = result.code_counts()
    assert counts["10"] == int(
        (result.pes_code == CODE_10).sum() + (result.cen_code == CODE_10).sum()
        + (result.dup_code == CODE_10).sum() + (result.fab_code == CODE_10).sum()
    )
    total_emitted = sum(counts.values())
    emitted = sum(
        int((arr != CODE_NONE).sum())
        for arr in (result.pes_code, result.orphan_code, result.dup_code, result.fab_code)
    ) + int(((result.cen_code != CODE_NONE) & (result.cen_code != CODE_PAIRED)).sum())
    assert total_emitted == emitted


def test_code_counts_equal_a_count_per_code():
    rng = np.random.default_rng(21)
    every_code = np.array([CODE_NONE, CODE_PAIRED, *CODE_LABELS], dtype=np.int16)
    for trial in range(60):
        # Each trial emits a random subset of the codes, so some are absent.
        pool = rng.choice(every_code, size=int(rng.integers(1, every_code.shape[0] + 1)),
                          replace=False)
        n, n_fab = int(rng.integers(0, 400)), int(rng.integers(0, 40))
        pes, cen, orphan, dup = (pool[rng.integers(0, pool.shape[0], size=n)] for _ in range(4))
        fab = pool[rng.integers(0, pool.shape[0], size=n_fab)]
        result = MatchResult(
            person=np.arange(n), pes_code=pes, cen_code=cen, orphan_code=orphan,
            in_mover_matched=np.zeros(n, dtype=bool), dup_code=dup, fab_code=fab,
            hh_cell=np.zeros(0, dtype=np.int8), exclusion_mode="sci",
            household_mask=np.zeros(0, dtype=bool),
        )
        expected = {}
        for code, label in CODE_LABELS.items():
            total = sum(int((codes == code).sum()) for codes in (pes, cen, orphan, dup, fab))
            if total:
                expected[label] = total
        counts = result.code_counts()
        assert counts == expected, trial
        assert list(counts) == list(expected), trial
        assert all(type(value) is int for value in counts.values())


@pytest.mark.parametrize("exclusion_mode", ["sci", "adjusted"])
def test_household_mask_equals_unmasked_codes_outside_the_sample_zeroed(exclusion_mode):
    """A mask only zeroes codes: every record keeps its unmasked code when
    the household that owns it is sampled, and gets none otherwise."""
    pop, cen, sur = _world(
        seed=48, ee_rate=0.04, ii_rate=0.03, listed_nonresponse_rate=0.08,
        absent_rate=0.08, unlisted_rate=0.06, proxy_miss=0.1,
    )
    errors = MatchErrorModel(
        false_nonmatch=0.05, false_match=0.05, resolution_flip=0.1,
        household_false_nonmatch=0.05,
    )
    full = match_and_code(pop, cen, sur, error_model=errors, seed=9,
                          exclusion_mode=exclusion_mode)
    # Roster codes belong to the survey-time household; census, report
    # and orphan codes, duplicates and fabrications to the census-time one.
    has_origin = pop.census_household >= 0
    has_dest = pop.pes_household >= 0
    origin = np.where(has_origin, pop.census_household, 0)
    dest = np.where(has_dest, pop.pes_household, 0)
    n_hh = pop.households.count
    rng = np.random.default_rng(5)
    masks = [np.zeros(n_hh, dtype=bool), np.ones(n_hh, dtype=bool)]
    masks += [rng.random(n_hh) < share for share in (0.05, 0.3, 0.7)]
    for mask in masks:
        masked = match_and_code(pop, cen, sur, error_model=errors, seed=9,
                                exclusion_mode=exclusion_mode, household_mask=mask)
        d_in = mask[dest] & has_dest
        o_in = mask[origin] & has_origin
        # The masked result lists exactly the persons with a sampled household.
        assert np.array_equal(masked.person, np.flatnonzero(d_in | o_in))
        for name in ("pes_code", "cen_code", "orphan_code", "dup_code", "in_mover_matched"):
            assert getattr(masked, name).shape == masked.person.shape, name
        n = pop.size
        assert np.array_equal(
            person_codes(masked, n, "pes_code"), np.where(d_in, full.pes_code, CODE_NONE)
        )
        assert np.array_equal(
            person_codes(masked, n, "in_mover_matched"), full.in_mover_matched & d_in
        )
        for name in ("cen_code", "orphan_code", "dup_code"):
            expected = np.where(o_in, getattr(full, name), CODE_NONE)
            assert np.array_equal(person_codes(masked, n, name), expected), name
        fab_in = mask[origin[cen.fab_person]]
        assert np.array_equal(masked.fab_code, np.where(fab_in, full.fab_code, CODE_NONE))
        assert np.array_equal(masked.hh_cell, full.hh_cell)
        assert np.array_equal(masked.household_mask, mask)
