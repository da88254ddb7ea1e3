"""Independent recomputations shared across test modules, the checks
they share, and the benchmark's workload configs."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from covlab.estimators import FCodeTallies, MoverTallies
from covlab.harness import ExperimentConfig, SampleSpec
from covlab.matching import (
    CELL_HASH,
    CENSUS_KINDS,
    CODE_NONE,
    CODE_PAIRED,
    KIND_DUPLICATE,
    KIND_FABRICATED,
    KIND_IMPUTED,
    KIND_PERSON,
    REPORT_CODES,
    ROLE_BIRTH,
    ROLE_DEATH,
    ROLE_IN_MOVER,
    ROLE_NON_MOVER,
    ROLE_OUT_MOVER,
    SIDE_CENSUS,
    SIDE_SURVEY,
    SOURCE_CENSUS,
    SOURCE_DUPLICATE,
    SOURCE_FABRICATED,
    SOURCE_REPORT,
    SOURCE_ROSTER,
    MatchTallies,
    among,
    census_records,
    record_weights,
    tally_groups,
)
from covlab.popsim import (
    PES_VACANT,
    PES_WITH_Q,
    SCOPE_BORN,
    SCOPE_DIED,
    SCOPE_IN,
    GroundTruthLedger,
    PopulationConfig,
    census_counts,
    groups,
    joint_cell,
)
from covlab.sampling import noninterview_factor


def clean_expected(pop, cen, sur):
    """Recompute every clean-world tally from the raw arrays.

    Valid only when every matching error rate and survey-side observation
    knob (absent, unlisted, proxy, listed nonresponse, erroneous,
    imputation) is zero; the classification then depends on capture,
    listing and roles alone.
    """
    inst_hh = pop.households.institutional
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    dest = np.where(pop.pes_household >= 0, pop.pes_household, 0)
    non_inst_origin = ~inst_hh[origin]
    born = pop.scope == SCOPE_BORN
    non_mover = (pop.scope == SCOPE_IN) & ~pop.is_mover()
    out_role = (pop.is_mover() | (pop.scope == SCOPE_DIED)) & (pop.census_household >= 0)
    in_role = (pop.is_mover() | born) & (pop.pes_household >= 0)

    cap = cen.captured
    lst = sur.listed
    origin_occupied = sur.hh_status[origin] == PES_WITH_Q
    origin_vacant = sur.hh_status[origin] == PES_VACANT
    hh_with_record = np.zeros(pop.households.count, dtype=bool)
    hh_with_record[origin[cap]] = True
    in_pair_hh = hh_with_record[origin]

    nm = non_mover & non_inst_origin
    f10 = nm & cap & lst
    f42_4 = nm & ~cap & lst & in_pair_hh
    f42_1 = nm & ~cap & lst & ~in_pair_hh
    f52_nm = nm & cap & ~lst

    out = out_role & non_inst_origin
    f30 = out & cap & lst
    f42_4_out = out & ~cap & lst
    f52_out_home = out & cap & ~lst & origin_occupied
    f52_2 = out & cap & ~lst & origin_vacant
    f52_1 = out & cap & ~lst & ~origin_occupied & ~origin_vacant

    # Births get roster records but stay out of the in-mover total.
    n_in = in_role & ~born & lst & ~inst_hh[dest]

    return dict(
        f10=f10.sum(),
        f30=f30.sum(),
        f42_1=f42_1.sum(),
        f42_4=(f42_4 | f42_4_out).sum(),
        f52_1=f52_1.sum(),
        f52_2=f52_2.sum(),
        f52_4=(f52_nm | f52_out_home).sum(),
        n_in=n_in.sum(),
        census_count=(cap & non_inst_origin).sum(),
    )


def person_codes(result, n, name):
    """The slot array `name` of a MatchResult spread to person length:
    each listed person's entry at their index, zero for everyone else."""
    values = getattr(result, name)
    out = np.zeros(n, dtype=values.dtype)
    out[result.person] = values
    return out


def two_branch_sigmoid(x):
    """The logistic function as two masked branches, the reference the
    one-exp kernel must match bit for bit."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


def capture_reference(pop, base, probs, census_captured=None):
    """Every person's capture probability by the per-person formula: the
    sigmoid of the heterogeneity-scaled propensity plus the logit of the
    `base` probability, minus `dependence` for the persons the census
    missed when `census_captured` is given.  Takes the logit of every
    person's own copy of `base`, and reads `pop.propensity` whatever the
    heterogeneity."""
    base = np.full(pop.size, base)
    logit = probs.heterogeneity * pop.propensity
    logit += np.log(base) - np.log1p(-base)
    if census_captured is not None:
        logit -= probs.dependence * ~census_captured
    return two_branch_sigmoid(logit)


def ledger_reference(pop, census, level):
    """Per-group ledgers from one masked bincount per quantity."""
    labels, _ = groups(pop, level)
    n_groups = len(labels)
    target = pop.in_target()
    if level == "province_stratum":
        home = np.where(pop.census_household >= 0, pop.census_household, pop.pes_household)
        district = pop.households.district[home]
        group = pop.districts.province[district] * 2 + pop.districts.stratum[district]
    elif level == "post_stratum":
        group = pop.post_stratum
    else:
        group = np.zeros(pop.size, dtype=np.int64)

    true_total = np.bincount(group[target], minlength=n_groups)
    captured = np.bincount(group[target & census.captured], minlength=n_groups)
    undercount = true_total - captured
    duplicates = np.bincount(group[target & census.duplicated], minlength=n_groups)
    fab_target = census.fab_person[target[census.fab_person]]
    fabrications = np.bincount(group[fab_target], minlength=n_groups)
    overcount = duplicates + fabrications
    census_count = captured + overcount
    return {
        labels[g]: GroundTruthLedger(
            true_total=float(true_total[g]),
            census_count=float(census_count[g]),
            undercount=float(undercount[g]),
            overcount=float(overcount[g]),
        )
        for g in range(n_groups)
    }


def tally_reference(pop, census, result, level="national", household_weight=None,
                    with_in_mover_matching=False):
    """`tally_groups` with its census side recomputed from full census rows.

    Every census record gets a row (captured persons, then duplicates, then
    fabrications), with its kind, scope, post-stratum, household and the
    household weight inside the sample, 0 outside it.  One unweighted and
    one weighted bincount per level over every row give the census count,
    the imputations and the E-sample total; the coded fields are taken from
    `tally_groups` as they are.
    """
    origin = np.where(pop.census_household >= 0, pop.census_household, 0)
    captured = np.flatnonzero(census.captured)
    duplicated = np.flatnonzero(census.duplicated)
    person = np.concatenate([captured, duplicated, census.fab_person])
    kind = np.concatenate([
        np.where(census.imputed[captured], KIND_IMPUTED, KIND_PERSON),
        np.full(duplicated.shape[0], KIND_DUPLICATE),
        np.full(census.fab_person.shape[0], KIND_FABRICATED),
    ])
    household = origin[person]
    in_scope = ~pop.households.institutional[household]
    weight = (np.ones(pop.households.count) if household_weight is None
              else np.asarray(household_weight, dtype=np.float64))
    row_weight = np.where(result.household_mask, weight, 0.0)[household]

    labels, _ = groups(pop, level)
    n_groups = len(labels)
    if level == "province_stratum":
        district = pop.households.district
        districts = pop.districts
        group = (districts.province.astype(np.int64) * 2 + districts.stratum)[district][household]
    elif level == "post_stratum":
        group = pop.post_stratum[person].astype(np.int64)
    else:
        group = np.zeros(person.shape[0], dtype=np.int64)

    kinds = 4
    slot = (in_scope * kinds + kind) * n_groups + group
    size = 2 * kinds * n_groups
    counts = np.bincount(slot, minlength=size).reshape(2, kinds, n_groups)[1]
    weighted = np.bincount(slot, weights=row_weight, minlength=size)
    e_sample = np.delete(weighted.reshape(2, kinds, n_groups)[1], KIND_IMPUTED, axis=0).sum(axis=0)

    coded = tally_groups(pop, census, result, level, household_weight, with_in_mover_matching)
    return {
        label: dataclasses.replace(
            coded[label],
            census_count=float(counts[:, g].sum()),
            imputations=float(counts[KIND_IMPUTED, g]),
            e_sample=float(e_sample[g]),
        )
        for g, label in enumerate(labels)
    }


def record_table_reference(pop, census, result, household_weight=None):
    """Every column of a matched world's coded records and census side,
    built in one pass over all its records: record-length `np.where` for
    the households and sides and masked passes for the roles.  Returns the
    columns by name, those of `matching.RecordTable` and
    `matching.RecordListing` together."""
    n_hh = pop.households.count
    weight = (np.ones(n_hh, dtype=np.float64) if household_weight is None
              else np.asarray(household_weight, dtype=np.float64))
    if result.exclusion_mode == "adjusted":
        factor = noninterview_factor(
            pop.households.district, pop.households.address_type, weight,
            result.interviewed(), result.household_mask & (result.hh_cell == CELL_HASH),
            pop.districts.count,
        )
    else:
        factor = np.ones(n_hh, dtype=np.float64)
    origin = pop.census_household
    dest = pop.pes_household
    fab_person = census.fab_person

    census_count = census_counts(pop, census)[:len(CENSUS_KINDS)]
    if household_weight is None and result.household_mask.all():
        census_kind, census_cells = np.indices(census_count.shape).reshape(2, -1)
        census_weight = census_count.ravel().astype(np.float64)
    else:
        sampled = result.household_mask & ~pop.households.institutional
        census_person, census_kind = census_records(
            census, result.person[sampled[origin[result.person]]],
            np.flatnonzero(sampled[origin[fab_person]]),
        )
        census_cells = joint_cell(pop, census_person, origin[census_person])
        census_weight = weight[origin[census_person]]

    named = result.person
    report = among(result.cen_code, REPORT_CODES)
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
    household = np.where(on_roster, dest[person], origin[person]).astype(np.intp)
    scope = pop.scope[person]
    moved = pop.is_mover()[person]
    role = np.full(person.shape[0], ROLE_NON_MOVER, dtype=np.int8)
    role[on_roster & moved] = ROLE_IN_MOVER
    role[on_roster & (scope == SCOPE_BORN)] = ROLE_BIRTH
    on_report = source == SOURCE_REPORT
    role[on_report & moved] = ROLE_OUT_MOVER
    role[on_report & (scope == SCOPE_DIED)] = ROLE_DEATH
    side = np.where(source >= SOURCE_CENSUS, SIDE_CENSUS, SIDE_SURVEY).astype(np.int8)
    if household_weight is None and result.exclusion_mode == "sci":
        record_weight = np.ones(person.shape[0], dtype=np.float64)
    else:
        record_weight = record_weights(side, role, household, weight, factor)
    return {
        "census_count": census_count,
        "census_kind": census_kind,
        "census_cell": census_cells,
        "census_weight": census_weight,
        "side": side,
        "code": np.concatenate([codes[index] for _, _, index, codes in segments]),
        "role": role,
        "household": household,
        "cell": joint_cell(pop, person, household),
        "weight": record_weight,
        "number": np.concatenate([*(persons for _, persons, _, _ in segments[:-1]), fabs]),
        "source": source,
    }


def perfbench_workloads():
    """`perfbench/workloads.py`, loaded by path: perfbench is a directory of
    scripts, not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def multi_block_config():
    """The benchmark's sci microdata world at 100,000 persons, whose census,
    survey and codes files each hold more than two of the writer's blocks."""
    config = perfbench_workloads().microdata_configs(1)["sci"]
    return dataclasses.replace(
        config, population=dataclasses.replace(config.population, persons=100_000)
    )


# A world whose one household lies in a district the survey does not draw:
# its census.csv holds 46 rows, and pes.csv, codes.csv and weights.csv
# hold only their headers.
EMPTY_SAMPLE = ExperimentConfig(
    population=PopulationConfig(persons=50, mean_household_size=50.0, provinces=1,
                                urban_districts=4, rural_districts=1, urban_share=1.0),
    sample=SampleSpec(psus_per_stratum=1),
)


def assert_ingest_equals_tallies(direct, loaded):
    """`ingest_microdata`'s tallies `loaded` equal `tally_groups`'s `direct`
    field for field, with `==`, except `m_in`, which files do not carry.
    A group ingest does not return holds no census record and no coded
    record, so it must be all zeros on the simulation side."""
    assert set(loaded) <= set(direct)
    for label, tally in direct.items():
        if label in loaded:
            other = loaded[label]
            assert other.movers.m_in is None
        else:
            other = MatchTallies(fcode=FCodeTallies(0.0, 0.0), movers=MoverTallies(0, 0, 0, 0, 0),
                                 census_count=0.0, imputations=0.0, e_sample=0.0, erroneous=0.0)
        assert other.fcode == tally.fcode, label
        assert dataclasses.replace(other.movers, m_in=tally.movers.m_in) == tally.movers, label
        assert dataclasses.replace(other, fcode=tally.fcode, movers=tally.movers) == tally, label
