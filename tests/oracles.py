"""Independent recomputations shared across test modules."""

import numpy as np

from covlab.popsim import (
    PES_VACANT,
    PES_WITH_Q,
    SCOPE_BORN,
    SCOPE_DIED,
    SCOPE_IN,
    GroundTruthLedger,
    group_labels,
    person_groups,
)


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


def ledger_reference(pop, census, level):
    """Per-group ledgers from one masked bincount per quantity."""
    labels = group_labels(pop, level)
    groups = person_groups(pop, level)
    n_groups = len(labels)
    target = pop.in_target()

    true_total = np.bincount(groups[target], minlength=n_groups)
    captured = np.bincount(groups[target & census.captured], minlength=n_groups)
    undercount = true_total - captured
    duplicates = np.bincount(groups[target & census.duplicated], minlength=n_groups)
    fab_target = census.fab_person[target[census.fab_person]]
    fabrications = np.bincount(groups[fab_target], minlength=n_groups)
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
