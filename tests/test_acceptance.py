"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line with the
measured quantities (visible with -s, or on failure).
"""

import math
from time import perf_counter

import numpy as np

from covlab.ds_core import (
    DsTable,
    ds_estimate_cells,
    ds_estimate_margins,
    log_likelihood,
    mle_by_search,
)
from covlab.estimators import (
    MoverTallies,
    fcode_estimate,
    mover_ratio,
    procedure_c_table,
)
from covlab.harness import ExperimentConfig, SampleSpec, build_world, run_experiment
from covlab.matching import tally_groups
from covlab.popsim import PopulationConfig
from covlab.sampling import DistrictFrame, draw_sample, noninterview_factor
from oracles import clean_expected


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def test_criterion_01_procedure_c_cells_equal_margin_form():
    rng = np.random.default_rng(401)
    start = perf_counter()
    worst = 0.0
    for _ in range(10_000):
        n_non = int(rng.integers(1, 5_001))
        n_out = int(rng.integers(1, 501))
        n_in = int(rng.integers(0, 501))
        m_non = int(rng.integers(1, n_non + 1))
        m_out = int(rng.integers(1, n_out + 1))
        x11 = m_non + (m_out / n_out) * n_in
        movers = MoverTallies(n_non=n_non, n_out=n_out, n_in=n_in, m_non=m_non, m_out=m_out)
        census_correct = x11 + float(rng.uniform(0.0, 3_000.0))
        cells = procedure_c_table(movers, census_correct).estimate
        margin = census_correct * (n_non + n_in) / (movers.m_non + movers.m_in_indirect())
        worst = max(worst, abs(cells - margin) / margin)
    elapsed = perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"10,000 tables, max rel diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_cells_form_equals_margins_form():
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(10_000):
        x11 = int(rng.integers(1, 1_000_001))
        x10 = int(rng.integers(0, 1_000_001))
        x01 = int(rng.integers(0, 1_000_001))
        table = DsTable(x11=x11, x10=x10, x01=x01)
        margins = ds_estimate_margins(table.x1plus(), table.xplus1(), table.x11)
        cells = ds_estimate_cells(table)
        worst = max(worst, abs(cells - margins) / margins)
    _report(2, worst < 1e-12, f"10,000 tables, max rel diff {worst:.2e}")


def test_criterion_03_grid_mle_matches_closed_forms():
    rng = np.random.default_rng(403)
    start = perf_counter()
    grid = (np.arange(200) + 0.5) / 200
    step = 1.0 / 200
    worst_t = 0.0
    worst_p = 0.0
    for _ in range(100):
        table = DsTable(
            x11=int(rng.integers(1, 201)),
            x10=int(rng.integers(0, 201)),
            x01=int(rng.integers(0, 201)),
        )
        tilde = table.x1plus() * table.xplus1() / table.x11
        result = mle_by_search(table, t_max=math.ceil(tilde) + 10)
        worst_t = max(worst_t, abs(result.t - tilde))

        # The grid sits at the real-valued closed-form total, where the
        # closed-form rates are the exact joint maximizers.  The surface is
        # additively separable in the two probabilities, so the full
        # 200x200 grid is its two axis profiles summed; the decomposition
        # is spot-checked against direct evaluation below.
        base = log_likelihood(tilde, grid[0], grid[0], table).total
        census_axis = np.array(
            [log_likelihood(tilde, p, grid[0], table).total for p in grid]
        )
        pes_axis = np.array(
            [log_likelihood(tilde, grid[0], p, table).total for p in grid]
        )
        surface = census_axis[:, None] + pes_axis[None, :] - base
        for _ in range(3):
            i = int(rng.integers(200))
            j = int(rng.integers(200))
            direct = log_likelihood(tilde, grid[i], grid[j], table).total
            assert abs(direct - surface[i, j]) < 1e-9 * max(1.0, abs(direct))
        i_star, j_star = np.unravel_index(int(np.argmax(surface)), surface.shape)
        worst_p = max(
            worst_p,
            abs(grid[i_star] - result.p_census),
            abs(grid[j_star] - result.p_pes),
        )
    elapsed = perf_counter() - start
    ok = worst_t <= 1.0 and worst_p <= step + 1e-9 and elapsed < 30.0
    _report(
        3,
        ok,
        f"100 tables, |t - closed form| <= {worst_t:.3f}, "
        f"grid argmax off by <= {worst_p:.4f} (step {step}), {elapsed:.1f}s",
    )


def test_criterion_04_unbiased_under_clean_assumptions():
    start = perf_counter()
    config = ExperimentConfig(
        name="clean-unbiasedness",
        base_seed=1385,
        replicates=1_000,
        workers=4,
        population=PopulationConfig(persons=50_000, mover_rate=0.02),
        procedures=("c",),
        f30_placements=("omitted",),
    )
    result = run_experiment(config)
    entry = result.summary["groups"]["national"]["all"]["procedure_c"]
    elapsed = perf_counter() - start
    rel_bias = abs(entry["bias"]) / entry["true_mean"]
    ok = (
        entry["valid"] == 1_000
        and rel_bias < 0.005
        and abs(entry["bias"]) <= 3.0 * entry["mc_se"]
        and elapsed < 120.0
    )
    _report(
        4,
        ok,
        f"1,000 replicates at T=50,000: mean {entry['mean']:.1f}, "
        f"bias {entry['bias']:+.2f} (rel {rel_bias:.2e}), "
        f"3*mc_se {3 * entry['mc_se']:.2f}, {elapsed:.0f}s",
    )


def _violation_bias(name, seed, **knobs):
    config = ExperimentConfig(
        name=name,
        base_seed=seed,
        replicates=500,
        workers=4,
        population=PopulationConfig(persons=10_000, mover_rate=0.02),
        procedures=("a",),
        f30_placements=("omitted",),
        **knobs,
    )
    entry = run_experiment(config).summary["groups"]["national"]["all"]["procedure_a"]
    assert entry["valid"] == 500
    return entry["bias"], entry["mc_se"]


def test_criterion_05_violations_push_the_estimate_down():
    dep_bias, dep_se = _violation_bias("positive-dependence", 405, dependence=1.1)
    het_bias, het_se = _violation_bias("heterogeneity", 406, heterogeneity=1.0)
    ok = dep_bias < -3.0 * dep_se and het_bias < -3.0 * het_se
    _report(
        5,
        ok,
        f"dependence bias {dep_bias:+.1f} (3se {3 * dep_se:.1f}), "
        f"heterogeneity bias {het_bias:+.1f} (3se {3 * het_se:.1f}), 500 reps each",
    )


def test_criterion_06_f30_placement_ordering_is_strict():
    config = ExperimentConfig(
        name="ordering",
        base_seed=406,
        replicates=50,
        population=PopulationConfig(persons=6_000, mover_rate=0.05),
        capture_census=0.85,
        capture_pes=0.85,
    )
    violations = 0
    for k in range(50):
        bundle = build_world(config, k)
        fcode = tally_groups(bundle.pop, bundle.census, bundle.result)["all"].fcode
        assert fcode.f30 > 0 and fcode.f10 > 0
        assert fcode.f42_total > 0 and fcode.f52_total > 0
        numerator = fcode_estimate(fcode, "numerator")
        omitted = fcode_estimate(fcode, "omitted")
        denominator = fcode_estimate(fcode, "denominator")
        if not numerator > omitted > denominator:
            violations += 1

    equal_runs = 0
    still = ExperimentConfig(
        name="no-movers",
        base_seed=407,
        replicates=10,
        population=PopulationConfig(persons=6_000),
        capture_census=0.85,
        capture_pes=0.85,
    )
    for k in range(10):
        bundle = build_world(still, k)
        fcode = tally_groups(bundle.pop, bundle.census, bundle.result)["all"].fcode
        assert fcode.f30 == 0
        same = (
            fcode_estimate(fcode, "numerator")
            == fcode_estimate(fcode, "omitted")
            == fcode_estimate(fcode, "denominator")
        )
        equal_runs += same
    ok = violations == 0 and equal_runs == 10
    _report(
        6,
        ok,
        f"strict ordering on 50/50 mover replicates ({violations} violations), "
        f"exact equality on {equal_runs}/10 f30=0 replicates",
    )


def test_criterion_07_procedure_b_with_oracle_in_movers_agrees_with_c():
    # Proxy misses and household nonresponse decouple the origin-report
    # channel from the destination-roster channel; without them the two
    # ratios coincide identically and the comparison is vacuous.
    config = ExperimentConfig(
        name="b-vs-c",
        base_seed=407,
        replicates=500,
        population=PopulationConfig(
            persons=10_000, mover_rate=0.05, birth_rate=0.01, death_rate=0.01,
        ),
        proxy_miss=0.15,
        absent_rate=0.05,
        unlisted_rate=0.02,
        with_in_mover_matching=True,
    )
    diffs = np.empty(500)
    for k in range(500):
        bundle = build_world(config, k)
        movers = tally_groups(
            bundle.pop, bundle.census, bundle.result, with_in_mover_matching=True
        )["all"].movers
        diffs[k] = mover_ratio(movers, "c") - mover_ratio(movers, "b")
    mean = float(diffs.mean())
    se = float(diffs.std(ddof=1)) / math.sqrt(diffs.size)
    ok = abs(mean) <= 3.0 * se
    _report(7, ok, f"paired ratio difference {mean:+.2e}, 3se {3 * se:.2e}, 500 reps")


def test_criterion_08_design_weights_and_noninterview_conservation():
    rng = np.random.default_rng(408)
    counts, provinces, strata = [], [], []
    for province in range(2):
        for stratum, (low, high), n in ((0, (60, 200), 10), (1, (30, 160), 6)):
            for _ in range(n):
                counts.append(int(rng.integers(low, high)))
                provinces.append(province)
                strata.append(stratum)
    frame = DistrictFrame.from_households(
        np.repeat(np.arange(len(counts)), counts),
        np.array(provinces),
        np.array(strata, dtype=np.int8),
        ("p1", "p2"),
    )
    spec = SampleSpec(psus_per_stratum=2)
    true_total = sum(counts)

    totals = np.empty(2_000)
    worst_conservation = 0.0
    for k in range(2_000):
        sample = draw_sample(frame, spec, np.random.SeedSequence(408, spawn_key=(k,)))
        totals[k] = sample.weight.sum()
        if k < 20:
            # Interviewed, missing ('#'), or neither (not listed).
            n = sample.households.shape[0]
            status = rng.choice(3, size=n, p=(0.8, 0.1, 0.1))
            interviewed, missing = status == 0, status == 1
            factor = noninterview_factor(
                sample.district, rng.integers(3, size=n), sample.weight,
                interviewed, missing, frame.count.shape[0],
            )
            covered = sample.weight[interviewed | missing].sum()
            kept = (sample.weight[interviewed] * factor[interviewed]).sum()
            worst_conservation = max(worst_conservation, abs(kept - covered) / covered)
    mean = float(totals.mean())
    se = float(totals.std(ddof=1)) / math.sqrt(totals.size)
    ok = abs(mean - true_total) <= 3.0 * se and worst_conservation < 1e-9
    _report(
        8,
        ok,
        f"HT mean {mean:.1f} vs {true_total} (3se {3 * se:.1f}, 2,000 draws), "
        f"noninterview conservation off by {worst_conservation:.1e}",
    )


def test_criterion_09_zero_error_matching_reproduces_ground_truth():
    worlds = [
        ExperimentConfig(
            name="fidelity-open",
            base_seed=409,
            replicates=10,
            population=PopulationConfig(
                persons=5_000, mover_rate=0.06, birth_rate=0.02,
                death_rate=0.02, institutional_rate=0.02,
            ),
        ),
        ExperimentConfig(
            name="fidelity-closed",
            base_seed=410,
            replicates=10,
            population=PopulationConfig(persons=5_000, mover_rate=0.10),
            capture_census=0.8,
            capture_pes=0.85,
        ),
        ExperimentConfig(
            name="fidelity-no-movers",
            base_seed=411,
            replicates=10,
            population=PopulationConfig(
                persons=5_000, birth_rate=0.03, death_rate=0.03,
                institutional_rate=0.05,
            ),
            capture_census=0.95,
            capture_pes=0.85,
        ),
    ]
    mismatches = 0
    checked = 0
    flow_imbalance = 0
    for config in worlds:
        for k in range(config.replicates):
            bundle = build_world(config, k)
            tallies = tally_groups(bundle.pop, bundle.census, bundle.result)["all"]
            expected = clean_expected(bundle.pop, bundle.census, bundle.pes)
            pairs = [
                (tallies.fcode.f10, expected["f10"]),
                (tallies.fcode.f30, expected["f30"]),
                (tallies.fcode.f42_1, expected["f42_1"]),
                (tallies.fcode.f42_4, expected["f42_4"]),
                (tallies.fcode.f52_1, expected["f52_1"]),
                (tallies.fcode.f52_2, expected["f52_2"]),
                (tallies.fcode.f52_4, expected["f52_4"]),
                (tallies.movers.n_in, expected["n_in"]),
                (tallies.census_count, expected["census_count"]),
            ]
            checked += 1
            mismatches += any(got != want for got, want in pairs)
            if config.name == "fidelity-closed":
                movers = bundle.pop.is_mover
                in_movers = int((movers & (bundle.pop.pes_household >= 0)).sum())
                out_movers = int((movers & (bundle.pop.census_household >= 0)).sum())
                flow_imbalance += in_movers != out_movers
    ok = mismatches == 0 and flow_imbalance == 0
    _report(
        9,
        ok,
        f"exact tally agreement on {checked - mismatches}/{checked} replicates, "
        f"{flow_imbalance} closed-population flow imbalances",
    )


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    config = ExperimentConfig(
        name="determinism",
        base_seed=412,
        replicates=6,
        workers=3,
        population=PopulationConfig(
            persons=1_500, mover_rate=0.04, birth_rate=0.01, death_rate=0.01,
        ),
        sample=SampleSpec(psus_per_stratum=1, urban_take=20, rural_take=30),
        grouping=("national", "post_stratum"),
    )
    run_experiment(config, out_dir=str(tmp_path / "first"))
    run_experiment(config, out_dir=str(tmp_path / "second"))
    identical = all(
        (tmp_path / "first" / name).read_bytes()
        == (tmp_path / "second" / name).read_bytes()
        for name in ("replicates.csv", "summary.json", "summary.txt")
    )

    serial = ExperimentConfig(**{**config.__dict__, "workers": 1})
    run_experiment(serial, out_dir=str(tmp_path / "serial"))
    rows_stable = (tmp_path / "first" / "replicates.csv").read_bytes() == (
        tmp_path / "serial" / "replicates.csv"
    ).read_bytes()
    ok = identical and rows_stable
    _report(
        10,
        ok,
        f"parallel reruns byte-identical: {identical}; "
        f"serial rows match parallel: {rows_stable}",
    )
