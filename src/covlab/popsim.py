"""Synthetic closed populations and the two capture passes over them.

A world is a set of persons placed in households, households placed in
districts, districts split urban/rural across provinces.  Between census
time and survey time people may move house, die, or be born; the
population is closed otherwise, so every in-mover is the same person as
some out-mover and the national counts agree exactly.

The census pass captures each eligible person independently with a
post-stratum probability, then injects the field pathologies that coverage
estimation has to cope with: whole-person imputations (records that count
but cannot be matched), duplicate records, and fabricated records.  The
survey pass captures with its own probability, modified by two
assumption-violating knobs:

    dependence     log-odds penalty on survey capture after a census miss,
                   so positive values make misses correlate (doubly-missing
                   persons become more common than independence predicts)
    heterogeneity  scale of a per-person propensity shared by both passes,
                   so positive values correlate capture probabilities

Both knobs at zero give independent homogeneous captures, the model under
which dual-system estimation is exact.

All person-level state lives in parallel numpy arrays so that Monte Carlo
replication stays cheap at census-like sizes.  The arrays every stage
derives from a world -- the census-time and survey-time homes, the
households occupied at census time, the target scope, the movers and the
home district -- are computed once per `Population`, on first use, and
returned read-only: a caller that needs to change one copies it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, check_fields

__all__ = [
    "SCOPE_IN",
    "SCOPE_BORN",
    "SCOPE_DIED",
    "CEN_WITH_Q",
    "CEN_WITHOUT_Q",
    "CEN_NOT_LISTED",
    "PES_WITH_Q",
    "PES_ABSENT",
    "PES_NOT_LISTED",
    "PES_VACANT",
    "PES_VACANT_MISSED",
    "PopulationConfig",
    "CaptureProbabilities",
    "Districts",
    "Households",
    "Population",
    "CensusSim",
    "PesSim",
    "GroundTruthLedger",
    "synthesize_population",
    "simulate_census",
    "simulate_pes",
    "ground_truth_ledger",
    "group_labels",
    "person_groups",
]

# Person scope relative to the census target population.
SCOPE_IN = 0      # alive at census time and at survey time
SCOPE_BORN = 1    # born after census time: outside the census target
SCOPE_DIED = 2    # died after census time: inside the target, gone at survey time

# Census household listing status.
CEN_WITH_Q = 0
CEN_WITHOUT_Q = 1
CEN_NOT_LISTED = 2

# Survey household listing status.
PES_WITH_Q = 0
PES_ABSENT = 1          # listed, interview not obtained
PES_NOT_LISTED = 2      # occupied but missed by the listing
PES_VACANT = 3          # empty at survey time, dwelling reached (proxies available)
PES_VACANT_MISSED = 4   # empty at survey time, dwelling missed

_ADDRESS_PROBS = (0.6, 0.3, 0.1)  # single_unit, multi_unit, other


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, from
    one exp: exp(-|x|) is exp(-x) on the first branch and exp(x) on the
    second, so each entry takes exactly its branch's operations."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x < 0, e, 1.0)
    e += 1.0
    out /= e
    return out


# Buckets of the categorical draw's lookup table, a power of two so that
# a uniform's bucket is exact.
_CHOICE_BUCKETS = 4096
_BUCKET_EDGES = np.arange(_CHOICE_BUCKETS + 1) / _CHOICE_BUCKETS


def _choice(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """`rng.choice(len(p), size, p=p)`: the same draw, the same indices.

    Generator.choice binary-searches the normalized cdf for each uniform.
    Here a uniform first finds its bucket of [0, 1); every uniform in a
    bucket that no cdf edge crosses has that bucket's index, and only the
    rest are searched.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    lower = cdf.searchsorted(_BUCKET_EDGES[:-1], side="right")
    upper = cdf.searchsorted(_BUCKET_EDGES[1:], side="left")
    bucket = (u * _CHOICE_BUCKETS).astype(np.intp)
    index = lower[bucket]
    crossed = (lower != upper)[bucket]
    index[crossed] = cdf.searchsorted(u[crossed], side="right")
    return index


def _occupied(household: np.ndarray, n_households: int) -> np.ndarray:
    """Households holding at least one person; -1 marks a person without a
    household and lands in a spare last slot that is dropped."""
    occupied = np.zeros(n_households + 1, dtype=bool)
    occupied[household] = True
    return occupied[:-1]


@dataclass(frozen=True)
class PopulationConfig:
    """Shape of the synthetic world.

    `persons` is the census-time population size; births are drawn on top
    of it and deaths within it.  Post-strata are sex crossed with
    `age_groups` age bands.
    """

    persons: int = 10_000
    provinces: int = 2
    urban_districts: int = 4
    rural_districts: int = 2
    urban_share: float = 0.7
    mean_household_size: float = 3.5
    mover_rate: float = 0.0
    new_household_rate: float = 0.3
    birth_rate: float = 0.0
    death_rate: float = 0.0
    institutional_rate: float = 0.0
    age_groups: int = 5

    def __post_init__(self) -> None:
        check_fields(self)
        # A mean household size below 1 makes more households than persons.
        for name in ("persons", "provinces", "urban_districts", "rural_districts", "age_groups",
                     "mean_household_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("urban_share", "new_household_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("mover_rate", "birth_rate", "death_rate", "institutional_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")

    @property
    def n_post_strata(self) -> int:
        return 2 * self.age_groups


@dataclass(frozen=True)
class CaptureProbabilities:
    """Per-post-stratum capture model for both passes."""

    census: np.ndarray
    pes: np.ndarray
    dependence: np.ndarray
    heterogeneity: np.ndarray

    def __post_init__(self) -> None:
        arrays = {
            "census": np.asarray(self.census, dtype=np.float64),
            "pes": np.asarray(self.pes, dtype=np.float64),
            "dependence": np.asarray(self.dependence, dtype=np.float64),
            "heterogeneity": np.asarray(self.heterogeneity, dtype=np.float64),
        }
        size = arrays["census"].shape
        for name, arr in arrays.items():
            if arr.shape != size:
                raise ConfigError("capture arrays must share one shape per post-stratum")
            object.__setattr__(self, name, arr)
        for name in ("census", "pes"):
            arr = arrays[name]
            if np.any(arr <= 0.0) or np.any(arr >= 1.0):
                raise ConfigError(f"{name} capture probabilities must lie strictly inside (0, 1)")
        if np.any(arrays["heterogeneity"] < 0.0):
            raise ConfigError("heterogeneity must be non-negative")
        if not np.all(np.isfinite(arrays["dependence"])):
            raise ConfigError("dependence must be finite")

    @classmethod
    def uniform(
        cls,
        n_strata: int,
        census: float,
        pes: float,
        dependence: float = 0.0,
        heterogeneity: float = 0.0,
    ) -> "CaptureProbabilities":
        ones = np.ones(n_strata, dtype=np.float64)
        return cls(
            census=census * ones,
            pes=pes * ones,
            dependence=dependence * ones,
            heterogeneity=heterogeneity * ones,
        )


@dataclass(frozen=True)
class Districts:
    province: np.ndarray        # province index per district
    stratum: np.ndarray         # 0 urban, 1 rural
    province_labels: tuple[str, ...]

    @property
    def count(self) -> int:
        return int(self.province.shape[0])


@dataclass(frozen=True)
class Households:
    district: np.ndarray        # district index per household
    address_type: np.ndarray    # index into sampling.ADDRESS_TYPES
    institutional: np.ndarray   # outside the survey target universe

    @property
    def count(self) -> int:
        return int(self.district.shape[0])


@dataclass(frozen=True)
class Population:
    """One synthetic world, frozen after generation.

    The derived person and household arrays below are computed on first
    use, kept for the life of the world and returned read-only.
    """

    census_household: np.ndarray   # household index, -1 for persons born later
    pes_household: np.ndarray      # household index, -1 for persons who died
    post_stratum: np.ndarray
    scope: np.ndarray
    propensity: np.ndarray         # shared capture propensity, standard normal
    households: Households
    districts: Districts
    stratum_labels: tuple[str, ...]
    _derived: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return int(self.scope.shape[0])

    @property
    def n_post_strata(self) -> int:
        return len(self.stratum_labels)

    def _memo(self, name: str, compute: Callable[[], np.ndarray]) -> np.ndarray:
        array = self._derived.get(name)
        if array is None:
            array = self._derived[name] = compute()
            array.setflags(write=False)
        return array

    def census_home(self) -> np.ndarray:
        """Census-time household per person, 0 for persons born later;
        pair it with `census_household >= 0`."""
        return self._memo(
            "census_home",
            lambda: np.where(self.census_household >= 0, self.census_household, 0),
        )

    def survey_home(self) -> np.ndarray:
        """Survey-time household per person, 0 for persons who died; pair
        it with `pes_household >= 0`."""
        return self._memo(
            "survey_home",
            lambda: np.where(self.pes_household >= 0, self.pes_household, 0),
        )

    def occupied_at_census(self) -> np.ndarray:
        """Households with at least one census-time resident, that is a
        person not born later."""
        return self._memo(
            "occupied_at_census",
            lambda: _occupied(self.census_household, self.households.count),
        )

    def in_target(self) -> np.ndarray:
        """Census target scope: existed at census time, in an ordinary
        (non-institutional) household."""
        return self._memo(
            "in_target",
            lambda: (self.scope != SCOPE_BORN)
            & ~self.households.institutional[self.census_home()],
        )

    def home_district(self) -> np.ndarray:
        """District of the census-time household, falling back to the
        survey-time household for persons born after the census."""
        return self._memo(
            "home_district",
            lambda: self.households.district[
                np.where(self.census_household >= 0, self.census_household, self.pes_household)
            ],
        )

    def is_mover(self) -> np.ndarray:
        return self._memo(
            "is_mover",
            lambda: (self.scope == SCOPE_IN)
            & (self.census_household >= 0)
            & (self.pes_household >= 0)
            & (self.census_household != self.pes_household),
        )


@dataclass(frozen=True)
class CensusSim:
    """Census pass over one population."""

    captured: np.ndarray     # person has a census record (imputed ones included)
    imputed: np.ndarray      # the record is a whole-person imputation
    duplicated: np.ndarray   # an extra duplicate record exists for the person
    fab_person: np.ndarray   # source-person index per fabricated record
    hh_status: np.ndarray    # census listing status per household

    def record_count(self) -> int:
        return int(self.captured.sum() + self.duplicated.sum() + self.fab_person.shape[0])


@dataclass(frozen=True)
class PesSim:
    """Survey pass over one population.

    `listed` is the person-level capture draw; it only takes effect where
    the relevant household was actually interviewed or, for out-mover
    reports, reachable.  `proxy_ok` is the extra report-quality draw that
    out-mover and death reports must also pass.
    """

    listed: np.ndarray
    proxy_ok: np.ndarray
    hh_status: np.ndarray


@dataclass(frozen=True)
class GroundTruthLedger:
    """Exact coverage accounting for one estimation group."""

    true_total: float
    census_count: float
    undercount: float
    overcount: float

    def __post_init__(self) -> None:
        residual = self.true_total - (self.census_count + self.undercount - self.overcount)
        if abs(residual) > 1e-9:
            raise DomainError(
                f"ledger identity violated: T={self.true_total}, C={self.census_count}, "
                f"U={self.undercount}, O={self.overcount}"
            )

    @property
    def gross_error(self) -> float:
        return self.undercount + self.overcount

    @property
    def net_undercount(self) -> float:
        return self.undercount - self.overcount


def synthesize_population(
    config: PopulationConfig,
    seed: int | np.random.SeedSequence,
) -> Population:
    """Generate one world.  Deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)

    district_per_province = config.urban_districts + config.rural_districts
    n_districts = config.provinces * district_per_province
    d_province = np.repeat(np.arange(config.provinces, dtype=np.int32), district_per_province)
    d_stratum = np.tile(
        np.concatenate(
            [
                np.zeros(config.urban_districts, dtype=np.int8),
                np.ones(config.rural_districts, dtype=np.int8),
            ]
        ),
        config.provinces,
    )
    province_labels = tuple(f"p{index:02d}" for index in range(config.provinces))
    districts = Districts(province=d_province, stratum=d_stratum, province_labels=province_labels)

    # Household placement: urban districts share urban_share of households.
    n_urban = int((d_stratum == 0).sum())
    n_rural = n_districts - n_urban
    district_weight = np.where(
        d_stratum == 0,
        config.urban_share / n_urban,
        (1.0 - config.urban_share) / n_rural,
    )
    district_weight = district_weight / district_weight.sum()

    n_households = max(1, round(config.persons / config.mean_household_size))
    hh_district = _choice(rng, district_weight, n_households).astype(np.int32)
    hh_address = _choice(rng, _ADDRESS_PROBS, n_households).astype(np.int8)
    hh_institutional = rng.random(n_households) < config.institutional_rate
    if hh_institutional.all():
        raise ConfigError("institutional_rate left no ordinary household")

    census_hh = rng.integers(0, n_households, size=config.persons).astype(np.int64, copy=False)
    scope = np.zeros(config.persons, dtype=np.int8)
    scope[rng.random(config.persons) < config.death_rate] = SCOPE_DIED

    pes_hh = census_hh.copy()
    pes_hh[scope == SCOPE_DIED] = -1

    movable = (scope == SCOPE_IN) & ~hh_institutional[census_hh]
    mover = movable & (rng.random(config.persons) < config.mover_rate)
    mover_idx = np.nonzero(mover)[0]
    forms_new = rng.random(mover_idx.shape[0]) < config.new_household_rate

    new_count = int(forms_new.sum())
    if new_count:
        new_district = _choice(rng, district_weight, new_count).astype(np.int32)
        new_address = _choice(rng, _ADDRESS_PROBS, new_count).astype(np.int8)
        hh_district = np.concatenate([hh_district, new_district])
        hh_address = np.concatenate([hh_address, new_address])
        hh_institutional = np.concatenate([hh_institutional, np.zeros(new_count, dtype=bool)])
        pes_hh[mover_idx[forms_new]] = n_households + np.arange(new_count)

    joiners = mover_idx[~forms_new]
    ordinary = np.nonzero(~hh_institutional[:n_households])[0]
    if joiners.shape[0]:
        destination = ordinary[rng.integers(0, ordinary.shape[0], size=joiners.shape[0])]
        stuck = destination == census_hh[joiners]
        while stuck.any():
            destination[stuck] = ordinary[rng.integers(0, ordinary.shape[0], size=int(stuck.sum()))]
            stuck = destination == census_hh[joiners]
        pes_hh[joiners] = destination

    n_births = int(rng.binomial(config.persons, config.birth_rate)) if config.birth_rate else 0
    if n_births:
        ordinary_all = np.nonzero(~hh_institutional)[0]
        born_hh = ordinary_all[rng.integers(0, ordinary_all.shape[0], size=n_births)]
        census_hh = np.concatenate([census_hh, np.full(n_births, -1, dtype=np.int64)])
        pes_hh = np.concatenate([pes_hh, born_hh.astype(np.int64)])
        scope = np.concatenate([scope, np.full(n_births, SCOPE_BORN, dtype=np.int8)])

    n_total = census_hh.shape[0]
    sex = rng.integers(0, 2, size=n_total).astype(np.int16)
    age = rng.integers(0, config.age_groups, size=n_total).astype(np.int16)
    post_stratum = (sex * config.age_groups + age).astype(np.int16)
    stratum_labels = tuple(
        f"{sex_label}_a{band}"
        for sex_label in ("m", "f")
        for band in range(config.age_groups)
    )
    propensity = rng.standard_normal(n_total)

    households = Households(
        district=hh_district,
        address_type=hh_address,
        institutional=hh_institutional,
    )
    return Population(
        census_household=census_hh,
        pes_household=pes_hh,
        post_stratum=post_stratum,
        scope=scope,
        propensity=propensity,
        households=households,
        districts=districts,
        stratum_labels=stratum_labels,
    )


def _capture_logits(
    pop: Population,
    base: np.ndarray,
    probs: CaptureProbabilities,
    census_missed: np.ndarray | None = None,
) -> np.ndarray:
    """Per person, the logit of the post-stratum `base` probability, plus
    the heterogeneity-scaled shared propensity, minus `dependence` where
    `census_missed` is set.

    The logit is taken per post-stratum and gathered after, and the sum is
    built in place; each entry is the same sum of the same terms.
    """
    ps = pop.post_stratum.astype(np.intp)  # gathers with an intp index are fastest
    logits = probs.heterogeneity[ps]
    logits *= pop.propensity
    logits += _logit(base)[ps]
    if census_missed is not None:
        penalty = probs.dependence[ps]
        penalty *= census_missed
        logits -= penalty
    return logits


def simulate_census(
    pop: Population,
    probs: CaptureProbabilities,
    ee_rate: float = 0.0,
    ii_rate: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
    listed_nonresponse_rate: float = 0.0,
) -> CensusSim:
    """Capture pass one.

    Each census-scope person is captured independently with the
    post-stratum probability on the heterogeneity-shifted logit scale.
    With probability ee_rate a person sources an erroneous record: a
    duplicate when the person was captured, a fabricated record in their
    household otherwise.  Captured persons' records are whole-person
    imputations with probability ii_rate.  Households listed without a
    questionnaire (rate `listed_nonresponse_rate`) yield no person records
    at all.
    """
    for name, rate in (
        ("ee_rate", ee_rate),
        ("ii_rate", ii_rate),
        ("listed_nonresponse_rate", listed_nonresponse_rate),
    ):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"{name} must lie in [0, 1), got {rate}")
    if probs.census.shape[0] != pop.n_post_strata:
        raise ConfigError("capture arrays do not cover the population's post-strata")

    rng = np.random.default_rng(seed)
    n = pop.size
    n_hh = pop.households.count
    p_capture = _sigmoid(_capture_logits(pop, probs.census, probs))

    eligible = pop.scope != SCOPE_BORN
    home = pop.census_home()

    noq_hh = (
        rng.random(n_hh) < listed_nonresponse_rate
        if listed_nonresponse_rate
        else np.zeros(n_hh, dtype=bool)
    )
    responding_home = ~noq_hh[home]

    captured = (rng.random(n) < p_capture) & eligible & responding_home
    imputed = captured & (rng.random(n) < ii_rate) if ii_rate else np.zeros(n, dtype=bool)
    if ee_rate:
        erroneous = (rng.random(n) < ee_rate) & eligible & responding_home
        duplicated = erroneous & captured
        fab_person = np.nonzero(erroneous & ~captured)[0]
    else:
        duplicated = np.zeros(n, dtype=bool)
        fab_person = np.zeros(0, dtype=np.int64)

    has_records = np.zeros(n_hh, dtype=bool)
    has_records[home[captured]] = True
    has_records[home[fab_person]] = True

    hh_status = np.full(n_hh, CEN_NOT_LISTED, dtype=np.int8)
    hh_status[has_records] = CEN_WITH_Q
    hh_status[noq_hh & pop.occupied_at_census()] = CEN_WITHOUT_Q
    return CensusSim(
        captured=captured,
        imputed=imputed,
        duplicated=duplicated,
        fab_person=fab_person,
        hh_status=hh_status,
    )


def simulate_pes(
    pop: Population,
    census: CensusSim,
    probs: CaptureProbabilities,
    seed: int | np.random.SeedSequence = 0,
    proxy_miss: float = 0.0,
    absent_rate: float = 0.0,
    unlisted_rate: float = 0.0,
) -> PesSim:
    """Capture pass two.

    A person's survey logit is the post-stratum base, plus the shared
    propensity, minus `dependence` when the census missed them.  The same
    draws serve every mover procedure, so procedure comparisons on one
    world are paired: the census-time roster, the survey-time roster and
    their union see identical capture events.

    Household-level nonresponse: occupied households are temporarily
    absent with `absent_rate` and missed by the listing with
    `unlisted_rate`; vacated dwellings are missed with `unlisted_rate`,
    otherwise proxies remain reachable.
    """
    for name, rate in (
        ("proxy_miss", proxy_miss),
        ("absent_rate", absent_rate),
        ("unlisted_rate", unlisted_rate),
    ):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"{name} must lie in [0, 1), got {rate}")
    if absent_rate + unlisted_rate >= 1.0:
        raise ConfigError("absent_rate + unlisted_rate must stay below 1")
    if probs.pes.shape[0] != pop.n_post_strata:
        raise ConfigError("capture arrays do not cover the population's post-strata")

    rng = np.random.default_rng(seed)
    n = pop.size
    n_hh = pop.households.count
    logits = _capture_logits(pop, probs.pes, probs, census_missed=~census.captured)
    listed = rng.random(n) < _sigmoid(logits)
    proxy_ok = rng.random(n) >= proxy_miss if proxy_miss else np.ones(n, dtype=bool)

    pes_occupied = _occupied(pop.pes_household, n_hh)

    roll = rng.random(n_hh)
    hh_status = np.full(n_hh, PES_WITH_Q, dtype=np.int8)
    hh_status[roll < absent_rate + unlisted_rate] = PES_NOT_LISTED
    hh_status[roll < absent_rate] = PES_ABSENT
    vacant = ~pes_occupied
    hh_status[vacant] = PES_VACANT
    hh_status[vacant & (roll < unlisted_rate)] = PES_VACANT_MISSED
    return PesSim(listed=listed, proxy_ok=proxy_ok, hh_status=hh_status)


def group_labels(pop: Population, level: str) -> tuple[str, ...]:
    """Group labels for an estimation level."""
    if level == "national":
        return ("all",)
    if level == "post_stratum":
        return pop.stratum_labels
    if level == "province_stratum":
        labels = []
        for province in pop.districts.province_labels:
            for stratum in ("urban", "rural"):
                labels.append(f"{province}/{stratum}")
        return tuple(labels)
    raise ConfigError(f"unknown grouping level {level!r}")


def person_groups(pop: Population, level: str) -> np.ndarray:
    """Group index per person at an estimation level."""
    if level == "national":
        return np.zeros(pop.size, dtype=np.int32)
    if level == "post_stratum":
        return pop.post_stratum.astype(np.int32)
    if level == "province_stratum":
        districts = pop.districts
        key = districts.province.astype(np.int32) * 2 + districts.stratum
        return key[pop.home_district()]
    raise ConfigError(f"unknown grouping level {level!r}")


def ground_truth_ledger(
    pop: Population,
    census: CensusSim,
    level: str = "national",
) -> dict[str, GroundTruthLedger]:
    """Exact per-group ledgers from the world itself.

    All quantities are target-scope: persons and records in institutional
    households are outside the survey universe and excluded throughout.
    Persons are counted by class in one pass: outside the target, target
    missed, target captured, target captured with a duplicate record (a
    duplicate always belongs to a captured person).
    """
    labels = group_labels(pop, level)
    groups = person_groups(pop, level)
    n_groups = len(labels)
    target = pop.in_target()

    # Class codes 0..3 in the order above, computed on the flags as int8.
    klass = target.view(np.int8) * (
        1 + census.captured.view(np.int8) + census.duplicated.view(np.int8)
    )
    counts = np.bincount(groups * 4 + klass, minlength=4 * n_groups).reshape(n_groups, 4)
    fab_target = census.fab_person[target[census.fab_person]]
    fabrications = np.bincount(groups[fab_target], minlength=n_groups)
    true_total = counts[:, 1:].sum(axis=1)
    captured = counts[:, 2] + counts[:, 3]
    undercount = true_total - captured
    overcount = counts[:, 3] + fabrications
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
