"""Synthetic closed populations and the two capture passes over them.

A world is a set of persons placed in households, households placed in
districts, districts split urban/rural across provinces.  Between census
time and survey time people may move house, die, or be born; the
population is closed otherwise, so every in-mover is the same person as
some out-mover and the national counts agree exactly.

The census pass captures each eligible person independently with one base
probability, then injects the field pathologies that coverage estimation
has to cope with: whole-person imputations (records that count but cannot
be matched), duplicate records, and fabricated records.  The survey pass
captures with its own base probability, modified by two
assumption-violating knobs:

    dependence     log-odds penalty on survey capture after a census miss,
                   so positive values make misses correlate (doubly-missing
                   persons become more common than independence predicts)
    heterogeneity  scale of a per-person propensity shared by both passes,
                   so positive values correlate capture probabilities

The capture model is these four numbers, `CaptureProbabilities`: the two
base probabilities and the two knobs.  Both knobs at zero give independent
homogeneous captures, the model under which dual-system estimation is
exact.  Without heterogeneity the census pass has one capture probability
and the survey pass one per census outcome, each computed once, and the
propensity is never drawn.

All person-level state lives in parallel numpy arrays so that Monte Carlo
replication stays cheap at census-like sizes, and a world holds little
beyond its own arrays.  Uniforms that are compared with a probability as
soon as they are drawn are drawn `DRAW_BLOCK` persons at a time
(`uniform_below`); with PCG64 the blocks hold exactly the values, and
leave the generator in exactly the state, of one call for all persons.  A
probability of 0 draws nothing: PCG64 is advanced past the uniforms
instead, to the same state.  Rates that are 0 and worlds without
institutional households skip the gathers they would make per person, and
the categorical draw's bucket bounds are computed once per weight vector.
The arrays every stage derives from a world -- the propensity, the
households occupied at census time, the target scope and the movers -- are
computed once per `Population`, on first use, and returned read-only: a
caller that needs to change one copies it first.  A world's own person
arrays thus hold 11 bytes per person when it is homogeneous, and 19 once a
heterogeneous capture pass has drawn the propensity.  There is no separate
home array: the household arrays are gathered from directly (see
`Population`).  Household indices are int32, and a gather or scatter by
them over every person casts the index to intp one block at a time
(`gather`, `_occupied`, `census_counts`), which is faster than numpy's own
cast of an int32 index and makes no full-length temporary.  The census
records and target persons of a world are likewise counted once, by kind
and cell (`census_counts`); the ledgers and tallies are sums of those
cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Literal

import numpy as np

from .errors import (
    AtLeast0, AtLeast1, ConfigError, DomainError, Probability, Rate, Share, check_fields,
    check_value,
)

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
    "missed_household_rate",
    "ground_truth_ledger",
    "census_counts",
    "joint_cell",
    "FileLevel",
    "Level",
    "groups",
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

# Kinds of census record, the census file's `kind` column, and the row of
# `census_counts` after them: target persons without a census record.
CENSUS_KINDS = ("person", "imputed", "duplicate", "fabricated")
KIND_PERSON, KIND_IMPUTED, KIND_DUPLICATE, KIND_FABRICATED = range(len(CENSUS_KINDS))
TARGET_MISSED = len(CENSUS_KINDS)

_ADDRESS_PROBS = (0.6, 0.3, 0.1)  # single_unit, multi_unit, other

# Persons per block of a block-wise pass over a world.
DRAW_BLOCK = 1 << 15

_INT16_MAX = int(np.iinfo(np.int16).max)
_INT32_MAX = int(np.iinfo(np.int32).max)


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most `DRAW_BLOCK` items covering `range(n)`."""
    return (slice(start, min(start + DRAW_BLOCK, n)) for start in range(0, n, DRAW_BLOCK))


def uniform_below(rng: np.random.Generator, n: int,
                  threshold: float | Callable[[slice], np.ndarray]) -> np.ndarray:
    """`rng.random(n) < threshold`, drawn one block at a time.

    `threshold` is a number, or a function giving the thresholds of the
    persons in a block.  Each double spends one 64-bit output of the bit
    generator, so the blocks draw the values of one call, in order, and
    leave the generator in the state one call would.  No uniform lies below
    a threshold of 0, so a PCG64 generator is then advanced by n outputs
    instead, its buffered 32-bit half kept as a draw of doubles keeps it;
    other bit generators draw.
    """
    if not callable(threshold) and threshold == 0 and type(rng.bit_generator) is np.random.PCG64:
        state = rng.bit_generator.state
        rng.bit_generator.advance(n)
        # `advance` drops the buffered half, which a draw of doubles keeps.
        advanced = rng.bit_generator.state
        advanced["has_uint32"], advanced["uinteger"] = state["has_uint32"], state["uinteger"]
        rng.bit_generator.state = advanced
        return np.zeros(n, dtype=bool)
    below = np.empty(n, dtype=bool)
    uniform = np.empty(min(n, DRAW_BLOCK))
    for block in blocks(n):
        draws = uniform[:block.stop - block.start]
        rng.random(out=draws)
        np.less(draws, threshold(block) if callable(threshold) else threshold, out=below[block])
    return below


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p) - np.log1p(-p)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below:
    exp(-|x|) is exp(-x) on the first branch and exp(x) on the second, and
    the numerator exp(min(x, 0)) is 1 on the first and exp(x) on the
    second, so each entry takes exactly its branch's operations."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    e += 1.0
    out /= e
    return out


# Buckets of the categorical draw's lookup table, a power of two so that
# a uniform's bucket is exact.
_CHOICE_BUCKETS = 4096
_BUCKET_EDGES = np.arange(_CHOICE_BUCKETS + 1) / _CHOICE_BUCKETS


@functools.lru_cache(maxsize=16)
def _buckets(p: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized cdf of the float64 weights `p` (their bytes), each
    bucket's lowest index and whether a cdf edge crosses the bucket, made
    read-only: the same for every world drawn with these weights."""
    cdf = np.frombuffer(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    lower = cdf.searchsorted(_BUCKET_EDGES[:-1], side="right")
    crossed = lower != cdf.searchsorted(_BUCKET_EDGES[1:], side="left")
    for array in (cdf, lower, crossed):
        array.setflags(write=False)
    return cdf, lower, crossed


def _choice(rng: np.random.Generator, p, size: int) -> np.ndarray:
    """`rng.choice(len(p), size, p=p)`: the same draw, the same indices.

    Generator.choice binary-searches the normalized cdf for each uniform.
    Here a uniform first finds its bucket of [0, 1); every uniform in a
    bucket that no cdf edge crosses has that bucket's index, and only the
    rest are searched.
    """
    cdf, lower, crossed = _buckets(np.asarray(p, dtype=np.float64).tobytes())
    u = rng.random(size)
    bucket = (u * _CHOICE_BUCKETS).astype(np.intp)
    index = lower[bucket]
    search = crossed[bucket]
    index[search] = cdf.searchsorted(u[search], side="right")
    return index


def _memo(derived: dict[str, np.ndarray], name: str, compute: Callable[[], np.ndarray]
          ) -> np.ndarray:
    """`derived[name]`, computed on first use and made read-only."""
    array = derived.get(name)
    if array is None:
        # Made read-only before it is stored: threads that compute it at
        # once each make an equal array, and all return the first stored.
        array = compute()
        array.setflags(write=False)
        array = derived.setdefault(name, array)
    return array


def gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """`values[index]` for an int32 `index` over persons, cast to intp one
    block at a time.  numpy casts a non-intp index entry by entry inside
    its indexing loop, which made a million-person bool gather take about
    twice as long as with an intp index; this takes little longer."""
    out = np.empty(index.shape[0], dtype=values.dtype)
    for block in blocks(index.shape[0]):
        np.take(values, index[block].astype(np.intp), out=out[block])
    return out


def _occupied(household: np.ndarray, n_households: int) -> np.ndarray:
    """Households holding at least one person; -1 marks a person without a
    household and lands in a spare last slot that is dropped."""
    occupied = np.zeros(n_households + 1, dtype=bool)
    for block in blocks(household.shape[0]):
        occupied[household[block].astype(np.intp)] = True
    return occupied[:-1]


@dataclass(frozen=True)
class PopulationConfig:
    """Shape of the synthetic world.

    `persons` is the census-time population size; births are drawn on top
    of it and deaths within it.  Post-strata are sex crossed with
    `age_groups` age bands.
    """

    persons: AtLeast1[int] = 10_000
    provinces: AtLeast1[int] = 2
    urban_districts: AtLeast1[int] = 4
    rural_districts: AtLeast1[int] = 2
    urban_share: Share = 0.7
    # A mean household size below 1 makes more households than persons.
    mean_household_size: AtLeast1[float] = 3.5
    mover_rate: Rate = 0.0
    new_household_rate: Share = 0.3
    birth_rate: Rate = 0.0
    death_rate: Rate = 0.0
    institutional_rate: Rate = 0.0
    age_groups: AtLeast1[int] = 5

    def __post_init__(self) -> None:
        check_fields(self)
        # A mover who does not found a household joins another one.
        if self.n_households < 2 and self.mover_rate and self.new_household_rate < 1.0:
            raise ConfigError(
                f"mover_rate must be 0, or new_household_rate 1, when persons={self.persons} "
                f"and mean_household_size={self.mean_household_size} make one household: "
                "a mover who joins another household needs a second"
            )
        # Every index of a world must fit its dtype: the post-strata in
        # int16; districts, households and the count key of `census_counts`
        # (6 per joint cell) in int32.
        if self.n_post_strata > _INT16_MAX:
            raise ConfigError(f"age_groups must be at most {_INT16_MAX // 2}, got {self.age_groups}")
        districts = self.provinces * (self.urban_districts + self.rural_districts)
        if districts > _INT32_MAX:
            raise ConfigError(
                f"provinces * (urban_districts + rural_districts) must be at most {_INT32_MAX}, "
                f"got {districts}"
            )
        if 6 * self.n_post_strata * 2 * self.provinces > _INT32_MAX:
            raise ConfigError(
                f"provinces * age_groups must be at most {_INT32_MAX // 24}, "
                f"got {self.provinces} * {self.age_groups}"
            )
        # Each mover may found one new household.
        households = self.n_households + (self.persons if self.mover_rate else 0)
        if households > _INT32_MAX:
            raise ConfigError(
                f"persons={self.persons} may make {households} households, more than {_INT32_MAX}"
            )

    @property
    def n_post_strata(self) -> int:
        return 2 * self.age_groups

    @property
    def n_households(self) -> int:
        """Households at census time."""
        return max(1, round(self.persons / self.mean_household_size))


@dataclass(frozen=True)
class CaptureProbabilities:
    """The capture model of both passes: every person's base probability of
    capture by the census and by the survey, and the two knobs that break
    dual-system estimation's assumptions (see the module docstring)."""

    census: Probability
    pes: Probability
    dependence: float = 0.0
    heterogeneity: AtLeast0[float] = 0.0

    def __post_init__(self) -> None:
        check_fields(self)


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
    use, kept for the life of the world and returned read-only.  The
    propensity is one of them: synthesis keeps the generator state its
    last draw would have started from, so a homogeneous world, which never
    reads it, holds 11 bytes per person and draws no normal.

    Household attributes are read per person by gathering with
    `census_household` or `pes_household` directly, through `gather` over
    every person.  A person without a household there (-1) then reads the
    last household, so every such read is paired with
    `census_household >= 0` (equivalently, scope not born) or
    `pes_household >= 0`.
    """

    census_household: np.ndarray   # int32 household index, -1 for persons born later
    pes_household: np.ndarray      # int32 household index, -1 for persons who died
    post_stratum: np.ndarray
    scope: np.ndarray
    households: Households
    districts: Districts
    stratum_labels: tuple[str, ...]
    # The generator state synthesis ends in, which `propensity` draws from.
    propensity_state: dict = field(repr=False, compare=False)
    _derived: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return int(self.scope.shape[0])

    @property
    def n_post_strata(self) -> int:
        return len(self.stratum_labels)

    @property
    def propensity(self) -> np.ndarray:
        """Shared capture propensity, standard normal, one per person: the
        last draw of synthesis, made on first use from a generator rebuilt
        from `propensity_state`, so every read sees the same values."""

        def draw() -> np.ndarray:
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = self.propensity_state
            return rng.standard_normal(self.size)

        return _memo(self._derived, "propensity", draw)

    def occupied_at_census(self) -> np.ndarray:
        """Households with at least one census-time resident, that is a
        person not born later."""
        return _memo(
            self._derived, "occupied_at_census",
            lambda: _occupied(self.census_household, self.households.count),
        )

    def in_target(self) -> np.ndarray:
        """Census target scope: existed at census time, in an ordinary
        (non-institutional) household."""

        def target() -> np.ndarray:
            existed = self.scope != SCOPE_BORN
            if self.households.institutional.any():
                existed &= ~gather(self.households.institutional, self.census_household)
            return existed

        return _memo(self._derived, "in_target", target)

    def household_area(self) -> np.ndarray:
        """Province-stratum of each household, `province * 2 + stratum`."""
        return _memo(
            self._derived, "household_area",
            lambda: (self.districts.province * 2 + self.districts.stratum).astype(np.int32)[
                self.households.district
            ],
        )

    def is_mover(self) -> np.ndarray:
        return _memo(
            self._derived, "is_mover",
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
    _derived: dict[str, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    n_households = config.n_households
    hh_district = _choice(rng, district_weight, n_households).astype(np.int32)
    hh_address = _choice(rng, _ADDRESS_PROBS, n_households).astype(np.int8)
    hh_institutional = uniform_below(rng, n_households, config.institutional_rate)
    if hh_institutional.all():
        raise ConfigError("institutional_rate left no ordinary household")

    # Drawn as int64 and stored as int32: `dtype=np.int32` draws other values.
    census_hh = rng.integers(0, n_households, size=config.persons).astype(np.int32)
    scope = np.zeros(config.persons, dtype=np.int8)
    scope[uniform_below(rng, config.persons, config.death_rate)] = SCOPE_DIED

    pes_hh = census_hh.copy()
    pes_hh[scope == SCOPE_DIED] = -1

    mover = uniform_below(rng, config.persons, config.mover_rate)
    mover &= scope == SCOPE_IN
    if hh_institutional.any():
        mover &= ~gather(hh_institutional, census_hh)
    mover_idx = np.nonzero(mover)[0]
    forms_new = uniform_below(rng, mover_idx.shape[0], config.new_household_rate)

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
        if ordinary.shape[0] < 2:
            raise ConfigError(
                "institutional_rate left one ordinary household, and a mover who joins "
                "another household needs a second"
            )
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
        census_hh = np.concatenate([census_hh, np.full(n_births, -1, dtype=np.int32)])
        pes_hh = np.concatenate([pes_hh, born_hh.astype(np.int32)])
        scope = np.concatenate([scope, np.full(n_births, SCOPE_BORN, dtype=np.int8)])

    # sex * age_groups + age, from every person's sex draw and then every
    # person's age draw.
    n_total = census_hh.shape[0]
    post_stratum = np.empty(n_total, dtype=np.int16)
    for block in blocks(n_total):
        post_stratum[block] = rng.integers(0, 2, size=block.stop - block.start)
    for block in blocks(n_total):
        post_stratum[block] *= config.age_groups
        post_stratum[block] += rng.integers(0, config.age_groups, size=block.stop - block.start)
    stratum_labels = tuple(
        f"{sex_label}_a{band}"
        for sex_label in ("m", "f")
        for band in range(config.age_groups)
    )
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
        households=households,
        districts=districts,
        stratum_labels=stratum_labels,
        propensity_state=rng.bit_generator.state,
    )


def _capture_probability(
    pop: Population,
    base: float,
    probs: CaptureProbabilities,
    census_captured: np.ndarray | None = None,
) -> float | Callable[[slice], np.ndarray]:
    """The capture probability of every person, or a function giving those
    of a block of persons: the sigmoid of the logit of the `base`
    probability, plus the heterogeneity-scaled shared propensity, minus
    `dependence` for the persons the census missed when `census_captured`
    is given.

    Without heterogeneity the propensity term is +-0.0, which leaves each
    logit the base's (minus `dependence` for a census miss): the census
    pass then has one probability and the survey pass one per census
    outcome, and the propensity is never drawn.  Logits and sigmoids are
    taken on arrays, one entry or many, so each probability has the bits
    of the per-person formula's.
    """
    base_logit = _logit(np.array([base]))
    if not probs.heterogeneity:
        if census_captured is None:
            return float(_sigmoid(base_logit)[0])
        hit, miss = _sigmoid(base_logit - [0.0, probs.dependence])
        return lambda block: np.where(census_captured[block], hit, miss)

    def probability(block: slice) -> np.ndarray:
        logits = pop.propensity[block] * probs.heterogeneity
        logits += base_logit
        if census_captured is not None:
            np.subtract(logits, probs.dependence, out=logits, where=~census_captured[block])
        return _sigmoid(logits)

    return probability


def simulate_census(
    pop: Population,
    probs: CaptureProbabilities,
    ee_rate: float = 0.0,
    ii_rate: float = 0.0,
    seed: int | np.random.SeedSequence = 0,
    listed_nonresponse_rate: float = 0.0,
) -> CensusSim:
    """Capture pass one.

    Each census-scope person is captured independently with the census
    base probability on the heterogeneity-shifted logit scale.  With
    probability ee_rate a person sources an erroneous record: a
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
        check_value(name, rate, Rate)

    rng = np.random.default_rng(seed)
    n = pop.size
    n_hh = pop.households.count
    home = pop.census_household

    noq_hh = (
        uniform_below(rng, n_hh, listed_nonresponse_rate)
        if listed_nonresponse_rate
        else np.zeros(n_hh, dtype=bool)
    )
    # Eligible persons of responding households; persons born later read
    # the last household's status, and the scope test drops them.
    responding = pop.scope != SCOPE_BORN
    if listed_nonresponse_rate:
        responding &= ~gather(noq_hh, home)

    captured = uniform_below(rng, n, _capture_probability(pop, probs.census, probs))
    captured &= responding
    imputed = captured & uniform_below(rng, n, ii_rate) if ii_rate else np.zeros(n, dtype=bool)
    if ee_rate:
        erroneous = uniform_below(rng, n, ee_rate)
        erroneous &= responding
        duplicated = erroneous & captured
        fab_person = np.nonzero(erroneous & ~captured)[0]
    else:
        duplicated = np.zeros(n, dtype=bool)
        fab_person = np.zeros(0, dtype=np.int64)

    has_records = np.zeros(n_hh, dtype=bool)
    for block in blocks(n):
        has_records[home[block][captured[block]].astype(np.intp)] = True
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

    A person's survey logit is the survey base logit, plus the shared
    propensity, minus `dependence` when the census missed them.  The same
    draws serve every mover procedure, so procedure comparisons on one
    world are paired: the census-time roster, the survey-time roster and
    their union see identical capture events.

    Household-level nonresponse: occupied households are temporarily
    absent with `absent_rate` and missed by the listing with
    `unlisted_rate`; vacated dwellings are missed with `unlisted_rate`,
    otherwise proxies remain reachable.
    """
    check_value("proxy_miss", proxy_miss, Rate)
    missed = missed_household_rate(absent_rate, unlisted_rate)

    rng = np.random.default_rng(seed)
    n = pop.size
    n_hh = pop.households.count
    listed = uniform_below(
        rng, n, _capture_probability(pop, probs.pes, probs, census_captured=census.captured)
    )
    proxy_ok = ~uniform_below(rng, n, proxy_miss) if proxy_miss else np.ones(n, dtype=bool)

    pes_occupied = _occupied(pop.pes_household, n_hh)

    roll = rng.random(n_hh)
    hh_status = np.full(n_hh, PES_WITH_Q, dtype=np.int8)
    hh_status[roll < missed] = PES_NOT_LISTED
    hh_status[roll < absent_rate] = PES_ABSENT
    vacant = ~pes_occupied
    hh_status[vacant] = PES_VACANT
    hh_status[vacant & (roll < unlisted_rate)] = PES_VACANT_MISSED
    return PesSim(listed=listed, proxy_ok=proxy_ok, hh_status=hh_status)


def missed_household_rate(absent_rate: float, unlisted_rate: float) -> float:
    """The share of occupied households the survey finds absent or misses
    from its listing: one draw decides both, so their sum is a rate too."""
    check_value("absent_rate", absent_rate, Rate)
    check_value("unlisted_rate", unlisted_rate, Rate)
    return check_value("absent_rate + unlisted_rate", absent_rate + unlisted_rate, Rate)


def joint_cell(pop: Population, person: np.ndarray | slice, household: np.ndarray
               ) -> np.ndarray:
    """Joint cell of records of `person` collected at `household`: the
    person's post-stratum crossed with the household's province-stratum
    (`province * 2 + stratum`).  Every grouping level is a union of these
    cells (`groups`)."""
    cell = pop.post_stratum[person].astype(np.int32)
    cell *= 2 * len(pop.districts.province_labels)
    cell += pop.household_area()[household]
    return cell


# The estimation levels, each grouping the joint cells (`groups`).  The
# microdata files carry no province-stratum, so ingest takes a `FileLevel`.
FileLevel = Literal["national", "post_stratum"]
Level = Literal[FileLevel, "province_stratum"]


def groups(pop: Population, level: Level) -> tuple[tuple[str, ...], np.ndarray]:
    """The group labels of an estimation level, and the group of every
    joint cell at it, an index into the labels."""
    check_value("level", level, Level)
    provinces = pop.districts.province_labels
    n_areas = 2 * len(provinces)
    cell = np.arange(pop.n_post_strata * n_areas)
    if level == "national":
        return ("all",), np.zeros_like(cell)
    if level == "post_stratum":
        return pop.stratum_labels, cell // n_areas
    labels = tuple(f"{p}/{stratum}" for p in provinces for stratum in ("urban", "rural"))
    return labels, cell % n_areas


def census_counts(pop: Population, census: CensusSim) -> np.ndarray:
    """Target-scope census records of one world by kind, and the target
    persons without one (row TARGET_MISSED), per joint cell: one pass over
    the persons, kept on `census` read-only.  A captured person's record
    is in scope exactly when the person is in the target, so the tallies'
    census counts and the ledgers are both sums of these cells."""

    def count() -> np.ndarray:
        target = pop.in_target()
        # Target persons by class: 1 missed, 2 captured, 3 imputed, and 4
        # and 5 the last two with a duplicate record (a duplicate always
        # belongs to a captured person); 0 is outside the target.  Counted
        # a block of persons at a time; persons born later read the last
        # household's cell and land in class 0.
        n_cells = pop.n_post_strata * 2 * len(pop.districts.province_labels)
        by_class = np.zeros(6 * n_cells, dtype=np.int64)
        for block in blocks(pop.size):
            klass = target[block].view(np.int8) * (
                1 + census.captured[block].view(np.int8) + census.imputed[block].view(np.int8)
                + 2 * census.duplicated[block].view(np.int8)
            )
            key = joint_cell(pop, block, pop.census_household[block].astype(np.intp))
            key *= 6
            key += klass
            by_class += np.bincount(key, minlength=6 * n_cells)
        by_class = by_class.reshape(n_cells, 6).T
        counts = np.empty((TARGET_MISSED + 1, n_cells), dtype=np.int64)
        counts[KIND_PERSON] = by_class[2] + by_class[4]
        counts[KIND_IMPUTED] = by_class[3] + by_class[5]
        counts[KIND_DUPLICATE] = by_class[4] + by_class[5]
        fab_target = census.fab_person[target[census.fab_person]]
        counts[KIND_FABRICATED] = np.bincount(
            joint_cell(pop, fab_target, pop.census_household[fab_target]), minlength=n_cells
        )
        counts[TARGET_MISSED] = by_class[1]
        return counts

    return _memo(census._derived, "counts", count)


def ground_truth_ledger(
    pop: Population,
    census: CensusSim,
    level: str = "national",
) -> dict[str, GroundTruthLedger]:
    """Exact per-group ledgers from the world itself: integer sums of its
    `census_counts`.

    All quantities are target-scope: persons and records in institutional
    households are outside the survey universe and excluded throughout.
    """
    labels, group = groups(pop, level)
    counts = census_counts(pop, census) @ (group[:, None] == np.arange(len(labels)))
    captured = counts[KIND_PERSON] + counts[KIND_IMPUTED]
    undercount = counts[TARGET_MISSED]
    overcount = counts[KIND_DUPLICATE] + counts[KIND_FABRICATED]
    true_total = captured + undercount
    census_count = captured + overcount

    return {
        labels[g]: GroundTruthLedger(
            true_total=float(true_total[g]),
            census_count=float(census_count[g]),
            undercount=float(undercount[g]),
            overcount=float(overcount[g]),
        )
        for g in range(len(labels))
    }
