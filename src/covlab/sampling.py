"""Two-stage cluster sample of households for a post-enumeration survey.

The design is the config's `SampleSpec`, drawn in district codes.  The
frame is a set of arrays: household ids listed district after district,
and for every district the offset and count of its run in that listing, a
province code and a stratum code (0 urban, 1 rural).

Districts are the primary units: `psus_per_stratum` of them are selected
systematically within each (province, stratum) pair.  Households are the
secondary units: a contiguous run of the district's household listing is
taken, walking the listing in reverse order from a random start and
wrapping around, which mimics an enumerator walking a block
anticlockwise.  Every household in a district then has the same inclusion
probability, and the design weight is the reciprocal of

    p = (n_d / tn_d) * (n_h / tn_h).

A district no larger than the take is taken whole; an empty district is a
unit of size zero and contributes no household.

Household noninterview is repaired by `noninterview_factor`, the one
noninterview rule: the weight of missing households is spread over
interviewed households, in proportion to their weight,

  1. within district x address type;
  2. a cell with missing weight but no interview falls back to its district;
  3. a district with no interview falls back to the national total;
  4. the weight is dropped only when nothing in the sample was interviewed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtLeast1, DesignError, check_fields, check_value

__all__ = [
    "URBAN",
    "RURAL",
    "STRATA",
    "ADDRESS_TYPES",
    "DistrictFrame",
    "SampleSpec",
    "DrawnSample",
    "systematic_indices",
    "select_psus",
    "select_households",
    "selection_probability",
    "draw_sample",
    "noninterview_factor",
]

URBAN = "urban"
RURAL = "rural"
STRATA = (URBAN, RURAL)  # indexed by stratum code

# Indexed by a household's address type code.
ADDRESS_TYPES = ("single_unit", "multi_unit", "other")


@dataclass(frozen=True)
class DistrictFrame:
    """The primary sampling units: district d lists the households
    `households[offset[d]:offset[d] + count[d]]`, in listing order."""

    households: np.ndarray
    offset: np.ndarray
    count: np.ndarray
    province: np.ndarray
    stratum: np.ndarray
    province_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = self.count.shape[0]
        if any(column.shape != (n,) for column in (self.offset, self.province, self.stratum)):
            raise DesignError("offset, count, province and stratum need one entry per district")
        if np.any(self.offset < 0) or np.any(self.count < 0) or np.any(
            self.offset + self.count > self.households.shape[0]
        ):
            raise DesignError("every district's run must lie inside the household listing")
        if not np.isin(self.stratum, (0, 1)).all():
            raise DesignError(f"stratum codes must be 0 ({URBAN}) or 1 ({RURAL})")
        if np.any(self.province < 0) or np.any(self.province >= len(self.province_labels)):
            raise DesignError("province codes must index province_labels")

    @classmethod
    def from_households(
        cls,
        district: np.ndarray,
        province: np.ndarray,
        stratum: np.ndarray,
        province_labels: tuple[str, ...],
    ) -> "DistrictFrame":
        """Households 0..n-1 listed by their `district` code, in id order
        within a district; `province` and `stratum` are per district."""
        n_districts = province.shape[0]
        # A stable sort of codes this narrow runs as a radix sort.
        order = np.argsort(district.astype(np.min_scalar_type(n_districts)), kind="stable")
        count = np.bincount(district, minlength=n_districts)
        return cls(order, np.cumsum(count) - count, count, province, stratum, province_labels)


@dataclass(frozen=True)
class SampleSpec:
    """Two-stage survey sample: whole districts, then a household take.

    `psus_per_stratum` districts are drawn in every (province, stratum)
    pair; takes follow the urban and rural defaults of the field design.
    """

    psus_per_stratum: AtLeast1[int] = 1
    urban_take: AtLeast1[int] = 50
    rural_take: AtLeast1[int] = 100

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class DrawnSample:
    """Drawn household ids in draw order, each with its district code and
    design weight."""

    households: np.ndarray
    district: np.ndarray
    weight: np.ndarray


def systematic_indices(total: int, count: AtLeast1[int], rng: np.random.Generator) -> np.ndarray:
    """Systematic selection of `count` indices out of `total`.

    A random start in [0, step) with step = total / count gives every index
    an inclusion probability of exactly count / total, whether or not the
    step divides evenly.  Index k lies in [k * step, (k + 1) * step); it is
    clipped into the integers of that interval, which a start within
    rounding of `step` would otherwise leave.
    """
    check_value("count", count, AtLeast1[int], DesignError)
    if count > total:
        raise DesignError(f"cannot select {count} units from a frame of {total}")
    step = total / count
    start = rng.uniform(0.0, step)
    k = np.arange(count, dtype=np.int64)
    return np.clip(np.floor(start + step * k).astype(np.int64),
                   k * total // count, ((k + 1) * total - 1) // count)


def select_psus(
    frame: DistrictFrame,
    spec: SampleSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Codes of the districts selected systematically within each
    (province, stratum) pair.

    The pairs are taken provinces in label order, and within a province the
    rural stratum before the urban one: the order of the sorted (label,
    stratum name) pairs.  Frame order within a pair is preserved, so the
    selected districts form an arithmetic progression through the listing.
    """
    labels, wanted = frame.province_labels, spec.psus_per_stratum
    selected = [np.zeros(0, dtype=np.int64)]
    for province in sorted(range(len(labels)), key=labels.__getitem__):
        for stratum in (1, 0):  # "rural" sorts before "urban"
            available = np.flatnonzero((frame.province == province) & (frame.stratum == stratum))
            if wanted > available.shape[0]:
                raise DesignError(
                    f"spec asks for {wanted} districts in {(labels[province], STRATA[stratum])!r} "
                    f"but the frame holds {available.shape[0]}"
                )
            selected.append(available[systematic_indices(available.shape[0], wanted, rng)])
    return np.concatenate(selected)


def select_households(
    frame: DistrictFrame,
    district: int,
    take: AtLeast1[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Contiguous wrap-around run of `take` household ids in reverse
    listing order.

    A district no larger than the take is returned whole, without a draw.
    """
    check_value("take", take, AtLeast1[int], DesignError)
    start = int(frame.offset[district])
    n = int(frame.count[district])
    listing = frame.households[start:start + n]
    if n <= take:
        return listing
    first = int(rng.integers(n))
    return listing[(first - np.arange(take)) % n]


def selection_probability(n_d: AtLeast1[int], tn_d: AtLeast1[int], n_h: AtLeast1[int],
                          tn_h: AtLeast1[int]) -> float:
    """Two-stage inclusion probability (n_d / tn_d) * (n_h / tn_h)."""
    for name, value in (("n_d", n_d), ("tn_d", tn_d), ("n_h", n_h), ("tn_h", tn_h)):
        check_value(name, value, AtLeast1[int], DesignError)
    if n_d > tn_d:
        raise DesignError(f"n_d={n_d} exceeds the district frame tn_d={tn_d}")
    if n_h > tn_h:
        raise DesignError(f"n_h={n_h} exceeds the household listing tn_h={tn_h}")
    return (n_d / tn_d) * (n_h / tn_h)


def draw_sample(
    frame: DistrictFrame,
    spec: SampleSpec,
    seed: int | np.random.SeedSequence,
) -> DrawnSample:
    """Run both stages and attach design weights.

    Deterministic: the same seed, frame and spec reproduce the same sample
    exactly.  All districts are selected before any household, and only
    districts larger than their take consume a household draw.  Short
    districts are taken whole with their true inclusion probability (the
    household factor becomes 1); empty ones contribute nothing.
    """
    rng = np.random.default_rng(seed)
    pair = frame.province.astype(np.int64) * len(STRATA) + frame.stratum
    tn_d = np.bincount(pair)[pair]  # the districts in each district's pair
    selected = select_psus(frame, spec, rng)
    chosen, weight = [], []
    for district in selected.tolist():
        take = spec.rural_take if frame.stratum[district] else spec.urban_take
        households = select_households(frame, district, take, rng)
        chosen.append(households)
        n = int(frame.count[district])
        # An empty district repeats its placeholder weight zero times.
        weight.append(1.0 / selection_probability(
            spec.psus_per_stratum, int(tn_d[district]), len(households), n) if n else math.nan)
    sizes = [len(households) for households in chosen]
    return DrawnSample(
        households=np.concatenate([frame.households[:0], *chosen]),
        district=np.repeat(selected, sizes),
        weight=np.repeat(np.array(weight, dtype=np.float64), sizes),
    )


def noninterview_factor(
    district: np.ndarray,
    address_type: np.ndarray,
    weight: np.ndarray,
    interviewed: np.ndarray,
    missing: np.ndarray,
    n_districts: int,
) -> np.ndarray:
    """Per-household factor that moves the weight of `missing` households
    onto `interviewed` ones.

    All arrays are per household: district code, address type code (an
    index into ADDRESS_TYPES), weight and the two masks.  The rule:

      1. within each district x address type cell, interviewed households
         take the cell's missing weight in proportion to their weight;
      2. a cell with missing weight but no interview falls back to its
         district, spread over the district's interviewed households;
      3. a district with no interview falls back to the national total,
         spread over every interviewed household;
      4. the weight is dropped only when nothing was interviewed.

    So interviewed weight times the factor equals interviewed plus missing
    weight whenever anything was interviewed.  Households that are not
    interviewed keep factor 1.
    """
    factor = np.ones(weight.shape[0], dtype=np.float64)
    if not missing.any():
        return factor

    # District x address type cell of the interviewed and of the missing
    # households; no cell key is built for the households in neither.
    n_types = len(ADDRESS_TYPES)
    district_i = district[interviewed].astype(np.int64)
    key_i = district_i * n_types + address_type[interviewed].astype(np.int64)
    key_m = district[missing].astype(np.int64) * n_types + address_type[missing].astype(np.int64)

    size = n_districts * n_types
    base = np.bincount(key_i, weights=weight[interviewed], minlength=size)
    extra = np.bincount(key_m, weights=weight[missing], minlength=size)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_fine = np.where(base > 0, (base + extra) / np.maximum(base, 1e-300), 1.0)
    factor[interviewed] = f_fine[key_i]

    # Step 2, then step 3 for what no district could take.
    orphan_fine = ~(base > 0) & (extra > 0)
    if orphan_fine.any():
        carry = np.zeros(n_districts, dtype=np.float64)
        np.add.at(carry, np.nonzero(orphan_fine)[0] // n_types, extra[orphan_fine])
        base_d = np.bincount(
            district_i, weights=weight[interviewed] * factor[interviewed],
            minlength=n_districts,
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            f_d = np.where(base_d > 0, (base_d + carry) / np.maximum(base_d, 1e-300), 1.0)
        factor[interviewed] *= f_d[district_i]
        left = carry[base_d == 0].sum()
        if left > 0:
            total = (weight[interviewed] * factor[interviewed]).sum()
            if total > 0:
                factor[interviewed] *= (total + left) / total
    return factor
