"""Experiment configuration: one frozen object, JSON in and out.

A config fully determines an experiment given its base seed; there is no
hidden state, so two runs from the same file are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigError
from ..estimators import F30Placement, Procedure
from ..matching import MatchErrorModel
from ..popsim import PopulationConfig

__all__ = ["SCHEMA_VERSION", "SampleSpec", "ExperimentConfig", "load_config", "dump_config"]

SCHEMA_VERSION = 1

_LEVELS = ("national", "province_stratum", "post_stratum")


@dataclass(frozen=True)
class SampleSpec:
    """Two-stage survey sample: whole districts, then a household take.

    `psus_per_stratum` districts are drawn in every (province, stratum)
    pair; takes follow the urban and rural defaults of the field design.
    """

    psus_per_stratum: int = 1
    urban_take: int = 50
    rural_take: int = 100

    def __post_init__(self) -> None:
        if self.psus_per_stratum < 1:
            raise ConfigError("psus_per_stratum must be at least 1")
        if self.urban_take < 1 or self.rural_take < 1:
            raise ConfigError("household takes must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo coverage experiment needs."""

    name: str = "coverage-experiment"
    base_seed: int = 1385
    replicates: int = 100
    workers: int = 1
    population: PopulationConfig = field(default_factory=PopulationConfig)
    capture_census: float = 0.9
    capture_pes: float = 0.9
    dependence: float = 0.0
    heterogeneity: float = 0.0
    ee_rate: float = 0.0
    ii_rate: float = 0.0
    listed_nonresponse_rate: float = 0.0
    proxy_miss: float = 0.0
    absent_rate: float = 0.0
    unlisted_rate: float = 0.0
    errors: MatchErrorModel = field(default_factory=MatchErrorModel)
    exclusion_mode: str = "sci"
    grouping: tuple[str, ...] = ("national",)
    procedures: tuple[str, ...] = ("a", "b", "c")
    f30_placements: tuple[str, ...] = ("omitted", "numerator", "denominator")
    with_in_mover_matching: bool = True
    sample: SampleSpec | None = None

    def __post_init__(self) -> None:
        for item in dataclasses.fields(self):
            value = getattr(self, item.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{item.name} must be a finite number, got {value!r}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        if self.replicates < 1:
            raise ConfigError("replicates must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not 0.0 < self.capture_census < 1.0 or not 0.0 < self.capture_pes < 1.0:
            raise ConfigError("capture probabilities must lie strictly inside (0, 1)")
        if self.heterogeneity < 0.0:
            raise ConfigError("heterogeneity must be non-negative")
        if self.exclusion_mode not in ("sci", "adjusted"):
            raise ConfigError(f"unknown exclusion_mode {self.exclusion_mode!r}")
        object.__setattr__(self, "grouping", tuple(self.grouping))
        object.__setattr__(self, "procedures", tuple(self.procedures))
        object.__setattr__(self, "f30_placements", tuple(self.f30_placements))
        for kind, names, known in (
            ("grouping level", self.grouping, _LEVELS),
            ("procedure", self.procedures, tuple(p.value for p in Procedure)),
            ("f30 placement", self.f30_placements, tuple(p.value for p in F30Placement)),
        ):
            for name in names:
                if name not in known:
                    raise ConfigError(f"unknown {kind} {name!r}, expected one of {known}")
        if "b" in self.procedures and not self.with_in_mover_matching:
            raise ConfigError("procedure b needs with_in_mover_matching enabled")
        if self.sample is not None:
            for stratum, held in (("urban", self.population.urban_districts),
                                  ("rural", self.population.rural_districts)):
                if self.sample.psus_per_stratum > held:
                    raise ConfigError(
                        f"sample.psus_per_stratum={self.sample.psus_per_stratum} exceeds the "
                        f"{held} {stratum} districts of each province"
                    )

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "base_seed": self.base_seed,
            "replicates": self.replicates,
            "workers": self.workers,
            "population": dataclasses.asdict(self.population),
            "capture_census": self.capture_census,
            "capture_pes": self.capture_pes,
            "dependence": self.dependence,
            "heterogeneity": self.heterogeneity,
            "ee_rate": self.ee_rate,
            "ii_rate": self.ii_rate,
            "listed_nonresponse_rate": self.listed_nonresponse_rate,
            "proxy_miss": self.proxy_miss,
            "absent_rate": self.absent_rate,
            "unlisted_rate": self.unlisted_rate,
            "errors": dataclasses.asdict(self.errors),
            "exclusion_mode": self.exclusion_mode,
            "grouping": list(self.grouping),
            "procedures": list(self.procedures),
            "f30_placements": list(self.f30_placements),
            "with_in_mover_matching": self.with_in_mover_matching,
            "sample": dataclasses.asdict(self.sample) if self.sample else None,
        }
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version!r}, this build reads {SCHEMA_VERSION}"
            )
        kwargs = _checked_fields("", cls, {k: v for k, v in data.items() if k != "schema_version"})
        for key, nested in (("population", PopulationConfig), ("errors", MatchErrorModel),
                            ("sample", SampleSpec)):
            if key in kwargs and not (key == "sample" and kwargs[key] is None):
                kwargs[key] = nested(**_checked_fields(f"{key}.", nested, kwargs[key]))
        for key in ("grouping", "procedures", "f30_placements"):
            if key in kwargs:
                value = kwargs[key]
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise ConfigError(f"{key} must be a list of strings, got {value!r}")
                kwargs[key] = tuple(value)
        return cls(**kwargs)


def _checked_fields(prefix: str, cls: type, data: Any) -> dict[str, Any]:
    """`data` as keyword arguments for `cls`, each scalar of the JSON type
    of the field's default, each float finite and each integer within the
    64-bit range the simulator computes in; nested objects and lists are
    checked by the caller.  Errors name the offending key with its
    `prefix`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.')} must be a JSON object, got {data!r}")
    defaults = cls()
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config keys: {[prefix + key for key in unknown]}")
    for key, value in data.items():
        expected = type(getattr(defaults, key))
        if type(value) is int and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{prefix}{key} is out of the 64-bit integer range, got {value}")
        if expected is bool:
            ok = isinstance(value, bool)
        elif expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{prefix}{key} must be a finite number, got {value!r}")
        elif expected in (int, str):
            ok = isinstance(value, expected) and not isinstance(value, bool)
        else:
            continue
        if not ok:
            raise ConfigError(f"{prefix}{key} must be a JSON {expected.__name__}, got {value!r}")
    return dict(data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, an over-long integer
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return ExperimentConfig.from_json(data)


def dump_config(config: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
