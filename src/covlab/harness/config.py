"""Experiment configuration: one frozen object, JSON in and out.

A config fully determines an experiment given its base seed; there is no
hidden state, so two runs from the same file are byte-identical.

One path checks every config, built in Python or read from JSON: each
config class runs `errors.check_fields`, which enforces each field's type
and the range or the words its annotation declares, then its rules across
fields.  `from_json` only adds the schema version, unknown keys and dotted
nested keys.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import Any, Literal

from ..errors import AtLeast0, AtLeast1, ConfigError, Probability, Rate, check_fields
from ..estimators import F30Placement, Procedure
from ..matching import ExclusionMode, MatchErrorModel
from ..popsim import Level, PopulationConfig, missed_household_rate
from ..sampling import SampleSpec

__all__ = ["SCHEMA_VERSION", "SampleSpec", "ExperimentConfig", "load_config", "dump_config"]

SCHEMA_VERSION = 1

_ProcedureName = Literal[tuple(procedure.value for procedure in Procedure)]
_PlacementName = Literal[tuple(placement.value for placement in F30Placement)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo coverage experiment needs."""

    name: str = "coverage-experiment"
    base_seed: AtLeast0[int] = 1385
    replicates: AtLeast1[int] = 100
    workers: AtLeast1[int] = 1
    population: PopulationConfig = field(default_factory=PopulationConfig)
    capture_census: Probability = 0.9
    capture_pes: Probability = 0.9
    dependence: float = 0.0
    heterogeneity: AtLeast0[float] = 0.0
    ee_rate: Rate = 0.0
    ii_rate: Rate = 0.0
    listed_nonresponse_rate: Rate = 0.0
    proxy_miss: Rate = 0.0
    absent_rate: Rate = 0.0
    unlisted_rate: Rate = 0.0
    errors: MatchErrorModel = field(default_factory=MatchErrorModel)
    exclusion_mode: ExclusionMode = "sci"
    grouping: tuple[Level, ...] = ("national",)
    procedures: tuple[_ProcedureName, ...] = ("a", "b", "c")
    f30_placements: tuple[_PlacementName, ...] = ("omitted", "numerator", "denominator")
    with_in_mover_matching: bool = True
    sample: SampleSpec | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        missed_household_rate(self.absent_rate, self.unlisted_rate)
        if not self.grouping:
            raise ConfigError("grouping must name at least one level")
        if not self.procedures and not self.f30_placements:
            raise ConfigError("procedures and f30_placements are both empty")
        if "b" in self.procedures and not self.with_in_mover_matching:
            raise ConfigError("procedure b needs with_in_mover_matching enabled")
        if self.sample is not None:
            for name in ("urban_districts", "rural_districts"):
                held = getattr(self.population, name)
                if self.sample.psus_per_stratum > held:
                    raise ConfigError(
                        f"sample.psus_per_stratum={self.sample.psus_per_stratum} exceeds "
                        f"population.{name}={held}, the districts of each province"
                    )

    def to_json(self) -> dict[str, Any]:
        data = {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(self)}
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in data.items()}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        version = data.get("schema_version")
        # true and 1.0 compare equal to 1 but are not the integer 1.
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {version!r}, this build reads {SCHEMA_VERSION}"
            )
        kwargs = {key: value for key, value in data.items() if key != "schema_version"}
        _reject_unknown_keys(cls, kwargs)
        for key, nested in (("population", PopulationConfig), ("errors", MatchErrorModel),
                            ("sample", SampleSpec)):
            if isinstance(kwargs.get(key), dict):
                _reject_unknown_keys(nested, kwargs[key], prefix=f"{key}.")
                try:
                    kwargs[key] = nested(**kwargs[key])
                except ConfigError as exc:
                    # The message starts with a field name; fields quoted
                    # as `name=value` further on are named in full too.
                    fields = "|".join(field.name for field in dataclasses.fields(nested))
                    message = re.sub(rf"(?<=\s)({fields})=", rf"{key}.\1=", str(exc))
                    raise ConfigError(f"{key}.{message}") from None
        return cls(**kwargs)


def _reject_unknown_keys(cls: type, data: dict[str, Any], prefix: str = "") -> None:
    unknown = sorted(set(data) - {item.name for item in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config keys: {[prefix + key for key in unknown]}")


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
