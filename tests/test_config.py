"""The config boundary: one field check for configs built in Python and read
from JSON.

Every malformed config, however it was made, must fail with a `ConfigError`
that names the offending key (dotted inside a nested object, as
`population.persons`); every config that loads must survive
`load_config(dump_config(c))` unchanged.
"""

import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covlab.errors import ConfigError, Range
from covlab.harness import ExperimentConfig, SampleSpec, dump_config, load_config
from covlab.matching import MatchErrorModel
from covlab.popsim import CaptureProbabilities, PopulationConfig
from test_golden_outputs import LOCKED

# Where each nested config class sits in an ExperimentConfig.
_NESTED = {"population": PopulationConfig, "errors": MatchErrorModel, "sample": SampleSpec}


def _names(message, key):
    """Whether `message` names `key` itself, not a longer or nested key."""
    return re.search(rf"(?<![\w.]){re.escape(key)}\b", message) is not None


def _round_trips(config, tmp_path):
    path = tmp_path / "config.json"
    dump_config(config, str(path))
    return load_config(str(path)) == config


@pytest.mark.parametrize("cls, kwargs, named", [
    (ExperimentConfig, {"replicates": "3"}, "replicates"),
    (ExperimentConfig, {"capture_census": "0.9"}, "capture_census"),
    (ExperimentConfig, {"grouping": "national"}, "grouping"),
    (ExperimentConfig, {"workers": 2.5}, "workers"),
    (ExperimentConfig, {"replicates": True}, "replicates"),
    (ExperimentConfig, {"name": 5}, "name"),
    (ExperimentConfig, {"with_in_mover_matching": "yes"}, "with_in_mover_matching"),
    (ExperimentConfig, {"errors": None}, "errors"),
    (ExperimentConfig, {"population": {"persons": 10}}, "population"),
    (ExperimentConfig, {"sample": {"psus_per_stratum": 1}}, "sample"),
    (ExperimentConfig, {"base_seed": 2**63}, "base_seed"),
    (PopulationConfig, {"persons": 1000.5}, "persons"),
    (PopulationConfig, {"persons": "10"}, "persons"),
    (PopulationConfig, {"age_groups": True}, "age_groups"),
    (PopulationConfig, {"persons": 10**30}, "persons"),
    (PopulationConfig, {"rural_districts": 0}, "rural_districts"),
    (SampleSpec, {"urban_take": 2.5}, "urban_take"),
    (SampleSpec, {"rural_take": 0}, "rural_take"),
    (MatchErrorModel, {"false_match": "0.1"}, "false_match"),
    # A repeated name repeats every estimate row of a replicate, which
    # doubles `replicates` and `valid` and understates `sd` and `mc_se`;
    # an empty list estimates nothing.
    (ExperimentConfig, {"procedures": ("a", "a")}, "procedures"),
    (ExperimentConfig, {"grouping": ("national", "national")}, "grouping"),
    (ExperimentConfig, {"f30_placements": ["omitted", "numerator", "omitted"]}, "f30_placements"),
    (ExperimentConfig, {"grouping": ()}, "grouping"),
    (ExperimentConfig, {"procedures": (), "f30_placements": ()}, "procedures"),
    # Survey and census rates fail at load, not when the first replicate runs.
    (ExperimentConfig, {"ee_rate": 5.0}, "ee_rate"),
    (ExperimentConfig, {"ii_rate": 1.0}, "ii_rate"),
    (ExperimentConfig, {"listed_nonresponse_rate": -0.01}, "listed_nonresponse_rate"),
    (ExperimentConfig, {"proxy_miss": -0.1}, "proxy_miss"),
    (ExperimentConfig, {"absent_rate": 1.0}, "absent_rate"),
    (ExperimentConfig, {"unlisted_rate": math.nan}, "unlisted_rate"),
    (ExperimentConfig, {"absent_rate": 0.6, "unlisted_rate": 0.4}, "absent_rate"),
    (ExperimentConfig, {"absent_rate": 0.6, "unlisted_rate": 0.4}, "unlisted_rate"),
])
def test_config_built_in_python_is_checked_like_json(cls, kwargs, named):
    with pytest.raises(ConfigError) as excinfo:
        cls(**kwargs)
    assert _names(str(excinfo.value), named), str(excinfo.value)


# Every float field of the config classes, and every field of
# CaptureProbabilities, which holds the four numbers of the capture model.
_FLOAT_FIELDS = [
    (cls, item.name)
    for cls in (PopulationConfig, MatchErrorModel, ExperimentConfig)
    for item in dataclasses.fields(cls)
    if typing.get_type_hints(cls)[item.name] is float
] + [(CaptureProbabilities, item.name) for item in dataclasses.fields(CaptureProbabilities)]


# The fields a config class has no default for.
_REQUIRED = {CaptureProbabilities: {"census": 0.9, "pes": 0.9}}


@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5"])
def test_float_fields_reject_non_finite_values_and_strings(cls, name, value):
    with pytest.raises(ConfigError, match=rf"^{name} "):
        cls(**{**_REQUIRED.get(cls, {}), name: value})


# Every field of the five config classes that declares a range or words in
# its annotation, with that annotation.
_RULED = [
    (cls, name, kind)
    for cls in (PopulationConfig, CaptureProbabilities, MatchErrorModel, SampleSpec,
                ExperimentConfig)
    for name, kind in typing.get_type_hints(cls, include_extras=True).items()
    if typing.get_origin(kind) in (typing.Annotated, typing.Literal)
    or (typing.get_origin(kind) is tuple
        and typing.get_origin(typing.get_args(kind)[0]) is typing.Literal)
]


@pytest.mark.parametrize("cls, name, kind", _RULED)
def test_every_declared_rule_holds(cls, name, kind):
    def build(value):
        return cls(**{**_REQUIRED.get(cls, {}), name: value})

    def refused(value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}\b"):
            build(value)

    if typing.get_origin(kind) is typing.Annotated:
        number, bounds = typing.get_args(kind)
        assert isinstance(bounds, Range)
        for bound, is_open, outward in ((bounds.low, bounds.low_open, -math.inf),
                                        (bounds.high, bounds.high_open, math.inf)):
            if math.isinf(bound):
                continue
            if is_open:
                refused(number(bound))
            else:
                assert getattr(build(number(bound)), name) == bound
            refused(int(bound + math.copysign(1, outward)) if number is int
                    else float(np.nextafter(bound, outward)))
    elif typing.get_origin(kind) is typing.Literal:
        for word in typing.get_args(kind):
            assert getattr(build(word), name) == word
        refused("unknown")
    else:
        words = typing.get_args(typing.get_args(kind)[0])
        assert getattr(build(list(words)), name) == words
        refused(["unknown"])
        refused([words[0], words[0]])


# The largest values a world's index dtypes admit, and one past each: int16
# post-strata, int32 households (each mover may found one), int32
# districts and the int32 count key of `census_counts`.  Only configs are
# built, never a world.
@pytest.mark.parametrize("largest, past", [
    ({"age_groups": 16383}, {"age_groups": 16384}),
    ({"persons": 2**30 - 1, "mean_household_size": 1.0, "mover_rate": 0.1},
     {"persons": 2**30, "mean_household_size": 1.0, "mover_rate": 0.1}),
    ({"persons": 2**31 - 1, "mean_household_size": 1.0},
     {"persons": 2**31, "mean_household_size": 1.0}),
    ({"provinces": 1, "urban_districts": 2**31 - 3}, {"provinces": 1, "urban_districts": 2**31 - 2}),
    ({"provinces": 17_895_697}, {"provinces": 17_895_698}),
])
def test_world_index_bounds_are_exact(largest, past):
    PopulationConfig(**largest)
    with pytest.raises(ConfigError):
        PopulationConfig(**past)


@pytest.mark.parametrize("version", [True, 1.0, 2, "1", None])
def test_schema_version_must_be_the_integer_one(tmp_path, version):
    data = ExperimentConfig().to_json()
    data["schema_version"] = version
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(str(path))


@pytest.mark.parametrize("name", sorted(LOCKED))
def test_locked_configs_round_trip(tmp_path, name):
    assert _round_trips(LOCKED[name], tmp_path)


# Values of every type a field can hold, and of none.
_ANY_VALUE = (
    None, True, False, 0, 3, -1, 2**63, 2.5, math.nan, "x", "national", b"x",
    ["national"], ("a", "a"), [1], {}, {"persons": 10},
    PopulationConfig(), MatchErrorModel(), SampleSpec(), ExperimentConfig(),
)


@pytest.mark.parametrize("cls, name", [
    (cls, item.name)
    for cls in (ExperimentConfig, *_NESTED.values())
    for item in dataclasses.fields(cls)
])
def test_every_field_takes_a_value_of_any_type_or_names_itself(tmp_path, cls, name):
    outer = {nested: key for key, nested in _NESTED.items()}.get(cls)
    for value in _ANY_VALUE:
        try:
            config = cls(**{name: value})
            if outer is not None:
                config = ExperimentConfig(**{outer: config})
        except ConfigError as exc:
            named = name if outer is None else f"{outer}.{name}"
            assert _names(str(exc), name) or _names(str(exc), named), (value, str(exc))
        else:
            assert _round_trips(config, tmp_path), value


# Paths of every key of a config whose nested objects are all present.
_FULL = dataclasses.replace(LOCKED["adjusted-sampled"], errors=MatchErrorModel(false_match=0.1))
_PATHS = sorted(
    [f"{key}.{inner}" for key, value in _FULL.to_json().items() if isinstance(value, dict)
     for inner in value]
    + list(_FULL.to_json())
)

_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.sampled_from([0, 1, 2**63, -(2**63) - 1, 10**400, "national", "a", "adjusted"]),
              st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)

_MUTATION = st.tuples(
    st.sampled_from(["drop", "add", "retype", "nest", "wrap", "move-in", "move-out"]),
    st.sampled_from(_PATHS),
    _JSON_VALUE,
)


def _mutate(data, kind, path, value):
    """Apply one mutation to the JSON object `data` in place and return the
    paths of the keys it touched: none when `path` is not there, the old
    and the new place of a moved key."""
    *parents, key = path.split(".")
    target = data
    for parent in parents:
        target = target.get(parent) if isinstance(target, dict) else None
    if not isinstance(target, dict) or key not in target:
        return []
    if kind == "drop":
        del target[key]
    elif kind == "add":
        target[key + "_extra"] = value
        return [path + "_extra"]
    elif kind == "retype":
        target[key] = value
    elif kind == "nest":
        target[key] = {key: target[key]}
    elif kind == "wrap":
        target[key] = [target[key]]
    elif kind == "move-in" and not parents and isinstance(data.get("population"), dict):
        if key != "population":
            data["population"][key] = data.pop(key)
            return [path, f"population.{key}"]
    elif kind == "move-out" and parents:
        data[key] = target.pop(key)
        return [path, key]
    return [path]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from([*sorted(LOCKED), "full"]),
       mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_config_json_loads_or_names_the_key(tmp_path, base, mutations):
    data = (_FULL if base == "full" else LOCKED[base]).to_json()
    touched = [path for mutation in mutations for path in _mutate(data, *mutation)]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    try:
        config = load_config(str(path))
    except ConfigError as exc:
        assert any(_names(str(exc), key) for key in touched), (touched, str(exc))
    else:
        assert _round_trips(config, tmp_path)
