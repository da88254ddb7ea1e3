"""Every config the declarations admit, drawn from the annotations
themselves: it is refused with a `ConfigError` that names a field, or it
runs end to end, and its microdata files read back to the tallies of the
simulation path.

A field's values come from its annotation: a `Range` gives numbers inside
it, closed ends included; a ``Literal`` gives its words; a name list gives
distinct words; a nested config gives an object drawn the same way.  A new
field is drawn without any change here, unless its range is open-ended,
which needs a cap below.
"""

import dataclasses
import json
import math
import re
import tempfile
import types
import typing

from hypothesis import example, given, settings
from hypothesis import strategies as st

from covlab.errors import ConfigError, Range
from covlab.harness import (
    SCHEMA_VERSION,
    ExperimentConfig,
    SampleSpec,
    build_world,
    ingest_microdata,
    run_replicate,
    write_microdata,
)
from covlab.matching import tally_groups
from covlab.popsim import FileLevel, Level, ground_truth_ledger
from oracles import EMPTY_SAMPLE, assert_ingest_equals_tallies, ledger_reference

# The largest value drawn for each field whose range has no upper end.  They
# keep a world at most 3,000 persons in 36 districts, so that 200 configs
# run in Tier-1 in seconds; the dtype bounds of large worlds have their own
# tests in test_config.py, and large worlds run in the benchmark.
CAPS = {
    "base_seed": 2**63 - 1,
    "replicates": 4,
    "workers": 4,
    "persons": 3000,
    "provinces": 3,
    "urban_districts": 6,
    "rural_districts": 6,
    "mean_household_size": 40.0,
    "age_groups": 6,
    "heterogeneity": 4.0,
    "psus_per_stratum": 3,
    "urban_take": 60,
    "rural_take": 60,
}

# A number that declares no range: the dependence knob, a logit shift.
UNRANGED = st.floats(-4.0, 4.0)

# Rules that only a drawn world can check, raised by `build_world`.
BUILD_TIME_RULES = (
    "institutional_rate left no ordinary household",
    "institutional_rate left one ordinary household",
)


def _values(name, kind):
    """Values of the field `name` annotated `kind`, a nested config as the
    JSON object `from_json` takes."""
    origin = typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):  # `SampleSpec | None`
        return st.none() | _values(name, typing.get_args(kind)[0])
    if dataclasses.is_dataclass(kind):
        return _objects(kind)
    if origin is typing.Annotated:
        number, bounds = typing.get_args(kind)
        assert isinstance(bounds, Range), name
        capped = name in CAPS
        assert capped == math.isinf(bounds.high), f"{name}: cap exactly the open-ended ranges"
        high = CAPS[name] if capped else bounds.high
        if number is int:
            return st.integers(bounds.low + bounds.low_open, high - bounds.high_open)
        # Beside Hypothesis's floats, which favour tiny magnitudes, each
        # closed end, where most knobs of a config sit, and the tenths of
        # the range, where the rates a survey meets lie.
        ends = [end for end, is_open in ((bounds.low, bounds.low_open),
                                         (bounds.high, bounds.high_open))
                if not is_open and math.isfinite(end)]
        tenths = [bounds.low + (high - bounds.low) * k / 10 for k in range(1, 10)]
        return st.one_of(st.sampled_from(ends + tenths), st.floats(
            bounds.low, high, exclude_min=bounds.low_open, exclude_max=bounds.high_open))
    if origin is typing.Literal:
        return st.sampled_from(typing.get_args(kind))
    if origin is tuple:
        # An empty list is refused by a rule test_config.py checks; drawn,
        # it would take a third of the examples.
        return st.lists(_values(name, typing.get_args(kind)[0]), min_size=1, unique=True)
    return {bool: st.booleans(), str: st.text(max_size=5), float: UNRANGED}[kind]


def _objects(cls):
    """JSON objects of the config class `cls`, every field drawn."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return st.fixed_dictionaries(
        {item.name: _values(item.name, hints[item.name]) for item in dataclasses.fields(cls)}
    )


def _keys(value, prefix=""):
    """The dotted path of every key of a JSON object."""
    return sorted(path for key, inner in value.items()
                  for path in (_keys(inner, f"{prefix}{key}.") if isinstance(inner, dict)
                               else [prefix + key]))


# Every key of a config's JSON with every nested object present.
KEYS = [key for key in _keys(ExperimentConfig(sample=SampleSpec()).to_json())
        if key != "schema_version"]

# Every field a refusal may name.  `name` is free text under no rule, and
# the word turns up in messages that name other fields.
NAMED = sorted({key.rsplit(".", 1)[-1] for key in KEYS} - {"name"})


def _names_a_field(message):
    return any(re.search(rf"(?<!\w){key}(?!\w)", message) for key in NAMED)


CONFIGS = _objects(ExperimentConfig)


@settings(max_examples=20, deadline=None)
@given(data=CONFIGS)
def test_the_strategy_draws_every_field(data):
    sample = data["sample"] or dataclasses.asdict(SampleSpec())
    assert _keys({**data, "sample": sample}) == KEYS
    assert set(CAPS) <= set(NAMED)


# 200 in Tier-1, and the explore profile's count where that is more.
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(data=CONFIGS)
@example(data=EMPTY_SAMPLE.to_json())
def test_every_declared_config_runs_or_names_a_field(data):
    try:
        config = ExperimentConfig.from_json({**data, "schema_version": SCHEMA_VERSION})
    except ConfigError as exc:
        assert _names_a_field(str(exc)), str(exc)
        return
    assert ExperimentConfig.from_json(json.loads(json.dumps(config.to_json()))) == config
    try:
        bundle = build_world(config, 0)
    except ConfigError as exc:
        assert str(exc).startswith(BUILD_TIME_RULES), str(exc)
        return
    run_replicate(config, 0)

    pop, census = bundle.pop, bundle.census
    for level in typing.get_args(Level):
        truth = ground_truth_ledger(pop, census, level)
        assert truth == ledger_reference(pop, census, level)
        for entry in truth.values():
            assert entry.true_total == entry.census_count + entry.undercount - entry.overcount
            assert entry.undercount >= 0 and entry.overcount >= 0

    with tempfile.TemporaryDirectory() as out:
        write_microdata(out, pop, census, bundle.pes, bundle.result, bundle.household_weight)
        for level in typing.get_args(FileLevel):
            direct = tally_groups(pop, census, bundle.result, level=level,
                                  household_weight=bundle.household_weight)
            assert_ingest_equals_tallies(direct, ingest_microdata(out, level=level))
