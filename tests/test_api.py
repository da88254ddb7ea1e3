"""The public surface: exported names resolve, error classes are raised."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import covlab
from covlab import errors


@pytest.mark.parametrize("module", [
    "covlab", "covlab.ds_core", "covlab.estimators", "covlab.matching", "covlab.sampling",
    "covlab.popsim", "covlab.harness", "covlab.harness.config", "covlab.harness.experiment",
    "covlab.harness.ingest",
])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    missing = [name for name in namespace.__all__ if not hasattr(namespace, name)]
    assert missing == []


def test_every_error_class_is_raised_somewhere():
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in Path(covlab.__file__).parent.rglob("*.py")
    )
    classes = [
        name for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.CoverageLabError)
        and value is not errors.CoverageLabError
    ]
    assert classes
    unraised = [name for name in classes if not re.search(rf"\braise {name}\b", source)]
    assert unraised == []
