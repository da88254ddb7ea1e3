"""The public surface: exported names resolve, error classes are raised."""

import inspect
import re
from pathlib import Path

import covlab
from covlab import errors


def test_every_exported_name_resolves():
    missing = [name for name in covlab.__all__ if not hasattr(covlab, name)]
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
