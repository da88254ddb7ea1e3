"""The public surface: exported names resolve, error classes are raised, and
the names the benchmark imports and hooks exist."""

import ast
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



_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_imports_and_hooks_resolve():
    # The benchmark reads the package from outside: a name it imports or
    # hooks that is gone breaks its report, so pin both here.
    missing, hooks = [], None
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("covlab"):
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "HOOKS":
                hooks = ast.literal_eval(node.value)
    assert hooks
    for module_name, names in hooks.items():
        module = importlib.import_module(module_name)
        missing += [f"HOOKS: {module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
