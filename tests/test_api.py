"""The public surface: the API lives in the submodules, every function
a benchmark metric counts calls of stays public where the tracer looks, and
every exported function has a caller outside the tests and its own module."""

import ast
import importlib
import inspect
import json
import pkgutil
import types
from pathlib import Path

import netauction

MODULES = sorted(m.name for m in pkgutil.iter_modules(netauction.__path__))
ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# the tracer wraps these on the distribution classes, not as module functions
CLASS_METHODS = {"distributions.quantile", "distributions.cdf", "distributions.pdf"}


def test_top_level_exports_nothing():
    for name in MODULES:
        importlib.import_module(f"netauction.{name}")
    extra = [
        name
        for name, value in vars(netauction).items()
        if name != "__version__"
        and not (name.startswith("__") and name.endswith("__"))
        and not isinstance(value, types.ModuleType)
    ]
    assert extra == []
    assert isinstance(netauction.__version__, str)


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"netauction.{name}")
        missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        assert missing == [], name


def test_benchmark_counted_functions_are_exported():
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    counted = [m[: -len(".calls")] for m in metrics if m.endswith(".calls") and m.count(".") == 2]
    assert counted
    for name in counted:
        if name in CLASS_METHODS:
            continue
        layer, fn = name.split(".")
        module = importlib.import_module(f"netauction.{layer}")
        assert fn in module.__all__, name
        assert callable(getattr(module, fn)), name


def _names_used(path: Path) -> set[str]:
    """Every name, attribute and imported name in a file's code: a word
    in a docstring or a comment is no use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_exported_function_has_a_caller():
    """The API is no wider than the rest of the package, the scripts, the
    acceptance gate and the benchmark use; the oracles and the helpers that
    only tests call live in tests/helpers.py."""
    package = Path(netauction.__file__).parent
    outside = [
        *sorted(ROOT.glob("scripts/*.py")),
        ROOT / "tests" / "test_acceptance.py",
        *sorted(ROOT.glob("perfbench/*.py")),
    ]
    used_outside = set().union(*map(_names_used, outside))
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"netauction.{name}")
        others = [p for p in sorted(package.glob("*.py")) if p.stem != name]
        used = used_outside.union(*map(_names_used, others))
        for attr in getattr(module, "__all__", ()):
            counted = any(m.startswith(f"{name}.{attr}.") for m in metrics)
            if inspect.isfunction(getattr(module, attr)) and attr not in used and not counted:
                unused.append(f"{name}.{attr}")
    assert unused == []
