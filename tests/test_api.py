"""The public surface: the API lives in the submodules, and every function
a benchmark metric counts calls of stays public where the tracer looks."""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import netauction

MODULES = sorted(m.name for m in pkgutil.iter_modules(netauction.__path__))
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
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
