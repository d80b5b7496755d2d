import importlib
import pkgutil
from pathlib import Path

import genieblue
from genieblue import autograd, model


def test_every_exported_name_resolves():
    modules = [genieblue] + [
        importlib.import_module(f"genieblue.{info.name}") for info in pkgutil.iter_modules(genieblue.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
    assert all(hasattr(m, "__all__") for m in modules[1:])  # every submodule declares its exports


def test_benchmark_wrap_targets_exist(monkeypatch):
    """Every name the benchmark's tracer wraps exists; the tracer is read, not installed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    targets = list(tracing.FUNCTIONS) + [(autograd, op) for op in tracing.OPS]
    targets += [(model, "block_forward"), (autograd, "backward")]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in targets if not callable(getattr(mod, attr, None))]
    missing += [
        f"{mod.__name__}.{cls}.{attr}"
        for mod, cls, attr in tracing.METHODS
        if not callable(getattr(getattr(mod, cls, None), attr, None))
    ]
    assert missing == []
