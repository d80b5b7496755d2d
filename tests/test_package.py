import importlib
import pkgutil

import genieblue


def test_every_exported_name_resolves():
    modules = [genieblue] + [
        importlib.import_module(f"genieblue.{info.name}") for info in pkgutil.iter_modules(genieblue.__path__)
    ]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
    assert all(hasattr(m, "__all__") for m in modules[1:])  # every submodule declares its exports
