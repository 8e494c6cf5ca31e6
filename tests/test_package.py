"""The package's public names."""

import importlib
import pkgutil

import scoretreap


def test_every_exported_name_resolves():
    modules = [scoretreap] + [importlib.import_module(f"scoretreap.{info.name}")
                              for info in pkgutil.iter_modules(scoretreap.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
