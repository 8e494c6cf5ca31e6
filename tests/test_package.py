"""The package's public names and its imports."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import scoretreap


def test_every_exported_name_resolves():
    modules = [scoretreap] + [importlib.import_module(f"scoretreap.{info.name}")
                              for info in pkgutil.iter_modules(scoretreap.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names a stdlib module or the
    package itself: it has no third-party dependency."""
    outside = []
    for path in sorted(pathlib.Path(scoretreap.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "scoretreap":
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert not outside


def test_every_function_the_benchmark_traces_resolves(monkeypatch):
    """The traced benchmark pass wraps functions by name; a rename in the
    package must fail here, not only in that pass."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for name in layers.function_names():
        _, _, raw = layers.resolve(name)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), name
        assert fn.__module__ == f"scoretreap.{name.partition('.')[0]}", name
