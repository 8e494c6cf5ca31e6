"""The package's public names and its imports."""

import ast
import importlib
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
