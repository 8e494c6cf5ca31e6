"""The package's public names, its imports, and what the benchmark's tracer reads."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import scoretreap
from scoretreap import dynamic
from scoretreap.priorities import RandomStream
from scoretreap.sequences import TraceSpec, gen_sequence


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


def test_em_maps_no_weight_to_a_tier():
    """The block structures take tiers: ``em`` imports nothing from
    ``priorities`` but ``RandomStream``, and the tier rules' arithmetic stays
    with the driver."""
    path = pathlib.Path(scoretreap.__file__).parent / "em.py"
    taken = [alias.name for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("priorities")
             for alias in node.names]
    assert taken == ["RandomStream"]


def test_block_fanout_is_a_plain_int():
    """No config object wraps ``B``: the block structures take it as an int,
    and the package exports no ``*Config`` class."""
    assert [name for name in scoretreap.__all__ if name.endswith("Config")] == []
    assert [name for name in dir(scoretreap) if name.endswith("Config")] == []


def _load_layers(monkeypatch):
    """The benchmark's ``perfbench/layers.py``, loaded without a package."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_function_the_benchmark_traces_resolves(monkeypatch):
    """The traced benchmark pass wraps functions by name; a rename in the
    package must fail here, not only in that pass."""
    layers = _load_layers(monkeypatch)
    for name in layers.function_names():
        _, _, raw = layers.resolve(name)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert callable(fn), name
        assert fn.__module__ == f"scoretreap.{name.partition('.')[0]}", name


def test_the_benchmark_tracer_hooks_agree_with_the_driver_costs(monkeypatch):
    """The traced benchmark pass totals counted costs from what
    ``update_weight``, ``tier_of``, ``Treap.access`` and ``run_dynamic``
    return, and checks them against each other; a change to those return
    shapes must fail here, not only in that pass."""
    layers = _load_layers(monkeypatch)
    seq = gen_sequence(TraceSpec("zipf", n=64, m=600, seed=5))
    tracer = layers.Tracer()
    tracer.install()
    try:
        for scheme, structure in (("interval-set", "treap"), ("past-ws-crude", "tier-forest"),
                                  ("past-ws-crude", "det-forest")):
            dynamic.run_dynamic(seq, scheme, structure, B=4, rng=RandomStream(2))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len(tracer.breakdowns) == 3
    assert metrics["em.TierForestBTreap.update_weight.retier_calls"] > 0
    assert metrics["em.TierForestBTreap.update_weight.rebuild_writes"] > 0
    assert metrics["em.DetScoreForest.update_weight.moves"] > 0
    assert (metrics["em.TierForestBTreap.update_weight.rebuild_writes"]
            == metrics["dynamic.run_dynamic.rebuild_cost"])
    # a tier-forest update re-prioritizes one key of its base treap
    assert (metrics["treap.Treap.update_priority.calls"]
            + metrics["em.DetScoreForest.update_weight.calls"]
            == metrics["dynamic.run_dynamic.update_events"])
    assert metrics["treap.nodes_touched"] == tracer.breakdowns[0][0] > 0
