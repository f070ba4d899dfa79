"""The traced benchmark run wraps msgeom callables by name (bench/spans.py).
A refactor that renames one would silently drop its per-layer metrics, so
every name and every counter argument is checked here."""

import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_layers():
    """LAYERS of bench/spans.py, executed from its text so that nothing
    (not even a bytecode cache) is written under bench/."""
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module.LAYERS


def test_every_layer_resolves_with_its_counter_arguments():
    layers = load_layers()
    assert layers
    for name, (module_name, path, counters) in layers.items():
        owner = importlib.import_module(f"msgeom.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        fn = owner.__dict__.get(attr)
        assert callable(fn), f"{name}: msgeom.{module_name}.{path} is not a callable"
        params = inspect.signature(fn).parameters
        for suffix, (needed, _) in counters.items():
            missing = [p for p in needed if p not in params]
            assert not missing, f"{name}.{suffix}: {missing} not in the signature of {path}"
