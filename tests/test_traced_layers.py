"""The benchmark's tracer (placebench/tracing.py) rebinds the functions it
lists in LAYERS and raises when one is missing, so a refactor that renames
or nests one of them breaks `placebench/run.py --trace 1`. This reads the
list from the tracer itself and checks every entry."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "placebench" / "tracing.py"


def test_every_traced_layer_is_a_module_level_callable():
    spec = importlib.util.spec_from_file_location("placebench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        f"placement_opt.{module}.{name}"
        for module, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"placement_opt.{module}"), name, None))
    ]
    assert not missing, f"traced functions missing: {missing}"
