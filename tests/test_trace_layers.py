"""The benchmark tracer's function list names real noonecp callables.

``benchmarks/tracing.py`` patches each ``noonecp.<layer>.<name>`` in its
``LAYERS`` table by looking it up in the home module, so a renamed or
deleted function makes a traced benchmark run raise ``AttributeError``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_noonecp_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_is_a_module_level_callable():
    layers = _layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        home = importlib.import_module(f"noonecp.{layer}")
        for name in names:
            if not callable(getattr(home, name, None)):
                missing.append(f"noonecp.{layer}.{name}")
    assert missing == []
