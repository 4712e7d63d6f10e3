"""The benchmark's tracer rebinds proxichain attributes by name.

``perfbench/tracing.py`` lists the ``(module, attribute)`` pairs it wraps; a
renamed or removed attribute would only show up in the benchmark's own slow
self-test, so this checks the list against the package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, *_ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
