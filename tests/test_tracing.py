"""The benchmark's tracer (`perfbench/tracing.py`) patches `lipsets`
functions and methods by name, so a rename or deletion here would break
`python3 perfbench/run.py --trace 1`.  The tracer's source is read, not
imported, so that nothing is written under `perfbench/`."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    assert tracing.TRACED
    for name, module, path in tracing.TRACED:
        owner = importlib.import_module("lipsets." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the tracer reads the attribute from the owner's own namespace
        assert callable(vars(owner).get(attr)), f"{name}: lipsets.{module}.{path} is gone"
