"""The benchmark's tracer (`perfbench/tracing.py`) patches `lipsets`
functions and methods by name, so a rename or deletion here would break
`python3 perfbench/run.py --trace 1`.  It also reads some results, in its
`Tracer._observe_*` readers, so a change to a result's shape would break
the same run.  The tracer's source is read, not imported, so that nothing
is written under `perfbench/`."""

import importlib
import types
from fractions import Fraction
from pathlib import Path

from lipsets.constructions import small_lip_blocks
from lipsets.density import UDTWitness, one_sided_measure
from lipsets.envelopes import Envelope, envelope_flatten, envelope_refine
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear
from lipsets.udt import build_udt_lip1, fat_cantor_system

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
F = Fraction


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


def _tiny_calls() -> dict:
    """traced name -> (function, args): one tiny call for each reader."""
    window = Interval(F(0), F(1))
    E = IntervalSet([window])
    tube = Envelope(PiecewiseLinear.constant(0, window), PiecewiseLinear.constant(F(1, 4), window))
    segment = (F(1, 4), F(3, 4))
    witness = UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))
    return {
        "envelopes.flatten": (envelope_flatten,
                              (tube, E, IntervalSet.empty(), F(1, 2), F(1, 4), segment)),
        "envelopes.refine": (envelope_refine, (tube, E, F(1, 2), F(1, 4), segment)),
        "constructions.small_lip_blocks": (small_lip_blocks, (E, F(1, 4), window)),
        "udt.build": (build_udt_lip1, (fat_cantor_system(1), witness, 1)),
        "density.one_sided_measure": (one_sided_measure, (E, F(1, 2), F(1, 4), "left")),
    }


def test_every_result_reader_reads_a_real_result():
    tracing = _load_tracing()
    tracer = tracing.Tracer({})
    readers = {name: getattr(tracer, "_observe_" + name.replace(".", "_"))
               for name, _, _ in tracing.TRACED
               if hasattr(tracer, "_observe_" + name.replace(".", "_"))}
    calls = _tiny_calls()
    assert set(readers) == set(calls)
    # the ratio reader counts only calls made under a membership span
    tracer._stack.append([0.0, 0.0, "density.membership", 0])
    results = {}
    for name, read in readers.items():
        fn, args = calls[name]
        results[name] = fn(*args)
        read(results[name], args)
    assert tracer.counts == {
        "envelopes.flatten.components": 0,
        "envelopes.refine.blocks": results["envelopes.refine"].blocks,
        "constructions.small_lip_blocks.blocks": 4,
        "constructions.small_lip_blocks.blocks_with_mass": 4,
        "density.ratio_evals": 1,
    }
    assert tracer.maxima["udt.max_stage_breakpoints"] == 468
    assert tracer.maxima["udt.max_denominator_bits"] == 20
