"""Validation branches of the public entry points: each call is rejected
with the named error and message, or returns the named result."""

from fractions import Fraction

import pytest

from lipsets.constructions import (
    TernaryDecomposition,
    balance_point,
    build_lip1_sum,
    check_monotone_conditions,
    check_ternary,
    remark_ternary_example,
    split_into_bounded_shards,
    worst_imbalance,
)
from lipsets.density import (
    DyadicBlocksExample,
    UDTWitness,
    check_strongly_dense_at,
    check_strongly_one_sided_dense_at,
    level_set,
    suggest_udt_witness,
)
from lipsets.envelopes import Envelope, envelope_flatten, envelope_refine, verify_contraction
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import (
    PiecewiseLinear,
    build_phi,
    build_signed_integral,
    integer_grid,
    monotone_runs,
)
from lipsets.udt import build_udt_lip1, fat_cantor_system

F = Fraction
E01 = IntervalSet.from_pairs([(0, 1)])
W01 = Interval(F(0), F(1))
WIDE = Interval(F(-1), F(2))
TERNARY = TernaryDecomposition(E01, IntervalSet.empty(), IntervalSet.empty(), W01)
RAMP = PiecewiseLinear([0, 1], [0, 1])
TUBE = Envelope(PiecewiseLinear.constant(0, W01), PiecewiseLinear.constant(F(1, 4), W01))
WITNESS = UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))

CASES = [
    # constructions
    ("monotone-resolution-0", lambda: check_monotone_conditions(E01, "Lip1", WIDE, 0),
     ValueError, r"resolution must be in \(0,1\)"),
    ("monotone-resolution-1", lambda: check_monotone_conditions(E01, "lip1", WIDE, 1),
     ValueError, r"resolution must be in \(0,1\)"),
    ("ternary-resolution-0", lambda: check_ternary(TERNARY, E01, 0),
     ValueError, r"resolution must be in \(0,1\)"),
    ("ternary-resolution-2", lambda: check_ternary(TERNARY, E01, 2),
     ValueError, r"resolution must be in \(0,1\)"),
    ("imbalance-radius-0", lambda: worst_imbalance(TERNARY, F(1, 2), 0),
     ValueError, "radius must be positive"),
    ("imbalance-radius-negative", lambda: worst_imbalance(TERNARY, F(1, 2), -1),
     ValueError, "radius must be positive"),
    ("remark-n-max-0", lambda: remark_ternary_example(0, WIDE),
     ValueError, "n_max must be >= 1"),
    ("remark-window-at-0", lambda: remark_ternary_example(2, Interval(F(0), F(2))),
     ValueError, r"window must contain \[0, 1\] strictly"),
    ("remark-window-at-1", lambda: remark_ternary_example(2, Interval(F(-1), F(1))),
     ValueError, r"window must contain \[0, 1\] strictly"),
    ("balance-r-equals-s", lambda: balance_point(E01, F(1, 2), F(1, 2), 0, 0),
     ValueError, "need r < s"),
    ("balance-r-above-s", lambda: balance_point(E01, 1, 0, 0, 0),
     ValueError, "need r < s"),
    ("balance-delta-1", lambda: balance_point(E01, 0, 1, 0, 1),
     ValueError, r"delta must be in \[0,1\)"),
    ("balance-delta-negative", lambda: balance_point(E01, 0, 1, 0, F(-1, 2)),
     ValueError, r"delta must be in \[0,1\)"),
    ("lip1-sum-no-parts", lambda: build_lip1_sum([], W01),
     ValueError, "need at least one part"),
    ("shards-max-len-0", lambda: split_into_bounded_shards(E01, 0),
     ValueError, "max_len must be positive"),
    ("shards-max-len-negative", lambda: split_into_bounded_shards(E01, -1),
     ValueError, "max_len must be positive"),
    # density
    ("level-set-resolution-0", lambda: level_set(E01, F(1, 2), F(1, 4), WIDE, 0),
     ValueError, "resolution must be positive"),
    ("level-set-gamma-above-1",
     lambda: level_set(IntervalSet.from_pairs([(0, F(1, 2)), (F(3, 4), 1)]),
                       F(3, 2), F(1, 16), W01, F(1, 64)).approximation,
     None, IntervalSet.empty()),
    ("strongly-dense-grid-with-0", lambda: check_strongly_dense_at(E01, F(1, 4), [0]),
     ValueError, "grid must be positive"),
    ("one-sided-grid-ending-at-0",
     lambda: check_strongly_one_sided_dense_at(E01, F(1, 4), [F(1, 4), 0]),
     ValueError, "grid must be positive"),
    ("suggested-witness-depth-0", lambda: suggest_udt_witness(E01, 0),
     ValueError, "depth must be >= 1"),
    ("witness-unequal-lengths", lambda: UDTWitness((F(1, 2), F(3, 4)), (F(1, 8),)),
     ValueError, "need equally long, nonempty gamma/delta prefixes"),
    ("witness-gamma-0", lambda: UDTWitness((0,), (F(1, 8),)),
     ValueError, r"gammas must lie in \(0,1\)"),
    ("witness-gamma-1", lambda: UDTWitness((1,), (F(1, 8),)),
     ValueError, r"gammas must lie in \(0,1\)"),
    ("witness-deltas-equal", lambda: UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 8))),
     ValueError, "deltas must strictly decrease"),
    ("witness-deltas-rising", lambda: UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 4))),
     ValueError, "deltas must strictly decrease"),
    ("dyadic-blocks-depth-0", lambda: DyadicBlocksExample.build(0),
     ValueError, "depth must be >= 1"),
    ("right-measure-at-0", lambda: DyadicBlocksExample.right_measure_infinite(0),
     None, F(0)),
    # envelopes
    ("refine-segment-at-the-left-end",
     lambda: envelope_refine(TUBE, E01, F(1, 4), F(1, 8), (0, F(1, 2))),
     ValueError, "segment must be strictly inside the domain"),
    ("refine-segment-at-the-right-end",
     lambda: envelope_refine(TUBE, E01, F(1, 4), F(1, 8), (F(1, 2), 1)),
     ValueError, "segment must be strictly inside the domain"),
    ("contraction-factor-float", lambda: verify_contraction(RAMP, E01, 0.5),
     TypeError, "not an exact rational: 0.5"),
    ("contraction-factor-string", lambda: verify_contraction(RAMP, E01, "1/2"),
     None, (F(0), F(1), F(1), F(1, 2))),
    ("flatten-segment-leaves-the-domain",
     lambda: envelope_flatten(TUBE, E01, IntervalSet.empty(), F(1, 4), F(1, 8), (F(1, 2), 2)),
     ValueError, "segment must lie inside the domain"),
    # intervals
    ("interval-set-equals-an-int", lambda: E01 == 1, None, False),
    ("empty-hull", lambda: IntervalSet.empty().hull(), None, None),
    # pcw
    ("pcw-unequal-lengths", lambda: PiecewiseLinear([0, 1], [0]),
     ValueError, "breakpoints and values must have equal length"),
    ("pcw-restrict-outside", lambda: RAMP.restrict(F(1, 2), 2),
     ValueError, "window outside domain"),
    ("pcw-restrict-empty", lambda: RAMP.restrict(F(1, 2), F(1, 2)),
     ValueError, "window must have lo < hi"),
    ("pcw-restrict-reversed", lambda: RAMP.restrict(F(3, 4), F(1, 4)),
     ValueError, "window must have lo < hi"),
    ("pcw-restrict-half-window", lambda: RAMP.restrict(None, F(1, 2)),
     TypeError, "not an exact rational: None"),
    ("pcw-breakpoints-in-floats", lambda: RAMP.breakpoints_in(0.25, 1),
     TypeError, "not an exact rational: 0.25"),
    ("pcw-breakpoints-in-strings", lambda: RAMP.breakpoints_in("1/4", "1"),
     None, [F(1)]),
    ("integer-grid-half-window", lambda: integer_grid((RAMP,), None, F(1, 2)),
     TypeError, "not an exact rational: None"),
    ("integer-grid-empty-window", lambda: integer_grid((RAMP,), F(1, 2), F(1, 2)),
     ValueError, "window must have lo < hi"),
    ("monotone-runs-empty-window", lambda: monotone_runs(RAMP, F(1, 2), F(1, 2)),
     ValueError, "window must have lo < hi"),
    ("signed-integral-basepoint-outside",
     lambda: build_signed_integral(E01, IntervalSet.empty(), 2, W01),
     ValueError, "basepoint outside window"),
    ("phi-of-the-empty-set", lambda: build_phi(IntervalSet.empty()),
     ValueError, "need an explicit window when E is empty"),
    ("phi-of-the-point-0",
     lambda: build_phi(IntervalSet([Interval.point(0)], allow_degenerate=True)).as_pairs(),
     None, ((F(0), F(0)), (F(1), F(0)))),
    # udt
    ("fat-cantor-levels-0", lambda: fat_cantor_system(0),
     ValueError, "levels must be >= 1"),
    ("udt-stages-0", lambda: build_udt_lip1(fat_cantor_system(1), WITNESS, 0),
     ValueError, "stages must be between 1 and the system depth"),
    ("udt-collar-float",
     lambda: build_udt_lip1(fat_cantor_system(1), WITNESS, 1, collar=0.125),
     TypeError, "not an exact rational: 0.125"),
    ("udt-collar-string",
     lambda: build_udt_lip1(fat_cantor_system(1), WITNESS, 1, collar="1/8")
     == build_udt_lip1(fat_cantor_system(1), WITNESS, 1, collar=F(1, 8)),
     None, True),
    ("udt-witness-too-short",
     lambda: build_udt_lip1(fat_cantor_system(3), WITNESS, 3),
     ValueError, "witness exhausted: need a prefix of length >= stages"),
]


@pytest.mark.parametrize("call, error, expected", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_validation(call, error, expected):
    if error is None:
        assert call() == expected
    else:
        with pytest.raises(error, match=f"^{expected}$"):
            call()
