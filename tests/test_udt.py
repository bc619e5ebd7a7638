import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.density import UDTWitness
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear, monotone_runs
from lipsets import udt
from lipsets.udt import (
    UdtBuildResult,
    build_udt_lip1,
    fat_cantor_system,
    quadratic_margin,
    stage_witness_search,
)

from oracles import ref_positive_zone
from strategies import pl_functions, points

F = Fraction

WITNESS = UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))


@pytest.fixture(scope="module")
def one_stage():
    return build_udt_lip1(fat_cantor_system(1), WITNESS, 1)


@pytest.fixture(scope="module")
def two_stages():
    return build_udt_lip1(fat_cantor_system(2), WITNESS, 2, collar=F(27, 64))


def _digest(f):
    """SHA-256 of the exact breakpoint/value pairs, as "x:v" joined by spaces."""
    return hashlib.sha256(" ".join(f"{x}:{v}" for x, v in f.as_pairs()).encode()).hexdigest()


def _assert_stage_flags(res):
    for n, diag in enumerate(res.diagnostics, start=1):
        assert diag.stage == n
        assert diag.contraction_factor == 1 - F(1, 2 ** (3 * n))
        assert diag.contraction_ok
        assert diag.flat_on_closed_ok
        assert diag.radius_zero_on_closed
        assert diag.radius_within_margin
        assert diag.witnesses and not diag.witness_failures
        assert diag.radius_sup <= F(1, 2 ** n)
        # Cauchy step ‖f_n - f_{n-1}‖ <= 2^{1-n}
        assert diag.cauchy_step <= F(2, 2 ** n)


class TestOneStage:
    def test_stage_flags(self, one_stage):
        _assert_stage_flags(one_stage)

    def test_persistence_and_vicinity(self, one_stage):
        assert one_stage.persistence_ok()
        assert one_stage.vicinity_chain_ok()

    def test_breakpoint_count(self, one_stage):
        assert [len(f.breakpoints) for f in one_stage.stages] == [448]

    def test_witness_search_fallback_scans_every_candidate(self, one_stage):
        # an unreachable target forces the fallback: the best ratio over the
        # window ends and every breakpoint and E-endpoint within δ_n of x,
        # ties to the smaller gap, then to the smaller y
        f, E = one_stage.stages[0], one_stage.system.target
        delta_n = WITNESS.deltas[0]
        for region in one_stage.system.complement(1):
            runs = monotone_runs(f, region.lo, region.hi)
            for k in range(1, 8):
                x = region.lo + region.length * F(k, 8)
                lo, hi = max(region.lo, x - delta_n), min(region.hi, x + delta_n)
                cands = sorted(y for y in {lo, hi, *f.breakpoints, *E.endpoints()}
                               if lo <= y <= hi and y != x)
                best = max(cands, key=lambda y: (abs(f(y) - f(x)) / abs(y - x), -abs(y - x)))
                ratio = abs(f(best) - f(x)) / abs(best - x)
                assert stage_witness_search(f, E, x, delta_n, runs, F(10 ** 6)) == (best, ratio)

    def test_witness_search_fallback_reads_e_endpoints(self):
        # on a linear piece every y has the same ratio and the smaller gap
        # wins: E's endpoint 1/2, not a breakpoint of f, is the witness
        f = PiecewiseLinear([0, 1], [0, 1])
        E = IntervalSet.from_pairs([(F(1, 2), 1)])
        y, ratio = stage_witness_search(f, E, F(3, 8), F(1, 4), [(F(0), F(1))], F(2))
        assert (y, ratio) == (F(1, 2), 1)

    def test_stage_and_radius_digests(self, one_stage):
        assert [_digest(f) for f in one_stage.stages] == [
            "537c5ed27c2864f2c5ae9c41023a583681fd97b35a74ec4b52e0461eb610a435",
        ]
        assert [_digest(r) for r in one_stage.radii] == [
            "83d7d9029946894ae4dd550418ea54375bee452db7d5d9d6dd9f7b195be01053",
        ]


def test_refine_is_called_without_the_monotone_hypothesis(monkeypatch):
    # every stage refines a zigzag, which is not monotone from stage 2 on:
    # the builder must waive the refine lemma's monotonicity hypothesis
    calls = []
    refine = udt.envelope_refine

    def recording_refine(*args, **kwargs):
        calls.append(kwargs)
        return refine(*args, **kwargs)

    monkeypatch.setattr(udt, "envelope_refine", recording_refine)
    build_udt_lip1(fat_cantor_system(1), WITNESS, 1)
    assert calls
    assert all(kwargs.get("require_monotone", True) is False for kwargs in calls)


class TestTwoStages:
    def test_stage_flags(self, two_stages):
        _assert_stage_flags(two_stages)

    def test_persistence_and_vicinity(self, two_stages):
        assert two_stages.persistence_ok()
        assert two_stages.vicinity_chain_ok()

    def test_breakpoint_counts(self, two_stages):
        assert [len(f.breakpoints) for f in two_stages.stages] == [30, 210]

    def test_stage_and_radius_digests(self, two_stages):
        assert [_digest(f) for f in two_stages.stages] == [
            "bacf07cb9641da7ef4401c7cf9c0eb26e6a9a3c47b4fb36e10cfb4c0ab592b02",
            "14874d7acb35db23bbbacf60571080b8ed4e7db28cde047806916d61fc76489c",
        ]
        assert [_digest(r) for r in two_stages.radii] == [
            "82e9c5b6b182d8733d9cae58cd6fa02eb03d68bdd19d81b74034ee36d3bc3e65",
            "6796beeef377941b54c8cf1e4d7e7f9837c137c7ed60bcf4cd2b5abc8d2aad89",
        ]

    def test_persistence_detects_a_moved_stage(self, two_stages):
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        moved = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2.shift(F(1, 2 ** 20))),
            two_stages.radii, two_stages.diagnostics,
        )
        assert f2(comp.midpoint) != moved.stages[1](comp.midpoint)
        assert not moved.persistence_ok()


@pytest.mark.parametrize("left_is_f", [False, True])
@pytest.mark.parametrize("right_is_f", [False, True])
@pytest.mark.parametrize(
    "segment, cap",
    [((F(1, 4), F(3, 4)), F(1)), ((F(3, 16), F(1, 2)), F(1, 64)), ((F(9, 64), F(55, 64)), F(1, 8))],
)
def test_quadratic_margin_is_a_positive_minorant(left_is_f, right_is_f, segment, cap):
    region = Interval(F(1, 8), F(7, 8))
    a, b = region.lo, region.hi
    c, d = segment
    q = quadratic_margin(region, segment, left_is_f, right_is_f, cap)
    assert q.domain == region

    f_ends = [p for p, touches_f in ((a, left_is_f), (b, right_is_f)) if touches_f]

    def bound(x):  # min(cap, squared distance to each region end that touches F)
        return min([cap] + [(x - p) ** 2 for p in f_ends])

    grid = [a + k * (b - a) / 192 for k in range(193)]  # the 1/256 grid of [1/8, 7/8]
    for x in sorted({*q.breakpoints, *grid}):
        assert 0 <= q(x) <= bound(x), x
    assert q.restrict(c, d).min_value() > 0
    assert all(q(p) == 0 for p in f_ends)


# values of both signs, with runs of zeros and segments whose ends cancel
signed = st.sampled_from([F(-1, 4), F(-1, 8), F(0), F(0), F(1, 8), F(1, 4)])


@settings(max_examples=200)
@given(pl_functions(max_inner=12, value=signed),
       st.lists(points, min_size=2, max_size=2, unique=True))
def test_positive_zone_reads_breakpoint_values(f, window):
    lo, hi = sorted(window)
    assert udt._positive_zone(f, lo, hi) == ref_positive_zone(f, lo, hi)
