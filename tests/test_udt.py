import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.density import UDTWitness
from lipsets.envelopes import PreconditionError
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear, monotone_runs
from lipsets import envelopes, udt
from lipsets.udt import (
    NestedClosedSystem,
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
        assert [len(f.breakpoints) for f in one_stage.stages] == [468]

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
            "97efaffd92cff14749f63735767919cae08138cc50b90d6e1417b605b3eff1bd",
        ]
        assert [_digest(r) for r in one_stage.radii] == [
            "36c79cf09e818bc12b7696ccbde9afa43a6c444c73064b5d88eaa53da53cd801",
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
        assert [len(f.breakpoints) for f in two_stages.stages] == [30, 218]

    def test_stage_and_radius_digests(self, two_stages):
        assert [_digest(f) for f in two_stages.stages] == [
            "a57381c1665af0c936f13c1635da25af64a7fa043c192ff84bad840de0d95462",
            "3976a848c4451acabede87e100c78784f5f95a4febb767c9545bbf07324fc6cb",
        ]
        assert [_digest(r) for r in two_stages.radii] == [
            "f72dd5456df0766da7fa8e8a12863256b8e7771112b6477a669dd9441646b38e",
            "c253402f3b6b7a22b8b8353cde60d2b47954bf7da432326bac27e3a5098def5e",
        ]

    def test_cauchy_step_is_the_sup_norm_of_the_difference(self, two_stages):
        f_prev = PiecewiseLinear.constant(0, two_stages.system.window)
        for f_n, diag in zip(two_stages.stages, two_stages.diagnostics):
            assert diag.cauchy_step == (f_n - f_prev).sup_norm()
            f_prev = f_n

    def test_vicinity_chain_detects_a_stage_leaving_its_tube(self, two_stages):
        f1, f2 = two_stages.stages
        moved = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2.shift(1)),
            two_stages.radii, two_stages.diagnostics,
        )
        assert not moved.vicinity(1).contains(moved.stages[1])
        assert not moved.vicinity_chain_ok()

    def test_vicinity_chain_detects_a_tube_not_inside_the_last(self, two_stages):
        # r_2 = 1 widens U_2 past U_1 while f_2 stays in U_1
        r1, _ = two_stages.radii
        wide = UdtBuildResult(
            two_stages.system, two_stages.witness, two_stages.stages,
            (r1, PiecewiseLinear.constant(1, two_stages.system.window)),
            two_stages.diagnostics,
        )
        assert wide.vicinity(1).contains(wide.stages[1])
        assert not wide.vicinity(2).is_inside(wide.vicinity(1))
        assert not wide.vicinity_chain_ok()

    def test_persistence_detects_a_moved_stage(self, two_stages):
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        moved = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2.shift(F(1, 2 ** 20))),
            two_stages.radii, two_stages.diagnostics,
        )
        assert f2(comp.midpoint) != moved.stages[1](comp.midpoint)
        assert not moved.persistence_ok()

    def test_persistence_detects_a_bump_inside_a_component(self, two_stages):
        # f_2 + a tent that is 0 at both ends of a component of F_1: only
        # the grid points strictly inside the component see it
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        w = two_stages.system.window
        tent = PiecewiseLinear([w.lo, comp.lo, comp.midpoint, comp.hi, w.hi],
                               [0, 0, F(1, 2 ** 20), 0, 0])
        bumped = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2 + tent),
            two_stages.radii, two_stages.diagnostics,
        )
        assert bumped.stages[1](comp.lo) == f1(comp.lo)
        assert bumped.stages[1](comp.hi) == f1(comp.hi)
        assert not bumped.persistence_ok()


def test_builder_never_flattens(monkeypatch, two_stages):
    # f_{n-1} is already flat on F_n, so every stage is one refine: with
    # flatten made to raise, the build is bit-identical to the pinned one
    def no_flatten(*args, **kwargs):
        raise AssertionError("envelope_flatten called")

    monkeypatch.setattr(envelopes, "envelope_flatten", no_flatten)
    assert not hasattr(udt, "envelope_flatten")
    res = build_udt_lip1(fat_cantor_system(2), WITNESS, 2, collar=F(27, 64))
    assert [_digest(f) for f in res.stages] == [_digest(f) for f in two_stages.stages]
    assert [_digest(r) for r in res.radii] == [_digest(r) for r in two_stages.radii]


def test_a_stage_sloped_on_the_next_closed_set_is_rejected():
    # the target [0, 1] meets F_2's new part [1/8, 3/16], where f_1 rises
    # with E: the witness is a segment of f_1 with nonzero slope that
    # meets F_2 with positive length
    F1 = IntervalSet.from_pairs([(F(7, 16), F(9, 16))])
    F2 = F1.union(IntervalSet.from_pairs([(F(1, 8), F(3, 16))]))
    window = Interval(F(0), F(1))
    system = NestedClosedSystem((F1, F2), window, IntervalSet([window]))
    with pytest.raises(PreconditionError, match="not flat") as info:
        build_udt_lip1(system, WITNESS, 2, strict=False)
    seg = info.value.witness
    assert seg == Interval(F(31, 256), F(33, 256))
    f1 = build_udt_lip1(system, WITNESS, 1, strict=False).stages[0]
    assert f1(seg.lo) != f1(seg.hi)
    assert F2.clip(seg).measure() > 0


def test_default_collar_two_stage_build():
    # the only tier-1 build with a 10^4-breakpoint stage; these counts are
    # pinned from the builder that refines f_1 directly
    res = build_udt_lip1(fat_cantor_system(2), WITNESS, 2, strict=False)
    _assert_stage_flags(res)
    assert [len(d.witnesses) for d in res.diagnostics] == [8, 8]
    assert res.persistence_ok()
    assert res.vicinity_chain_ok()
    assert [len(f.breakpoints) for f in res.stages] == [458, 9355]


@pytest.mark.parametrize("fixture", ["one_stage", "two_stages"])
def test_stage_denominators_stay_small(fixture, request):
    # dyadic block ends keep every stage value within 32 denominator bits
    for f in request.getfixturevalue(fixture).stages:
        assert max(v.denominator.bit_length() for v in (*f.breakpoints, *f.values)) <= 32


@pytest.mark.parametrize("fixture, levels, stage, collar", [
    ("one_stage", 1, 1, F(1, 8)), ("two_stages", 2, 2, F(27, 64))])
def test_strict_build_raises_on_a_missing_witness(fixture, levels, stage, collar,
                                                  monkeypatch, request):
    # every fat-Cantor stage realises any witness prefix (its stage targets
    # stay below the zigzag slope 1 - 2^-3n), so the search is made to miss
    # at the given stage: it reports its best ratio but no witness
    search = udt.stage_witness_search
    target = (1 - F(1, 2 ** (2 * stage))) * WITNESS.gammas[stage - 1]

    def missing_search(f, E, x, delta_n, runs, stage_target):
        y, ratio = search(f, E, x, delta_n, runs, stage_target)
        return (None, ratio) if stage_target == target else (y, ratio)

    monkeypatch.setattr(udt, "stage_witness_search", missing_search)
    first = request.getfixturevalue(fixture).diagnostics[stage - 1].witnesses[0]
    with pytest.raises(udt.WitnessSearchError) as info:
        build_udt_lip1(fat_cantor_system(levels), WITNESS, stage, collar=collar)
    err = info.value
    assert (err.stage, err.point, err.best_ratio, err.target) == (
        stage, first.x, first.ratio, target)

    lax = build_udt_lip1(fat_cantor_system(levels), WITNESS, stage, collar=collar,
                         strict=False)
    diag = lax.diagnostics[stage - 1]
    assert not diag.witnesses
    assert diag.witness_failures[0] == (first.x, first.ratio)


@pytest.mark.parametrize("collar", [F(0), F(1, 2), F(3, 4), F(-1, 8)])
def test_collar_outside_zero_to_one_half_is_rejected(collar):
    # a collar of 1/2 or more leaves no segment between the collars, and one
    # of 0 or less puts the segment on the zone's ends
    with pytest.raises(ValueError, match="collar"):
        build_udt_lip1(fat_cantor_system(1), WITNESS, 1, collar=collar)


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
