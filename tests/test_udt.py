import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.density import UDTWitness, level_set_membership, suggest_udt_witness
from lipsets.envelopes import PreconditionError
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear, first_sloped_segment, monotone_runs, pl_max, pl_min
from lipsets import envelopes, udt
from lipsets.udt import (
    NestedClosedSystem,
    UdtBuildResult,
    build_udt_lip1,
    fat_cantor_system,
    quadratic_margin,
    stage_witness_search,
)

from oracles import (
    ref_case_split_candidates, ref_cauchy_step, ref_persistence_ok, ref_positive_zone,
)
from strategies import nested_systems, pl_functions, points

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


def _tent(window, comp):
    """0 off comp, rising to 2^-20 at its midpoint."""
    return PiecewiseLinear([window.lo, comp.lo, comp.midpoint, comp.hi, window.hi],
                           [0, 0, F(1, 2 ** 20), 0, 0])


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

    def test_witness_search_ties(self):
        # f(y) = y has ratio 1 at every y: the smaller gap wins, then the
        # smaller y; a flat f has no witness
        f, E, x, runs = PiecewiseLinear([0, 1], [0, 1]), IntervalSet.empty(), F(1, 2), [(F(0), F(1))]
        dstar = F(1, 4) / 101  # x's case split: min(c - a, b - c, δ_n) = 1/4 with c = 1/4
        assert stage_witness_search(f, E, x, F(1, 2), runs, F(1, 2)) == (x - dstar, 1)
        assert stage_witness_search(f, E, x, F(1, 4), runs, F(2)) == (F(1, 4), 1)
        E = IntervalSet.from_pairs([(F(1, 8), F(5, 8))])
        assert stage_witness_search(f, E, x, F(1, 4), runs, F(2)) == (F(5, 8), 1)
        flat = PiecewiseLinear([0, 1], [F(1, 3), F(1, 3)])
        assert stage_witness_search(flat, E, x, F(1, 4), runs, F(2)) == (None, 0)

    def test_stage_and_radius_digests(self, one_stage):
        assert [_digest(f) for f in one_stage.stages] == [
            "97efaffd92cff14749f63735767919cae08138cc50b90d6e1417b605b3eff1bd",
        ]
        assert [_digest(r) for r in one_stage.radii] == [
            "36c79cf09e818bc12b7696ccbde9afa43a6c444c73064b5d88eaa53da53cd801",
        ]


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
            two_stages.system, two_stages.witness,
            (f1, f2 + PiecewiseLinear.constant(1, f2.domain)),
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
            two_stages.system, two_stages.witness,
            (f1, f2 + PiecewiseLinear.constant(F(1, 2 ** 20), f2.domain)),
            two_stages.radii, two_stages.diagnostics,
        )
        assert f2(comp.midpoint) != moved.stages[1](comp.midpoint)
        assert not moved.persistence_ok()

    def test_persistence_detects_a_bump_inside_a_component(self, two_stages):
        # f_2 + a tent that is 0 at both ends of a component of F_1: only
        # the grid points strictly inside the component see it
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        bumped = UdtBuildResult(
            two_stages.system, two_stages.witness,
            (f1, f2 + _tent(two_stages.system.window, comp)),
            two_stages.radii, two_stages.diagnostics,
        )
        assert bumped.stages[1](comp.lo) == f1(comp.lo)
        assert bumped.stages[1](comp.hi) == f1(comp.hi)
        assert not bumped.persistence_ok()

    def test_persistence_matches_the_all_pairs_check(self, two_stages):
        assert two_stages.persistence_ok() == ref_persistence_ok(two_stages) is True

    def test_persistence_detects_a_broken_tail_witness(self, two_stages):
        # f_2 = the constant f_1 takes on F_1: it agrees with f_1 there, but
        # every stage-1 witness pair has ratio 0 under it
        f1 = two_stages.stages[0]
        comp, = two_stages.system.closed_at(1)
        assert f1(comp.lo) == f1(comp.midpoint) == f1(comp.hi)
        flat = UdtBuildResult(
            two_stages.system, two_stages.witness,
            (f1, PiecewiseLinear.constant(f1(comp.lo), f1.domain)),
            two_stages.radii, two_stages.diagnostics,
        )
        assert two_stages.diagnostics[0].witnesses
        assert flat.persistence_ok() == ref_persistence_ok(flat) is False

    def test_each_stage_walks_its_flatness_once(self, monkeypatch, two_stages):
        # stage 1's flat_on_closed_ok rides on stage 2's precondition walk of
        # f_1 on F_2 ⊇ F_1: the stage walks are the two preconditions and
        # stage 2's own diagnostic; each radius r_n is walked on F_n once
        walk, walked = udt.first_sloped_segment, []

        def counted(f, S):
            walked.append((f, S))
            return walk(f, S)

        monkeypatch.setattr(udt, "first_sloped_segment", counted)
        res = build_udt_lip1(fat_cantor_system(2), WITNESS, 2, collar=F(27, 64))
        F1, F2 = res.system.closed_sets
        on_radius = [any(f is r for r in res.radii) for f, _ in walked]
        assert [S for (_, S), r in zip(walked, on_radius) if not r] == [F1, F2, F2]
        assert [S for (_, S), r in zip(walked, on_radius) if r] == [F1, F2]
        assert [_digest(f) for f in res.stages] == [_digest(f) for f in two_stages.stages]
        assert [_digest(r) for r in res.radii] == [_digest(r) for r in two_stages.radii]
        assert res.diagnostics == two_stages.diagnostics


def _three_stages(two_stages, f2, f3):
    """(f_1, f2, f3) on fat_cantor_system(3), whose F_1 and F_2 are the
    two-stage fixture's; the third stage reuses stage 2's records."""
    system = fat_cantor_system(3)
    assert system.closed_sets[:2] == two_stages.system.closed_sets
    r1, r2 = two_stages.radii
    return UdtBuildResult(system, two_stages.witness, (two_stages.stages[0], f2, f3),
                          (r1, r2, r2),
                          (*two_stages.diagnostics, two_stages.diagnostics[1]))


class TestThreeStages:
    # persistence_ok compares consecutive stages only; on each result below
    # its verdict equals the all-pairs oracle's
    def test_the_stages_unchanged_pass(self, two_stages):
        f2 = two_stages.stages[1]
        res = _three_stages(two_stages, f2, f2)
        assert res.persistence_ok() == ref_persistence_ok(res) is True

    def test_a_tent_on_f1_in_the_last_stage_is_rejected(self, two_stages):
        # f_3 = f_2 + tent moves off f_2 inside a component of F_1 ⊆ F_2:
        # only the last consecutive pair (2, 3) sees it
        f2 = two_stages.stages[1]
        comp = two_stages.system.closed_at(1).intervals[0]
        res = _three_stages(two_stages, f2, f2 + _tent(two_stages.system.window, comp))
        assert res.persistence_ok() == ref_persistence_ok(res) is False

    def test_a_tent_kept_from_stage_two_on_is_rejected(self, two_stages):
        # f_2 = f_3 = f_2 + tent: the pair (2, 3) agrees, (1, 2) does not
        f2 = two_stages.stages[1]
        comp = two_stages.system.closed_at(1).intervals[0]
        bumped = f2 + _tent(two_stages.system.window, comp)
        res = _three_stages(two_stages, bumped, bumped)
        assert res.persistence_ok() == ref_persistence_ok(res) is False


def test_the_last_stage_reads_its_own_flatness_walk(monkeypatch):
    # a slope that only the diagnostic walk of f_1 on F_1 reports: stage
    # 1's flag is False and the lax build still returns; the precondition
    # walk of f_0 and the radius walk of r_1 read the real slopes
    walk, calls = udt.first_sloped_segment, []

    def sloped_after_the_precondition(f, S):
        calls.append((f, S))
        return Interval(F(0), F(1)) if len(calls) == 2 else walk(f, S)

    monkeypatch.setattr(udt, "first_sloped_segment", sloped_after_the_precondition)
    res = build_udt_lip1(fat_cantor_system(1), WITNESS, 1, strict=False)
    assert len(calls) == 3
    assert calls[1][0] is res.stages[0] and calls[2][0] is res.radii[0]
    assert not res.diagnostics[0].flat_on_closed_ok
    assert res.diagnostics[0].radius_zero_on_closed


def test_system_json_round_trip_and_target_check():
    system = fat_cantor_system(2)
    assert NestedClosedSystem.from_json(system.to_json()) == system
    # G_1 = [0, 1/4] ∪ [1/2, 1]: a target inside [0, 1/8] misses [1/2, 1]
    window = Interval(F(0), F(1))
    with pytest.raises(ValueError, match=r"\[1/2, 1\] misses the target"):
        NestedClosedSystem((IntervalSet.from_pairs([(F(1, 4), F(1, 2))]),), window,
                           IntervalSet.from_pairs([(F(0), F(1, 8))]))


def test_closed_sets_leaving_the_window_are_rejected():
    window = Interval(F(0), F(1))
    with pytest.raises(ValueError, match="F_1 leaves the window"):
        NestedClosedSystem((IntervalSet.from_pairs([(F(-1, 4), F(1, 4))]),), window,
                           IntervalSet.from_pairs([(F(1, 4), F(1))]))
    # fat_cantor_system(2) has F_1 = [3/8, 5/8] and F_2 reaching down to 45/256
    obj = fat_cantor_system(2).to_json()
    obj["window"] = ["1/4", "1"]
    with pytest.raises(ValueError, match="F_2 leaves the window"):
        NestedClosedSystem.from_json(obj)


def _assert_strict_builds(system):
    # under the fixed prefix and the suggested witness: every flag, a
    # witness at every sampled point, and both checks
    for witness in (WITNESS, suggest_udt_witness(system.target, system.depth)):
        res = build_udt_lip1(system, witness, system.depth, strict=True)
        _assert_stage_flags(res)
        assert res.persistence_ok()
        assert res.vicinity_chain_ok()


@settings(max_examples=12, deadline=None)
@given(nested_systems(1))
def test_random_one_stage_systems_build_strictly(system):
    _assert_strict_builds(system)


@settings(max_examples=5, deadline=None)
@given(nested_systems(2))
def test_random_two_stage_systems_build_strictly(system):
    _assert_strict_builds(system)


def test_stage_indexes_out_of_range_are_rejected(one_stage):
    system = fat_cantor_system(2)
    assert system.closed_at(0) == IntervalSet.empty()
    assert system.complement(0) == IntervalSet([system.window])
    for n in (-1, 3):
        with pytest.raises(ValueError, match=f"F_{n}"):
            system.closed_at(n)
        with pytest.raises(ValueError, match=f"F_{n}"):
            system.complement(n)
    assert one_stage.vicinity(1).center == one_stage.stages[0]
    for n in (0, -1, 2):
        with pytest.raises(ValueError, match=f"U_{n}"):
            one_stage.vicinity(n)


@pytest.mark.parametrize("fixture", ["one_stage", "two_stages"])
def test_cauchy_step_and_radius_sup_match_fraction_maxima(fixture, request):
    res = request.getfixturevalue(fixture)
    f_prev = PiecewiseLinear.constant(0, res.system.window)
    for f_n, r_n, diag in zip(res.stages, res.radii, res.diagnostics):
        assert diag.cauchy_step == ref_cauchy_step(f_n, f_prev)
        assert diag.radius_sup == max(abs(v) for v in r_n.values)
        f_prev = f_n


def test_read_only_checks_build_no_function(monkeypatch, two_stages):
    # every exact check reads the stages through first_sloped_segment's
    # walk or integer_grid, or on its own integer scale: with every way to
    # build a function made to raise, each still returns its verdict
    def no_build(*args, **kwargs):
        raise AssertionError("a read-only check built a function")

    for name in ("__init__", "_trusted", "restrict"):
        monkeypatch.setattr(PiecewiseLinear, name, no_build)
    E, f2 = two_stages.system.target, two_stages.stages[1]
    U1, U2 = two_stages.vicinity(1), two_stages.vicinity(2)
    for n, (f, diag) in enumerate(zip(two_stages.stages, two_stages.diagnostics), start=1):
        assert envelopes.verify_contraction(f, E, diag.contraction_factor) is None
        assert first_sloped_segment(f, two_stages.system.closed_at(n)) is None
    assert U1.contains(f2) and U2.contains(f2)
    assert U2.is_inside(U1)
    c, d = two_stages.diagnostics[0].active_segments[0]
    assert U1.min_margin_on(f2, c, d) > 0
    assert two_stages.persistence_ok()
    assert two_stages.vicinity_chain_ok()
    f1, (r1, r2) = two_stages.stages[0], two_stages.radii
    assert f2 == f2 and f1 != f2
    assert r2.le(r1) and not r1.le(r2)
    runs = monotone_runs(f2, c, d)
    assert runs[0][0] == c and runs[-1][1] == d and len(runs) > 1


def test_contraction_check_reads_no_cumulative_mass(monkeypatch, two_stages):
    # the off-E pass walks f_2 on E's complement and the steep pass reads
    # f_2's own integers: E's mass is read only to cut a failing segment
    def no_phi(*args, **kwargs):
        raise AssertionError("verify_contraction read IntervalSet.phi_on")

    monkeypatch.setattr(IntervalSet, "phi_on", no_phi)
    E, f2 = two_stages.system.target, two_stages.stages[1]
    factor = two_stages.diagnostics[1].contraction_factor
    assert envelopes.verify_contraction(f2, E, factor) is None


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


def test_nesting_keeps_isolated_points():
    # F_1 = {1/2} lies in F_2 = {1/2} ∪ [1/8, 1/4] though the two sets'
    # intersection, which drops degenerate overlaps, is empty
    window = Interval(F(0), F(1))
    half = IntervalSet([Interval.point(F(1, 2))], allow_degenerate=True)
    F2 = half.union(IntervalSet.from_pairs([(F(1, 8), F(1, 4))]))
    system = NestedClosedSystem((half, F2), window, IntervalSet([window]))
    assert system.closed_at(1) == half and system.closed_at(2) == F2
    # an isolated point of F_1 missing from F_2 still breaks the nesting
    for later in (IntervalSet.from_pairs([(F(1, 8), F(1, 4))]),
                  IntervalSet([Interval.point(F(1, 3))], allow_degenerate=True)):
        with pytest.raises(ValueError, match="nesting violated at stage 2"):
            NestedClosedSystem((half, later), window, IntervalSet([window]))
    # an interval of F_1 must lie whole in F_2: a gap inside it fails
    F1 = IntervalSet.from_pairs([(F(1, 8), F(1, 4))])
    split = IntervalSet.from_pairs([(F(1, 8), F(3, 16)), (F(13, 64), F(1, 4))])
    with pytest.raises(ValueError, match="nesting violated at stage 2"):
        NestedClosedSystem((F1, split), window, IntervalSet([window]))
    with pytest.raises(ValueError, match="nesting violated at stage 3"):
        NestedClosedSystem((half, F2, F1), window, IntervalSet([window]))
    F3 = F2.union(IntervalSet.from_pairs([(F(3, 4), F(1))]))
    assert NestedClosedSystem((F1, F2, F3), window, IntervalSet([window])).depth == 3


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

    first = request.getfixturevalue(fixture).diagnostics[stage - 1].witnesses[0]
    monkeypatch.setattr(udt, "stage_witness_search", missing_search)
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


def test_a_repeated_draw_is_tested_for_membership_once(monkeypatch):
    # every draw of this rng lands on x = 1/2, so the sampler tries the
    # membership of x once and skips the repeats
    class OneDraw:
        def choices(self, population, cum_weights):
            return [population[0]]

        def randint(self, a, b):
            return 32

    tested = []

    def counted(E, x, gamma, delta):
        tested.append(x)
        return level_set_membership(E, x, gamma, delta)

    monkeypatch.setattr(udt, "level_set_membership", counted)
    E = IntervalSet.from_pairs([(0, 1)])
    f = PiecewiseLinear.constant(0, Interval(F(0), F(1)))
    witnesses, failures = udt._stage_witnesses(
        E, 1, F(1, 2), F(1, 8), f, [(Interval(F(0), F(1)), (F(0), F(1)))], OneDraw())
    assert tested == [F(1, 2)]
    assert (witnesses, failures) == ([], [(F(1, 2), 0)])


def test_strict_build_raises_on_a_stage_that_samples_no_level_set_point():
    # the cap's collared zone [3/64, 21/64] in the region [0, 3/8] misses E,
    # so stage 1 refines nothing and samples nothing, though 1/128 is in
    # E^{1/2, 1/128}; only a lax build returns f_1 = 0
    window = Interval(F(0), F(1))
    E = IntervalSet.from_pairs([(0, F(1, 64)), (F(63, 64), 1)])
    system = NestedClosedSystem((IntervalSet.from_pairs([(F(3, 8), F(5, 8))]),), window, E)
    witness = UDTWitness((F(1, 2),), (F(1, 128),))
    assert level_set_membership(E, F(1, 128), F(1, 2), F(1, 128)).member
    with pytest.raises(udt.WitnessSearchError, match="^stage 1: no level-set point sampled$") as info:
        build_udt_lip1(system, witness, 1)
    assert (info.value.stage, info.value.point) == (1, None)

    lax = build_udt_lip1(system, witness, 1, strict=False)
    diag = lax.diagnostics[0]
    assert lax.stages[0].as_pairs() == ((0, 0), (1, 0))
    assert (diag.active_segments, diag.witnesses, diag.witness_failures) == ((), (), ())


def _plateau(window, comp):
    """2^-20 on comp, falling to 0 over ramps of width 2^-10 outside it."""
    ramp = F(1, 2 ** 10)
    return PiecewiseLinear([window.lo, comp.lo - ramp, comp.lo, comp.hi, comp.hi + ramp,
                            window.hi], [0, 0, F(1, 2 ** 20), F(1, 2 ** 20), 0, 0])


@pytest.mark.parametrize("bump, zero_on_closed",
                         [(None, True), (_tent, False), (_plateau, False)])
def test_a_bump_on_the_margin_over_F1_clears_the_radius_flag(monkeypatch, bump,
                                                             zero_on_closed):
    # r_1 <= margin, so a margin bump on F_1 = [3/8, 5/8] lifts r_1 there:
    # the tent is sloped on F_1 and 0 at its ends, the plateau is flat on
    # F_1 and positive at its ends, and each fails one half of the check
    refine = udt._refine_regions

    def bumped(system, *args):
        f_n, margin, active = refine(system, *args)
        if bump is not None:
            (comp,) = system.closed_at(1)
            margin = margin + bump(system.window, comp)
        return f_n, margin, active

    monkeypatch.setattr(udt, "_refine_regions", bumped)
    diag = build_udt_lip1(fat_cantor_system(1), WITNESS, 1).diagnostics[0]
    assert diag.radius_zero_on_closed is zero_on_closed
    assert diag.radius_within_margin


def test_a_region_frozen_by_stage_one_is_skipped(monkeypatch):
    # stage 1 leaves r_1 = 0 on [45/128, 3/8] next to F_1, and F_2 adds
    # [46/128, 47/128] there: stage 2's region [47/128, 3/8] has no
    # positive zone, so f_2 = f_1 = 0 and r_2 = 0 on it, though the target
    # has mass 1/128 there
    zone, zones = udt._positive_zone, []

    def recorded(cap):
        zones.append(zone(cap))
        return zones[-1]

    monkeypatch.setattr(udt, "_positive_zone", recorded)
    window = Interval(F(0), F(1))
    F1 = IntervalSet.from_pairs([(F(3, 8), F(5, 8))])
    F2 = F1.union(IntervalSet.from_pairs([(F(46, 128), F(47, 128))]))
    system = NestedClosedSystem((F1, F2), window, F2.complement_within(window))
    res = build_udt_lip1(system, UDTWitness((F(1, 2), F(3, 4)), (F(1, 128), F(1, 256))), 2)
    _assert_stage_flags(res)
    assert res.persistence_ok() and res.vicinity_chain_ok()
    assert [z is None for z in zones] == [False, False, False, True, False]
    assert (len(system.complement(2)), len(res.diagnostics[1].active_segments)) == (3, 2)
    a, b = F(47, 128), F(3, 8)
    assert res.radii[0].restrict(F(45, 128), b).as_pairs() == ((F(45, 128), 0), (b, 0))
    for g in (*res.stages, res.radii[1]):
        assert g.restrict(a, b).as_pairs() == ((a, 0), (b, 0))
    assert system.target.mass(a, b) == F(1, 128)


@pytest.mark.parametrize("collar", [F(0), F(1, 2), F(3, 4), F(-1, 8)])
def test_collar_outside_zero_to_one_half_is_rejected(collar):
    # a collar of 1/2 or more leaves no segment between the collars, and one
    # of 0 or less puts the segment on the zone's ends
    with pytest.raises(ValueError, match="collar"):
        build_udt_lip1(fat_cantor_system(1), WITNESS, 1, collar=collar)


REGION = Interval(F(1, 8), F(7, 8))


@pytest.mark.parametrize("left_is_f", [False, True])
@pytest.mark.parametrize("right_is_f", [False, True])
@pytest.mark.parametrize(
    "segment, cap",
    [((F(1, 4), F(3, 4)), PiecewiseLinear.constant(1, REGION)),
     ((F(3, 16), F(1, 2)), PiecewiseLinear.constant(F(1, 64), REGION)),
     ((F(9, 64), F(55, 64)), PiecewiseLinear.constant(F(1, 8), REGION)),
     # a cap that is 0 at the left end, peaks inside the segment and binds
     # below the tangents near the right end
     ((F(1, 4), F(3, 4)),
      PiecewiseLinear([F(1, 8), F(1, 2), F(3, 4), F(7, 8)], [0, F(1, 16), F(1, 128), F(1, 256)]))],
)
def test_quadratic_margin_is_a_positive_minorant(left_is_f, right_is_f, segment, cap):
    region = REGION
    a, b = region.lo, region.hi
    c, d = segment
    q = quadratic_margin(region, segment, left_is_f, right_is_f, cap)
    assert q.domain == region

    f_ends = [p for p, touches_f in ((a, left_is_f), (b, right_is_f)) if touches_f]

    def bound(x):  # min(cap(x), squared distance to each region end that touches F)
        return min([cap(x)] + [(x - p) ** 2 for p in f_ends])

    grid = [a + k * (b - a) / 192 for k in range(193)]  # the 1/256 grid of [1/8, 7/8]
    for x in sorted({*q.breakpoints, *cap.breakpoints, *grid}):
        assert 0 <= q(x) <= bound(x), x
    assert q.restrict(c, d).min_value() > 0
    assert all(q(p) == 0 for p in f_ends)


def _margin_by_tangent_envelopes(region, segment, left_is_f, right_is_f, cap):
    """The slow path the closed form replaced: per F-adjacent end p, the
    three tangent lines of (x - p)^2 at c, m and d and their `pl_max`; then
    the cap and those maxima in one `pl_min`, clamped at 0 by a `pl_max`."""
    a, b = region.lo, region.hi
    c, d = segment
    end_maxima = []
    for p, touches_f in ((a, left_is_f), (b, right_is_f)):
        if touches_f:
            lines = [PiecewiseLinear([a, b], [(t - p) * (2 * x - t - p) for x in (a, b)])
                     for t in (c, (c + d) / 2, d)]
            end_maxima.append(pl_max(*lines))
    return pl_max(pl_min(cap, *end_maxima), PiecewiseLinear.constant(0, region))


@st.composite
def margin_cases(draw):
    # a <= c < d <= b on the 1/den grid of [0, 1] (c = a and d = b included),
    # and a cap >= 0 on [a, b] with values from 0 to above the tangents' peak
    den = draw(st.sampled_from([64, 192, 35]))
    c, d = sorted(draw(st.lists(st.integers(0, den), min_size=2, max_size=2, unique=True)))
    a, b = draw(st.integers(0, c)), draw(st.integers(d, den))
    region, segment = Interval(F(a, den), F(b, den)), (F(c, den), F(d, den))
    cap = draw(pl_functions(region.lo, region.hi, value=st.sampled_from(
        [F(0), F(1, 4096), F(1, 1024), F(1, 256), F(1, 64), F(1, 16), F(1)])))
    return region, segment, draw(st.booleans()), draw(st.booleans()), cap


@settings(max_examples=300, deadline=None)
@given(margin_cases())
def test_quadratic_margin_is_the_tangent_envelope_composition(case):
    assert quadratic_margin(*case).as_pairs() == _margin_by_tangent_envelopes(*case).as_pairs()


# values of both signs, with runs of zeros and segments whose ends cancel
signed = st.sampled_from([F(-1, 4), F(-1, 8), F(0), F(0), F(1, 8), F(1, 4)])


@settings(max_examples=200)
@given(pl_functions(value=signed), pl_functions(value=signed))
def test_sup_distance_is_the_fraction_max_on_the_merged_grid(f, g):
    assert udt._sup_distance(f, g) == ref_cauchy_step(f, g) == udt._sup_distance(g, f)


@settings(max_examples=200)
@given(pl_functions(max_inner=12, value=signed),
       st.lists(points, min_size=2, max_size=2, unique=True))
def test_positive_zone_reads_breakpoint_values(f, window):
    lo, hi = sorted(window)
    assert udt._positive_zone(f.restrict(lo, hi)) == ref_positive_zone(f, lo, hi)


# contiguous runs with ends on the 1/64 grid of [0, 1]
runs_strategy = st.lists(points, min_size=2, max_size=6, unique=True).map(
    lambda ends: list(zip(sorted(ends), sorted(ends)[1:])))


@settings(max_examples=400)
@given(runs_strategy, st.data(),
       st.sampled_from([F(-1, 8), F(0), F(1, 256), F(1, 16), F(1, 2), F(2)]))
def test_case_split_matches_the_mirrored_form(runs, data, delta_n):
    # x on a run end, at a run midpoint, anywhere on the grid (outside the
    # runs too) or a hair off an end: the same candidates as the mirrored form
    ends = [a for a, _ in runs] + [runs[-1][1]]
    mids = [(a + b) / 2 for a, b in runs]
    x = data.draw(st.one_of(
        st.sampled_from(ends), st.sampled_from(mids), points,
        st.sampled_from(ends).map(lambda e: e + F(1, 2 ** 12)),
        st.sampled_from(ends).map(lambda e: e - F(1, 2 ** 12))))
    got = udt._case_split_candidates(runs, x, delta_n)
    assert sorted(got) == sorted(ref_case_split_candidates(runs, x, delta_n))


@pytest.mark.parametrize("fixture", ["one_stage", "two_stages"])
def test_case_split_bisects_to_the_first_run_holding_x(fixture, request):
    # on the monotone runs of every stage region: at every run end, where x
    # lies in two runs and the first is taken, between every two run ends,
    # and just outside the region, the candidates of the linear scan
    res = request.getfixturevalue(fixture)
    for n, f in enumerate(res.stages, start=1):
        for region in res.system.complement(n):
            runs = monotone_runs(f, region.lo, region.hi)
            ends = [a for a, _ in runs] + [runs[-1][1]]
            xs = [*ends, *((a + b) / 2 for a, b in runs), region.lo - 1, region.hi + 1]
            for x in xs:
                got = udt._case_split_candidates(runs, x, F(1, 16))
                assert sorted(got) == sorted(ref_case_split_candidates(runs, x, F(1, 16))), x
