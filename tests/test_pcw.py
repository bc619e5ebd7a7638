from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import (
    IncrementReport,
    PiecewiseLinear,
    build_phi,
    build_signed_integral,
    check_increment_bound,
    first_sloped_segment,
    geometric_grid,
    lip_sweep,
    local_lip_exact,
    m_ratio,
    merged_breakpoints,
    monotone_runs,
    pl_max,
    pl_min,
    pl_sum,
    ramp_to,
)

from oracles import (
    brute_m_ratio,
    ref_at,
    ref_combine,
    ref_first_sloped_segment,
    ref_le,
    ref_merged_breakpoints,
    ref_pick,
    ref_ramp_to,
    ref_simplify,
    ref_splice,
)
from strategies import (
    TIE_POINTS, TIE_STEP, float_tie_functions, near_and_between, pl_functions, points,
)

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=64)


def small_sets():
    return st.lists(
        st.tuples(rationals, rationals), min_size=0, max_size=5
    ).map(lambda ps: IntervalSet.from_pairs([(min(a, b), max(a, b)) for a, b in ps if a != b]))


class TestEvaluation:
    def test_interpolation(self):
        f = PiecewiseLinear([0, 1, 2], [0, 1, 0])
        assert f(F(1, 2)) == F(1, 2)
        assert f(F(3, 2)) == F(1, 2)

    def test_clamp_outside(self):
        f = PiecewiseLinear([0, 1], [3, 5])
        assert f(-10) == 3
        assert f(10) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0, 0], [1, 2])
        with pytest.raises(ValueError):
            PiecewiseLinear([0], [1])

    def test_simplify_drops_collinear(self):
        f = PiecewiseLinear([0, 1, 2], [0, 1, 2])
        assert f.simplify().breakpoints == (0, 2)


class TestAlgebra:
    def test_add_cancels(self):
        f = PiecewiseLinear([0, 1, 3], [0, 2, -1])
        z = f + (-f)
        assert z.min_value() == 0 and z.max_value() == 0

    def test_scale_slopes(self):
        phi = build_phi(iset((0, F(1, 4)), (F(1, 2), 1)), 0)
        scaled = phi.scale(F(7, 8))
        assert set(scaled.slopes()) == {F(0), F(7, 8)}

    def test_domain_mismatch(self):
        f = PiecewiseLinear([0, 1], [0, 0])
        g = PiecewiseLinear([0, 2], [0, 0])
        with pytest.raises(ValueError):
            f + g

    def test_concat(self):
        f = PiecewiseLinear([0, 1], [0, 1])
        g = PiecewiseLinear([1, 2], [1, 0])
        h = f.concat(g)
        assert h(F(3, 2)) == F(1, 2)
        with pytest.raises(ValueError):
            f.concat(PiecewiseLinear([1, 2], [0, 0]))

    def test_restrict(self):
        f = PiecewiseLinear([0, 2], [0, 2])
        g = f.restrict(F(1, 2), 1)
        assert g.domain == Interval(F(1, 2), F(1))
        assert g(F(3, 4)) == F(3, 4)

    def test_min_max_with_crossings(self):
        f = PiecewiseLinear([0, 1], [0, 1])
        g = PiecewiseLinear([0, 1], [1, 0])
        lo = pl_min(f, g)
        hi = pl_max(f, g)
        assert lo(F(1, 2)) == F(1, 2) and lo(F(1, 4)) == F(1, 4)
        assert hi(F(1, 4)) == F(3, 4)
        assert F(1, 2) in lo.breakpoints

    def test_le(self):
        f = PiecewiseLinear([0, 1], [0, 1])
        assert f.le(f.shift(F(1, 100)))
        assert not f.shift(F(1, 100)).le(f)


class TestBuildPhi:
    def test_unit_interval(self):
        phi = build_phi(iset((0, 1)), 0)
        assert phi(F(1, 2)) == F(1, 2)

    def test_two_blocks(self):
        phi = build_phi(iset((0, 1), (2, 3)), 0)
        assert phi(F(5, 2)) == F(3, 2)

    def test_half_mass(self):
        phi = build_phi(iset((0, F(1, 4)), (F(3, 4), 1)), 0)
        assert phi(1) == F(1, 2)

    def test_negative_side(self):
        phi = build_phi(iset((-1, 1)), 0)
        assert phi(-1) == -1

    def test_signed_integral(self):
        f = build_signed_integral(
            iset((0, F(1, 2))), iset((F(1, 2), 1)), 0, Interval(F(0), F(1))
        )
        assert f(F(1, 2)) == F(1, 2)
        assert f(1) == 0

    def test_signed_integral_cancels_where_the_sets_overlap(self):
        # 1_plus - 1_minus is 0 on the overlap [1/4, 1/2], so the rise 1/4
        # on [0, 1/4] is undone on [1/2, 3/4]
        f = build_signed_integral(
            iset((0, F(1, 2))), iset((F(1, 4), F(3, 4))), 0, Interval(F(0), F(1))
        )
        assert f.as_pairs() == ((0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)), (F(3, 4), 0),
                                (1, 0))

    @settings(max_examples=150)
    @given(small_sets(), rationals, rationals)
    def test_increment_identity(self, E, x, y):
        if E.is_empty:
            return
        phi = build_phi(E, 0, window=Interval(F(-5), F(5)))
        lo, hi = min(x, y), max(x, y)
        expected = (
            E.intersect(iset((lo, hi))).measure() if lo < hi else F(0)
        )
        assert phi(hi) - phi(lo) == expected


eighths = st.integers(-16, 16).map(lambda k: F(k, 8))
sixteenths = st.integers(-34, 34).map(lambda k: F(k, 16))  # even: on the 1/8 grid


def sets_with_points():
    """Sets on the 1/8 grid of [-2, 2], degenerate components allowed."""
    return st.lists(st.tuples(eighths, eighths), max_size=5).map(
        lambda ps: IntervalSet.from_pairs([(min(a, b), max(a, b)) for a, b in ps],
                                          allow_degenerate=True))


class TestRamp:
    @settings(max_examples=150)
    @given(small_sets(), rationals, rationals, st.sampled_from([F(1), F(-7, 8), F(0)]))
    def test_matches_phi_at_its_breakpoints(self, E, x0, b, slope):
        # the ramp is v0 + slope·(φ(p) - φ(x0)) at φ's breakpoints inside
        # (x0, b) and at b, the per-point loop it replaced
        if not x0 < b:
            return
        phi = build_phi(E, 0, window=Interval(F(-5), F(5)))
        xs, vs = [F(-5), x0], [F(0), F(3)]
        ramp_to(xs, vs, E, slope, b)
        expected = [x0, *(p for p in phi.breakpoints if x0 < p < b), b]
        assert xs[1:] == expected
        assert vs[1:] == [3 + slope * (phi(p) - phi(x0)) for p in expected]

    def test_degenerate_component_once(self):
        E = IntervalSet.from_pairs([(0, 1), (2, 2), (3, 4)], allow_degenerate=True)
        xs, vs = [F(-1)], [F(0)]
        ramp_to(xs, vs, E, F(1), F(7, 2))
        assert xs == [-1, 0, 1, 2, 3, F(7, 2)]
        assert vs == [0, 0, 1, 1, 1, F(3, 2)]
        PiecewiseLinear(xs, vs)  # strictly increasing breakpoints

    @settings(max_examples=200)
    @given(sets_with_points(), sixteenths, sixteenths,
           st.sampled_from([F(1), F(-1), F(-7, 8), F(3, 2), F(0)]))
    def test_matches_per_point_ramp(self, E, x0, b, slope):
        # x0 and b fall on endpoints, inside components and in gaps
        if not x0 < b:
            return
        xs, vs = [F(-3), x0], [F(0), F(5, 4)]
        ref_xs, ref_vs = list(xs), list(vs)
        ramp_to(xs, vs, E, slope, b)
        ref_ramp_to(ref_xs, ref_vs, E, slope, b)
        assert (xs, vs) == (ref_xs, ref_vs)

    @pytest.mark.parametrize("x0, b", [
        (F(0), F(3)),          # both on endpoints
        (F(1, 2), F(5, 2)),    # both in gaps
        (F(1), F(7, 2)),       # x0 on an endpoint, b inside a component
        (F(3, 2), F(2)),       # x0 in a gap, b on a degenerate component
        (F(-1), F(5)),         # both outside E's hull
    ])
    @pytest.mark.parametrize("slope", [F(1), F(-3, 4)])
    def test_endpoints_gaps_and_degenerate_components(self, x0, b, slope):
        E = IntervalSet.from_pairs([(0, F(1, 4)), (1, 1), (2, 2), (3, 4)], allow_degenerate=True)
        xs, vs = [x0], [F(1)]
        ref_xs, ref_vs = [x0], [F(1)]
        ramp_to(xs, vs, E, slope, b)
        ref_ramp_to(ref_xs, ref_vs, E, slope, b)
        assert (xs, vs) == (ref_xs, ref_vs)
        PiecewiseLinear(xs, vs)  # strictly increasing breakpoints


class TestMRatio:
    def test_abs_peak(self):
        f = PiecewiseLinear([-1, 0, 1], [1, 0, 1])
        for r in [F(1, 2), F(1, 3), 1]:
            assert m_ratio(f, 0, r) == 1

    def test_constant(self):
        f = PiecewiseLinear.constant(7, Interval(F(0), F(1)))
        assert m_ratio(f, F(1, 2), F(1, 4)) == 0

    def test_phi_left_increment(self):
        phi = build_phi(iset((0, 1)), 0)
        assert m_ratio(phi, 1, F(1, 2)) == 1

    def test_errors(self):
        f = PiecewiseLinear([0, 1], [0, 1])
        with pytest.raises(ValueError):
            m_ratio(f, 0, 0)

    @settings(max_examples=60)
    @given(rationals, st.fractions(min_value=F(1, 8), max_value=2, max_denominator=32))
    def test_oracle_lower_bound(self, x, r):
        f = PiecewiseLinear([-4, -1, 0, 2, 4], [0, 2, -1, 1, 1])
        exact = m_ratio(f, x, r)
        grid = brute_m_ratio(f, x, r, samples=64)
        assert grid <= exact
        # worst grid spacing 2r/64, max |slope| 3: sup error bound
        assert exact - grid <= F(2 * 3, 64) * 2

    @settings(max_examples=80)
    @given(
        st.fractions(min_value=F(1, 16), max_value=1, max_denominator=32),
        st.fractions(min_value=F(1, 16), max_value=1, max_denominator=32),
    )
    def test_numerator_monotone_in_r(self, r1, r2):
        f = PiecewiseLinear([-4, -1, 0, 2, 4], [0, 2, -1, 1, 1])
        x = F(1, 3)
        lo, hi = min(r1, r2), max(r1, r2)
        assert m_ratio(f, x, lo) * lo <= m_ratio(f, x, hi) * hi


class TestLocalLip:
    def test_sawtooth_peak(self):
        f = PiecewiseLinear([-1, 0, 1], [1, 0, 1])
        assert local_lip_exact(f, 0) == (1, 1)

    def test_flat(self):
        f = PiecewiseLinear.constant(0, Interval(F(-1), F(1)))
        assert local_lip_exact(f, 0) == (0, 0)

    def test_junction_max(self):
        f = PiecewiseLinear([0, 1, 2], [0, F(7, 8), F(7, 8)])
        assert local_lip_exact(f, 1) == (F(7, 8), F(7, 8))

    def test_boundary_rejected(self):
        f = PiecewiseLinear([0, 1], [0, 1])
        with pytest.raises(ValueError):
            local_lip_exact(f, 0)

    def test_matches_sweep_below_gap(self):
        f = PiecewiseLinear([0, 1, 2, 3], [0, 1, 1, 0])
        x = F(1)
        sweep = lip_sweep(f, x, geometric_grid(F(1, 2), F(1, 2), 6))
        lip_val, _ = local_lip_exact(f, x)
        below_gap = [r for r, _ in sweep.entries if r < 1]
        assert all(
            ratio == lip_val for r, ratio in sweep.entries if r in below_gap
        )


class TestLipSweep:
    def test_identity(self):
        f = PiecewiseLinear([-2, 2], [-2, 2])
        sweep = lip_sweep(f, 0, geometric_grid(1, F(1, 2), 5))
        assert all(ratio == 1 for _, ratio in sweep.entries)
        assert sweep.min_ratio == sweep.max_ratio == 1

    def test_zero(self):
        f = PiecewiseLinear.constant(0, Interval(F(-2), F(2)))
        sweep = lip_sweep(f, 0, geometric_grid(1, F(1, 2), 5))
        assert sweep.max_ratio == 0

    def test_grid_validation(self):
        f = PiecewiseLinear([-1, 1], [0, 0])
        with pytest.raises(ValueError):
            lip_sweep(f, 0, [F(1, 4), F(1, 2)])


class TestIncrementBound:
    def test_phi_equality_on_full_block(self):
        E = iset((0, 1))
        phi = build_phi(E, 0)
        rep = check_increment_bound(phi, E, [(0, 1), (F(1, 4), F(3, 4))])
        assert rep.all_ok
        assert all(c.margin == 0 for c in rep.checks)

    def test_scaled_margin(self):
        E = iset((0, 1))
        delta = F(1, 8)
        f = build_phi(E, 0).scale(1 - delta)
        rep = check_increment_bound(f, E, [(0, 1), (F(1, 8), F(5, 8))])
        assert rep.all_ok
        for c in rep.checks:
            assert c.margin == delta * c.allowance

    def test_violation_reported(self):
        f = PiecewiseLinear([0, 1], [0, 2])  # slope 2
        rep = check_increment_bound(f, iset((0, 1)), [(0, 1)])
        assert not rep.all_ok
        assert rep.violations[0].excess == 1

    def test_segment_audit(self):
        # nonzero slope only inside E: no sloped segment meets the complement
        E = iset((0, 1))
        phi = build_phi(E, 0)
        assert first_sloped_segment(phi, E.complement_within(phi.domain)) is None
        g = PiecewiseLinear([-1, 0], [0, F(1, 2)])
        assert first_sloped_segment(g, E.complement_within(g.domain)) == Interval(F(-1), F(0))


def test_slope_profile_recomputable():
    f = PiecewiseLinear([0, 1, 2], [0, 1, 1])
    assert f.slopes() == (1, 0)


def test_sup_norm_of_sawtooth():
    # small-lip sawtooth with E = window, eps = 1 peaks at eps/2
    f = PiecewiseLinear([0, F(1, 2), 1], [0, F(1, 2), 0])
    assert f.sup_norm() == F(1, 2)


def test_monotone_runs_plateau_extends_run():
    f = PiecewiseLinear([0, 1, 2, 3, 4], [0, 1, 1, 0, 1])
    assert monotone_runs(f, F(0), F(4)) == [(0, 2), (2, 3), (3, 4)]
    assert monotone_runs(f, F(1, 2), F(5, 2)) == [(F(1, 2), 2), (2, F(5, 2))]


# -- the one sweep, the one splice and the one slope check, against the
# slow paths they replaced ------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@settings(max_examples=100)
@given(pl_functions(), st.lists(points.map(lambda t: 3 * t - 1), max_size=20), st.randoms())
def test_at_is_pointwise_call(f, xs, rnd):
    xs = sorted(xs + list(f.breakpoints[::2]))
    assert f.at(xs) == [f(x) for x in xs] == ref_at(f, xs)
    rnd.shuffle(xs)
    assert _outcome(f.at, xs) == _outcome(ref_at, f, xs)
    assert f.simplify().as_pairs() == ref_simplify(f).as_pairs()


def test_at_rejects_a_step_back_past_a_breakpoint():
    f = PiecewiseLinear([0, 1, 2], [0, 1, 0])
    assert f.at([F(3, 2), F(5, 4), 3, -1]) == [F(1, 2), F(3, 4), 0, 0]  # no breakpoint crossed
    with pytest.raises(ValueError):
        f.at([F(3, 2), F(1, 2)])


@settings(max_examples=100)
@given(pl_functions(), pl_functions())
def test_binary_operations_match_slow_paths(f, g):
    assert f.add(g).as_pairs() == ref_combine(f, g, lambda a, b: a + b).as_pairs()
    assert f.sub(g).as_pairs() == ref_combine(f, g, lambda a, b: a - b).as_pairs()
    assert f.le(g) == ref_le(f, g)
    assert f.le(pl_max(f, g)) and pl_min(f, g).le(f)
    assert pl_min(f, g).as_pairs() == ref_pick(f, g, min).as_pairs()
    assert pl_max(f, g).as_pairs() == ref_pick(f, g, max).as_pairs()


@settings(max_examples=100)
@given(st.lists(st.one_of(pl_functions(), pl_functions(F(1, 4), F(3, 4))),
                min_size=1, max_size=4),
       st.lists(points, min_size=2, max_size=2, unique=True))
def test_merged_breakpoints_is_the_filtered_union(fs, window):
    lo, hi = sorted(window)
    inner = sorted(set(b for f in fs for b in f.breakpoints))
    assert merged_breakpoints(fs, lo, hi) == [lo, *[b for b in inner if lo < b < hi], hi]
    extra = [b for b in near_and_between([lo, hi, *inner]) if lo <= b <= hi]
    assert (merged_breakpoints(fs, lo, hi, extra=extra)
            == ref_merged_breakpoints(fs, lo, hi, extra=extra))


@settings(max_examples=100)
@given(pl_functions(), st.data())
def test_restrict_and_monotone_runs_on_subsegments(f, data):
    lo, hi = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    g = f.restrict(lo, hi)
    assert g.breakpoints == (lo, *[b for b in f.breakpoints if lo < b < hi], hi)
    assert list(g.values) == [f(x) for x in g.breakpoints]
    runs = monotone_runs(f, lo, hi)
    assert runs[0][0] == lo and runs[-1][1] == hi
    for a, b in runs:  # each run is monotone on g's breakpoints inside it
        vals = [f(x) for x in g.breakpoints if a <= x <= b]
        assert vals == sorted(vals) or vals == sorted(vals, reverse=True)


@st.composite
def splices(draw):
    """A function on [0, 1] and sorted, disjoint pieces that agree with it
    at their ends (some pieces abut)."""
    f = draw(pl_functions())
    cuts = sorted(set(draw(st.lists(points, min_size=2, max_size=8))))
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        if not draw(st.booleans()):
            continue
        inner = draw(pl_functions(a, b, max_inner=3))
        pieces.append(PiecewiseLinear(
            inner.breakpoints, (f(a), *inner.values[1:-1], f(b))
        ))
    return f, pieces


@settings(max_examples=100)
@given(splices())
def test_splice_is_restrict_and_concat(case):
    f, pieces = case
    assert f.splice(pieces).as_pairs() == ref_splice(f, pieces).as_pairs()


def test_splice_rejects_seams_and_overlaps():
    f = PiecewiseLinear([0, 1], [0, 1])
    good = PiecewiseLinear([F(1, 4), F(1, 2)], [F(1, 4), F(1, 2)])
    assert f.splice([good]) == f
    with pytest.raises(ValueError):  # f continues past the piece at 1/2
        f.splice([PiecewiseLinear([F(1, 4), F(1, 2)], [F(1, 4), 0])])
    with pytest.raises(ValueError):  # two abutting pieces disagree at 1/2
        f.splice([good, PiecewiseLinear([F(1, 2), 1], [0, 1])])
    with pytest.raises(ValueError):  # overlapping pieces
        f.splice([good, PiecewiseLinear([F(3, 8), 1], [F(3, 8), 1])])
    with pytest.raises(ValueError):  # a piece outside the domain
        f.splice([PiecewiseLinear([F(1, 2), 2], [F(1, 2), 1])])
    # pieces at the domain's ends: no seam to check there
    assert f.splice([PiecewiseLinear([0, 1], [5, 6])]).as_pairs() == ((0, 5), (1, 6))


@settings(max_examples=100)
@given(
    pl_functions(value=st.sampled_from([F(0), F(1, 2), F(1)])),
    st.lists(st.tuples(points, points), max_size=4),
)
def test_first_sloped_segment_matches_midpoint_test(f, raw):
    pairs = [(min(a, b), max(a, b)) for a, b in raw if a != b]
    S = IntervalSet.from_pairs(pairs)
    seg = first_sloped_segment(f, S)
    expected = ref_first_sloped_segment(f, pairs)
    assert (None if seg is None else (seg.lo, seg.hi)) == expected


def test_first_sloped_segment_degenerate_and_touching_components():
    f = PiecewiseLinear([0, 1, 2, 3], [0, 1, 1, 0])  # sloped, flat, sloped
    point = lambda x: IntervalSet([Interval.point(x)], allow_degenerate=True)
    # a degenerate component inside a sloped segment carries no mass
    assert first_sloped_segment(f, point(F(1, 2))) is None
    assert first_sloped_segment(f, point(F(1, 2)).union(iset((F(5, 4), F(7, 4))))) is None
    assert first_sloped_segment(f, point(F(1, 2)).union(iset((F(5, 2), 4)))) == Interval(F(2), F(3))
    # components that touch a sloped segment only at an endpoint
    assert first_sloped_segment(f, iset((1, 2))) is None
    assert first_sloped_segment(f, iset((-1, 0), (3, 4))) is None
    assert first_sloped_segment(f, iset((-1, 0), (1, 2), (3, 4))) is None
    assert first_sloped_segment(f, iset((-1, F(1, 64)))) == Interval(F(0), F(1))
    assert first_sloped_segment(f, iset((F(63, 64), 2))) == Interval(F(0), F(1))


@settings(max_examples=150)
@given(st.lists(pl_functions(), min_size=1, max_size=5))
def test_pl_sum_is_sequential_add_simplified(fs):
    total = pl_sum(fs)
    assert total.as_pairs() == reduce(PiecewiseLinear.add, fs).simplify().as_pairs()
    assert total.as_pairs() == total.simplify().as_pairs()


def test_pl_sum_cancelling_slopes_and_domains():
    up = PiecewiseLinear([0, F(1, 2), 1], [0, 1, 1])
    down = PiecewiseLinear([0, F(1, 2), 1], [0, -1, -1])
    assert pl_sum([up, down]).as_pairs() == ((0, 0), (1, 0))
    assert pl_sum([up, up, down]).as_pairs() == up.as_pairs()
    with pytest.raises(ValueError):
        pl_sum([up, PiecewiseLinear([0, 2], [0, 1])])
    with pytest.raises(ValueError):
        pl_sum([up, PiecewiseLinear([F(-1), 1], [0, 1])])
    with pytest.raises(ValueError):
        pl_sum([])


# -- the float-keyed sweep, grid and simplify at float ties ---------------------------


@settings(max_examples=100, deadline=None)
@given(float_tie_functions(), st.data())
def test_keyed_paths_match_exact_paths_at_float_ties(f, data):
    # the tie points, and probes on, between and 2^-200 off the breakpoints:
    # most share their float with a breakpoint, so the keys must defer to
    # exact comparisons
    domain = f.breakpoints[0], f.breakpoints[-1]
    g = data.draw(float_tie_functions(domain=domain))
    probes = sorted({*TIE_POINTS, *near_and_between(f.breakpoints)})
    lo, hi = sorted(data.draw(st.sets(st.sampled_from(probes), min_size=2, max_size=2)))
    unsorted = data.draw(st.lists(st.sampled_from(probes), max_size=12))
    assert f.at(probes) == ref_at(f, probes) == [f(x) for x in probes]
    assert _outcome(f.at, unsorted) == _outcome(ref_at, f, unsorted)
    assert f.simplify().as_pairs() == ref_simplify(f).as_pairs()
    # f again, with each probe in its domain as an extra collinear breakpoint
    dense_xs = merged_breakpoints((f,), *domain, extra=[x for x in probes if f.domain.contains(x)])
    dense = PiecewiseLinear(dense_xs, f.at(dense_xs))
    assert dense.simplify().as_pairs() == ref_simplify(dense).as_pairs() == f.simplify().as_pairs()
    extra = [x for x in probes if lo <= x <= hi]
    assert merged_breakpoints((f, g), lo, hi) == ref_merged_breakpoints((f, g), lo, hi)
    assert (merged_breakpoints((f, g), lo, hi, extra=extra)
            == ref_merged_breakpoints((f, g), lo, hi, extra=extra))
    assert f.add(g).as_pairs() == ref_combine(f, g, lambda a, b: a + b).as_pairs()
    assert f.sub(g).as_pairs() == ref_combine(f, g, lambda a, b: a - b).as_pairs()
    assert f.le(g) == ref_le(f, g) and g.le(f) == ref_le(g, f)
    assert pl_min(f, g).as_pairs() == ref_pick(f, g, min).as_pairs()
    assert pl_max(f, g).as_pairs() == ref_pick(f, g, max).as_pairs()
    total = ref_combine(f, g, lambda a, b: a + b)
    assert pl_sum([f, g]).as_pairs() == ref_simplify(total).as_pairs()


def test_order_checks_inside_one_float():
    # 1/3 and 1/3 ± 2^-70 share one float: the keys tie and the Fractions decide
    third, t = F(1, 3), TIE_STEP
    assert float(third - t) == float(third) == float(third + t)
    f = PiecewiseLinear([0, third - t, third, third + t, 1], [0, 1, 0, 1, 0])
    for bad in ([third, third], [third + t, third], [0, third, third - t, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinear(bad, [0] * len(bad))
    assert f.at([third - t / 2, third, third + t / 2]) == [F(1, 2), 0, F(1, 2)]
    assert f.at([third + t / 4, third + t / 2]) == [F(1, 4), F(1, 2)]  # no breakpoint crossed
    for back in ([third + t / 2, third - t / 2], [third + t, third], [third, third - t]):
        with pytest.raises(ValueError, match="nondecreasing"):
            f.at(back)
    # -0.0 and 0.0 tie too: -10^-400 sits below 0 though both keys compare equal
    g = PiecewiseLinear([-F(1, 10 ** 400), 0, 1], [1, 0, 0])
    assert g.at([-F(1, 10 ** 401), 0]) == [F(1, 10), 0]
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear([0, -F(1, 10 ** 400)], [0, 0])
