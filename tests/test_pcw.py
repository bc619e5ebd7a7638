import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.constructions import build_small_lip
from lipsets.envelopes import PreconditionError, _least_radius, _zigzag, verify_contraction
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import (
    PiecewiseLinear,
    build_phi,
    build_signed_integral,
    first_sloped_segment,
    geometric_grid,
    integer_grid,
    local_lip_exact,
    m_ratio,
    monotone_runs,
    pl_max,
    pl_min,
    pl_sum,
)

from oracles import (
    brute_m_ratio,
    ref_at,
    ref_combine,
    ref_envelope,
    ref_first_sloped_segment,
    ref_le,
    ref_merged_breakpoints,
    ref_monotone_runs,
    ref_pick,
    ref_pl_sum,
    ref_refine_blocks,
    ref_simplify,
    ref_splice,
)
from strategies import (
    TIE_POINTS, TIE_STEP, float_tie_functions, near_and_between, non_dyadic_functions,
    pl_functions, points, values,
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
        assert z.min_value() == 0 and max(z.values) == 0

    def test_scale_slopes(self):
        phi = build_phi(iset((0, F(1, 4)), (F(1, 2), 1)), 0)
        scaled = phi.scale(F(7, 8))
        assert set(scaled.slopes()) == {F(0), F(7, 8)}

    def test_domain_mismatch(self):
        f = PiecewiseLinear([0, 1], [0, 0])
        g = PiecewiseLinear([0, 2], [0, 0])
        with pytest.raises(ValueError):
            f + g

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
        lifted = f + PiecewiseLinear.constant(F(1, 100), f.domain)
        assert f.le(lifted)
        assert not lifted.le(f)


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
    """The zigzag's ramps: refine's walk (`envelopes._zigzag`) over one
    block [x0, b], whose target f(b) - f(x0) is a share of the most the
    block allows, (1-δ)|E ∩ [x0, b]|."""

    @staticmethod
    def block(E, x0, b, share, delta, v0=F(3)):
        """_zigzag over the one block [x0, b], from v0 to v0 + target."""
        target = share * (1 - delta) * E.mass(x0, b)
        return _zigzag(E, [x0, b], [v0, v0 + target], delta)

    @settings(max_examples=150)
    @given(small_sets(), rationals, rationals, st.sampled_from([F(3, 4), F(-7, 8), F(0)]))
    def test_matches_phi_at_its_breakpoints(self, E, x0, b, share):
        # the zigzag rises with slope 1 - δ on E from (x0, 3) to the balance
        # point t and falls back: 3 + (1-δ)(min(φ(p), 2φ(t) - φ(p)) - φ(x0))
        # at t, φ's breakpoints inside (x0, b) and b
        if not x0 < b:
            return
        delta = F(1, 8)
        phi = build_phi(E, 0, window=Interval(F(-5), F(5)))
        division, xs, vs = self.block(E, x0, b, share, delta)
        t = division[1]
        expected = sorted({t, *(p for p in phi.breakpoints if x0 < p < b)})
        assert division == [x0, t, b]
        assert xs == [x0, *expected, b]
        assert vs == [3 + (1 - delta) * (min(phi(p), 2 * phi(t) - phi(p)) - phi(x0))
                      for p in xs]
        rise, fall = phi(t) - phi(x0), phi(b) - phi(t)
        assert (1 - delta) * (rise - fall) == share * (1 - delta) * E.mass(x0, b)

    def test_degenerate_component_once(self):
        E = IntervalSet.from_pairs([(0, 1), (2, 2), (3, 4)], allow_degenerate=True)
        division, xs, vs = self.block(E, F(-1), F(7, 2), F(0), F(1, 8), v0=F(0))
        assert division == [-1, F(3, 4), F(7, 2)]
        assert xs == [-1, 0, F(3, 4), 1, 2, 3, F(7, 2)]
        assert vs == [0, 0, F(21, 32), F(7, 16), F(7, 16), F(7, 16), 0]
        PiecewiseLinear(xs, vs)  # strictly increasing breakpoints

    @settings(max_examples=200)
    @given(sets_with_points(), sixteenths, sixteenths,
           st.sampled_from([F(1, 2), F(-1, 2), F(-15, 16), F(0)]),
           st.sampled_from([F(1, 8), F(1, 512)]))
    def test_matches_per_point_ramp(self, E, x0, b, share, delta):
        # x0 and b fall on endpoints, inside components and in gaps
        if not x0 < b:
            return
        target = share * (1 - delta) * E.mass(x0, b)
        args = (E, [x0, b], [F(5, 4), F(5, 4) + target], delta)
        assert self.block(E, x0, b, share, delta, F(5, 4)) == ref_refine_blocks(*args)

    @pytest.mark.parametrize("x0, b", [
        (F(0), F(3)),          # both on endpoints
        (F(1, 2), F(5, 2)),    # both in gaps: no mass
        (F(1), F(7, 2)),       # x0 on an endpoint, b inside a component
        (F(3, 2), F(2)),       # x0 in a gap, b on a degenerate component: no mass
        (F(-1), F(5)),         # both outside E's hull
    ])
    @pytest.mark.parametrize("slope", [F(7, 8), F(511, 512)])
    def test_endpoints_gaps_and_degenerate_components(self, x0, b, slope):
        # the zigzag's slopes are ±slope, so δ = 1 - slope
        E = IntervalSet.from_pairs([(0, F(1, 4)), (1, 1), (2, 2), (3, 4)], allow_degenerate=True)
        delta = 1 - slope
        shares = (F(0), F(1, 2), F(-1, 2)) if E.mass(x0, b) else (F(0),)
        for share in shares:
            target = share * slope * E.mass(x0, b)
            division, xs, vs = self.block(E, x0, b, share, delta, F(1))
            assert (division, xs, vs) == ref_refine_blocks(E, [x0, b], [F(1), 1 + target], delta)
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
        lip_val, _ = local_lip_exact(f, x)
        below_gap = [r for r in geometric_grid(F(1, 2), F(1, 2), 6) if r < 1]
        assert all(m_ratio(f, x, r) == lip_val for r in below_gap)


class TestLipSweep:
    """M_f(x, r) read by `m_ratio` at each radius of a geometric grid."""

    def test_identity(self):
        f = PiecewiseLinear([-2, 2], [-2, 2])
        assert [m_ratio(f, 0, r) for r in geometric_grid(1, F(1, 2), 5)] == [1] * 5

    def test_zero(self):
        f = PiecewiseLinear.constant(0, Interval(F(-2), F(2)))
        assert [m_ratio(f, 0, r) for r in geometric_grid(1, F(1, 2), 5)] == [0] * 5


def test_geometric_grid_validation():
    assert geometric_grid(F(1, 2), F(1, 2), 3) == [F(1, 2), F(1, 4), F(1, 8)]
    for start, count, message in ((-1, 3, "start must be positive"),
                                  (0, 2, "start must be positive"),
                                  (1, 0, "count must be >= 1"),
                                  (1, -2, "count must be >= 1")):
        with pytest.raises(ValueError, match=message):
            geometric_grid(start, F(1, 2), count)
    for factor in (0, 1, F(3, 2)):
        with pytest.raises(ValueError, match=r"factor must be in \(0,1\)"):
            geometric_grid(1, factor, 3)


class TestIncrementBound:
    def test_phi_equality_on_full_block(self):
        E = iset((0, 1))
        phi = build_phi(E, 0)
        assert verify_contraction(phi, E, 1) is None
        # equality: any factor below 1 fails on the whole block
        assert verify_contraction(phi, E, F(255, 256)) == (0, 1, 1, F(255, 256))

    def test_scaled_margin(self):
        E = iset((0, 1))
        delta = F(1, 8)
        f = build_phi(E, 0).scale(1 - delta)
        assert verify_contraction(f, E, 1 - delta) is None
        assert verify_contraction(f, E, 1 - 2 * delta) == (0, 1, 1 - delta, 1 - 2 * delta)

    def test_violation_reported(self):
        f = PiecewiseLinear([0, 1], [0, 2])  # slope 2
        a, b, increment, allowance = verify_contraction(f, iset((0, 1)), 1)
        assert (a, b) == (0, 1) and increment - allowance == 1

    def test_segment_audit(self):
        # nonzero slope only inside E: no sloped segment meets the complement
        E = iset((0, 1))
        phi = build_phi(E, 0)
        assert first_sloped_segment(phi, E.complement_within(phi.domain)) is None
        g = PiecewiseLinear([-1, 0], [0, F(1, 2)])
        assert first_sloped_segment(g, E.complement_within(g.domain)) == Interval(F(-1), F(0))


def test_equality_and_hash_ignore_collinear_breakpoints():
    f = PiecewiseLinear([0, 1, 2], [0, 1, 0])
    dense = PiecewiseLinear([0, F(1, 3), 1, F(3, 2), 2], [0, F(1, 3), 1, F(1, 2), 0])
    assert f == dense and dense == f and hash(f) == hash(dense)
    assert len({f, dense}) == 1
    assert f != f + PiecewiseLinear.constant(F(1, 2), f.domain)
    assert f != PiecewiseLinear([0, 1, 2], [0, F(1, 2), 0])
    # the same values at every shared point, but on another domain
    assert f != PiecewiseLinear([0, 1, 2, 3], [0, 1, 0, 0])
    assert f != PiecewiseLinear([0, 1], [0, 1]) and f != "f"


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


# -- point reads, the integer grid, the one splice and the one slope check,
# against the slow paths they replaced --------------------------------------------------


@settings(max_examples=100)
@given(pl_functions(), st.lists(points.map(lambda t: 3 * t - 1), max_size=20))
def test_at_is_pointwise_call(f, xs):
    xs = sorted(xs + list(f.breakpoints[::2]))
    assert [f(x) for x in xs] == ref_at(f, xs)
    assert f.simplify().as_pairs() == ref_simplify(f).as_pairs()


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


class _ReadLog(tuple):
    """A values tuple that records each index read."""

    def __new__(cls, values):
        log = super().__new__(cls, values)
        log.read = set()
        return log

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)


@pytest.mark.parametrize("values, expected, read", [
    ([0] * 21, None, {3, 4, 5, 10, 11}),  # flat: every segment meeting S is read
    ([k % 2 for k in range(21)], Interval(F(3), F(4)), {3, 4}),  # stops at the first
])
def test_first_sloped_segment_reads_only_the_segments_meeting_s(values, expected, read):
    bps = tuple(F(k) for k in range(21))
    vals = _ReadLog(map(F, values))
    f = PiecewiseLinear._trusted(bps, vals)
    S = iset((F(7, 2), F(9, 2)), (F(41, 4), F(43, 4)))  # meets segments 3, 4 and 10
    S = S.union(IntervalSet([Interval.point(F(15))], allow_degenerate=True))
    assert first_sloped_segment(f, S) == expected
    assert vals.read == read


@st.composite
def grid_sets(draw):
    """Up to four components on the 1/64 grid of [0, 1], plus up to two
    degenerate ones; often empty."""
    pairs = draw(st.lists(st.tuples(points, points), max_size=4))
    singles = draw(st.lists(points, max_size=2))
    return IntervalSet([Interval(min(a, b), max(a, b)) for a, b in pairs if a != b]
                       + [Interval.point(p) for p in singles], allow_degenerate=True)


@settings(max_examples=150)
@given(pl_functions(value=st.sampled_from([F(0), F(1, 2), F(1)])), grid_sets())
def test_first_sloped_segment_matches_the_midpoint_test_on_grid_sets(f, S):
    # grid_sets hold degenerate components and ones that touch a segment at an end
    for T in (S, IntervalSet.empty()):
        seg = first_sloped_segment(f, T)
        expected = ref_first_sloped_segment(f, [(iv.lo, iv.hi) for iv in T])
        assert (None if seg is None else (seg.lo, seg.hi)) == expected


@settings(max_examples=100)
@given(st.lists(pl_functions(), min_size=1, max_size=4), st.data())
def test_integer_grid_reads_each_function_on_the_merged_grid(fs, data):
    lo, hi = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    for window in ((), (lo, hi)):  # by default the shared domain [0, 1]
        grid, point, S, W, columns = integer_grid(fs, *window)
        xs = [point[x] for x in grid]
        assert xs == ref_merged_breakpoints(fs, *(window or (F(0), F(1))))
        assert [F(x, S) for x in grid] == xs
        assert [[F(v, W) for v in column] for column in columns] == [
            [f(x) for x in xs] for f in fs]
    with pytest.raises(ValueError, match="domain mismatch"):
        integer_grid([*fs, PiecewiseLinear.constant(0, Interval(F(0), F(2)))])
    for bad in ((hi, lo), (lo, lo), (lo, F(2)), (F(-1), hi)):
        with pytest.raises(ValueError, match="window outside domain"):
            integer_grid(fs, *bad)


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
    # the line is 1/9 at the tent's peak 1/3, off both terms' value scales
    line = PiecewiseLinear([0, 1], [0, F(1, 3)])
    tent = PiecewiseLinear([0, F(1, 3), 1], [0, 1, 0])
    assert pl_sum([line, tent]).as_pairs() == ((0, 0), (F(1, 3), F(10, 9)), (1, F(1, 3)))
    with pytest.raises(ValueError, match="domain mismatch"):
        pl_sum([up, PiecewiseLinear([0, 2], [0, 1])])
    with pytest.raises(ValueError, match="domain mismatch"):
        pl_sum([up, PiecewiseLinear([F(-1), 1], [0, 1])])
    with pytest.raises(ValueError, match="need at least one function"):
        pl_sum([])


# a term on the domain (lo, hi): float-tie terms draw their own where it is
# None, the other families always lie on [0, 1]
SUM_TERMS = {
    "dyadic": lambda domain: pl_functions(),
    "float ties": lambda domain: float_tie_functions(domain=domain),
    "non-dyadic": lambda domain: non_dyadic_functions(),
}


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pl_sum_matches_the_fraction_sum(family, data):
    # a ramp across the whole domain is sloped across every other term's
    # breakpoints: reading it there exercises the widened value scale
    first = data.draw(SUM_TERMS[family](None))
    domain = first.breakpoints[0], first.breakpoints[-1]
    ramps = st.lists(values, min_size=2, max_size=2).map(
        lambda vs: PiecewiseLinear(domain, vs))
    fs = [first, *data.draw(st.lists(st.one_of(SUM_TERMS[family](domain), ramps),
                                     max_size=4))]
    assert pl_sum(fs).as_pairs() == ref_pl_sum(fs).as_pairs()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(grid_sets(), st.sampled_from([F(1, 4), F(1, 3), F(1, 16)])),
                min_size=1, max_size=3),
       st.lists(st.one_of(pl_functions(), non_dyadic_functions()), max_size=3), st.data())
def test_pl_sum_reads_the_index_a_term_has(saws, others, data):
    # a sawtooth carries the index its constructor would build, a function
    # the algebra built carries none, and the sum must not store one on it
    bare = [PiecewiseLinear._trusted(g.breakpoints, g.values) for g in others]
    fs = data.draw(st.permutations(
        [build_small_lip(E, eps, Interval(F(0), F(1))) for E, eps in saws] + bare))
    total = pl_sum(fs)
    assert not any(hasattr(g, "_index") for g in bare)
    assert total.as_pairs() == ref_pl_sum(fs).as_pairs()


# -- locates, grid and simplify where points share a float ---------------------------


@settings(max_examples=100, deadline=None)
@given(float_tie_functions(), st.data())
def test_readers_match_exact_paths_at_float_ties(f, data):
    # the tie points, and probes on, between and 2^-200 off the breakpoints:
    # most share their float with a breakpoint, so only an exact order
    # places them
    domain = f.breakpoints[0], f.breakpoints[-1]
    g = data.draw(float_tie_functions(domain=domain))
    probes = sorted({*TIE_POINTS, *near_and_between(f.breakpoints)})
    assert [f(x) for x in probes] == ref_at(f, probes)
    assert f.simplify().as_pairs() == ref_simplify(f).as_pairs()
    # f again, with each probe in its domain as an extra collinear breakpoint
    dense_xs = sorted({*f.breakpoints, *(x for x in probes if f.domain.contains(x))})
    dense = PiecewiseLinear(dense_xs, [f(x) for x in dense_xs])
    assert dense.simplify().as_pairs() == ref_simplify(dense).as_pairs() == f.simplify().as_pairs()
    lo, hi = sorted(data.draw(st.sets(st.sampled_from(dense_xs), min_size=2, max_size=2)))
    grid, point, _, _, _ = integer_grid((f, g), lo, hi)
    assert [point[x] for x in grid] == ref_merged_breakpoints((f, g), lo, hi)
    assert f.add(g).as_pairs() == ref_combine(f, g, lambda a, b: a + b).as_pairs()
    assert f.sub(g).as_pairs() == ref_combine(f, g, lambda a, b: a - b).as_pairs()
    assert f.le(g) == ref_le(f, g) and g.le(f) == ref_le(g, f)
    assert pl_min(f, g).as_pairs() == ref_pick(f, g, min).as_pairs()
    assert pl_max(f, g).as_pairs() == ref_pick(f, g, max).as_pairs()
    total = ref_combine(f, g, lambda a, b: a + b)
    assert pl_sum([f, g]).as_pairs() == ref_simplify(total).as_pairs()
    # three terms on the n-ary grid, at the same ties
    total3 = ref_combine(total, f, lambda a, b: a + b)
    assert pl_sum([f, g, f]).as_pairs() == ref_simplify(total3).as_pairs()


def test_order_checks_inside_one_float():
    # 1/3 and 1/3 ± 2^-70 share one float, which cannot order them
    third, t = F(1, 3), TIE_STEP
    assert float(third - t) == float(third) == float(third + t)
    f = PiecewiseLinear([0, third - t, third, third + t, 1], [0, 1, 0, 1, 0])
    for bad in ([third, third], [third + t, third], [0, third, third - t, 1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinear(bad, [0] * len(bad))
    xs = [third - t / 2, third, third + t / 4, third + t / 2]
    assert [f(x) for x in xs] == ref_at(f, xs) == [F(1, 2), 0, F(1, 4), F(1, 2)]
    # -10^-400 and 0 share one float too (-0.0 == 0.0), yet -10^-400 lies below 0
    g = PiecewiseLinear([-F(1, 10 ** 400), 0, 1], [1, 0, 0])
    assert [g(-F(1, 10 ** 401)), g(0)] == [F(1, 10), 0]
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseLinear([0, -F(1, 10 ** 400)], [0, 0])


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_position_is_the_fraction_bisect(family, data):
    # f as the constructor builds it, and two functions the algebra builds
    # and indexes on their first locate: a sum, and f with a midpoint in
    # each segment simplified away.  Probes lie on, between and 2^-200 off
    # every breakpoint, and outside the domain.
    f = data.draw(SUM_TERMS[family](None))
    g = data.draw(SUM_TERMS[family]((f.breakpoints[0], f.breakpoints[-1])))
    bps = f.breakpoints
    dense_xs = sorted({*bps, *((a + b) / 2 for a, b in zip(bps, bps[1:]))})
    thinned = PiecewiseLinear(dense_xs, [f(x) for x in dense_xs]).simplify()
    summed = pl_sum([f, g])
    assert not hasattr(thinned, "_index") and not hasattr(summed, "_index")
    for h in (f, summed, thinned):
        xs = h.breakpoints
        probes = {*TIE_POINTS, *near_and_between([*xs, *g.breakpoints]),
                  xs[0] - 1, xs[-1] + 1, -F(1, 10 ** 400)}
        for x in sorted(probes):
            assert h._position(x, True) == bisect_right(xs, x)
            assert h._position(x, False) == bisect_left(xs, x)


def test_index_keeps_equality_and_hash():
    f = PiecewiseLinear([0, F(1, 3), F(2, 3), 1], [0, 1, 1, 0])
    assert hasattr(f, "_index")  # the constructor's order check builds it
    zero = PiecewiseLinear.constant(0, f.domain)
    built = [f.add(zero), f.scale(1), f.restrict(0, 1), pl_sum([f, zero]), pl_min(f, f),
             PiecewiseLinear.constant(0, Interval(F(-1), F(1))).splice([f])]
    # the algebra, comparison, hash and repr build no index
    pairs, hashes, reprs = [g.as_pairs() for g in built], list(map(hash, built)), list(map(repr, built))
    assert all(g == f and f == g for g in built[:-1]) and built[-1] != f
    assert not any(hasattr(g, "_index") for g in built)
    assert [g(F(1, 2)) for g in built] == [1] * len(built)
    for g in built:  # the first locate builds the index the constructor would
        assert g._index == PiecewiseLinear(g.breakpoints, g.values)._index
    assert [g.as_pairs() for g in built] == pairs and list(map(repr, built)) == reprs
    assert list(map(hash, built)) == hashes
    assert all(g == f and f == g for g in built[:-1]) and built[-1] != f


# -- one- and two-function readers on integer_grid, on windows off the breakpoints -----


def _off_breakpoints(f):
    """Points strictly inside f's domain that are not breakpoints of f: the
    thirds and midpoint of each segment, and points 2^-200 off each
    breakpoint."""
    bps = f.breakpoints
    thirds = {a + (b - a) * k / 3 for a, b in zip(bps, bps[1:]) for k in (1, 2)}
    return sorted(x for x in {*thirds, *near_and_between(bps)}
                  if bps[0] < x < bps[-1] and x not in bps)


def _window_off_breakpoints(data, f):
    return sorted(data.draw(st.sets(st.sampled_from(_off_breakpoints(f)),
                                    min_size=2, max_size=2)))


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eq_is_a_zero_difference_at_every_breakpoint(family, data):
    # f against itself with extra collinear points, that function bumped at
    # one of them, and another function on f's domain
    f = data.draw(SUM_TERMS[family](None))
    extra = data.draw(st.sets(st.sampled_from(_off_breakpoints(f)), min_size=1, max_size=4))
    xs = sorted({*f.breakpoints, *extra})
    dense = PiecewiseLinear(xs, [f(x) for x in xs])
    bump = data.draw(st.sampled_from(sorted(extra)))
    bumped = PiecewiseLinear(xs, [f(x) + TIE_STEP * (x == bump) for x in xs])
    other = data.draw(SUM_TERMS[family]((f.breakpoints[0], f.breakpoints[-1])))
    for g in (f, dense, bumped, other):
        zero = all(v == 0 for v in ref_combine(f, g, operator.sub).values)
        assert (f == g) == (g == f) == zero
    assert f == dense and f != bumped


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_monotone_runs_match_a_fraction_scan(family, data):
    f = data.draw(SUM_TERMS[family](None))
    lo, hi = _window_off_breakpoints(data, f)
    assert monotone_runs(f, lo, hi) == ref_monotone_runs(f, lo, hi)


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_least_radius_is_the_fraction_min(family, data):
    f = data.draw(SUM_TERMS[family](None))
    radius = f + PiecewiseLinear.constant(data.draw(st.sampled_from([0, 1, 3])), f.domain)
    c, d = _window_off_breakpoints(data, f)
    cut = radius.restrict(c, d)
    least = min(cut.values)
    if least > 0:
        assert _least_radius(radius, c, d) == least
    else:
        with pytest.raises(PreconditionError) as info:
            _least_radius(radius, c, d)
        assert info.value.witness == cut.breakpoints[cut.values.index(least)]


# -- the n-ary envelopes, simplify and sup_norm on integers ----------------------------


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_envelopes_match_pairwise_fraction_picks(family, data):
    # one to five functions on one domain, ramps among them: pl_min and
    # pl_max of all at once are the pairwise Fraction picks in turn
    first = data.draw(SUM_TERMS[family](None))
    domain = first.breakpoints[0], first.breakpoints[-1]
    ramps = st.lists(values, min_size=2, max_size=2).map(
        lambda vs: PiecewiseLinear(domain, vs))
    fs = [first, *data.draw(st.lists(st.one_of(SUM_TERMS[family](domain), ramps),
                                     max_size=4))]
    assert pl_min(*fs).as_pairs() == ref_envelope(fs, min).as_pairs()
    assert pl_max(*fs).as_pairs() == ref_envelope(fs, max).as_pairs()


@pytest.mark.parametrize("family", SUM_TERMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_simplify_and_sup_norm_match_fraction_loops(family, data):
    f = data.draw(SUM_TERMS[family](None))
    # f again with collinear points at the thirds of each segment
    dense_xs = sorted({*f.breakpoints, *(a + (b - a) * k / 3 for a, b in
                                          zip(f.breakpoints, f.breakpoints[1:]) for k in (1, 2))})
    dense = PiecewiseLinear(dense_xs, [f(x) for x in dense_xs])
    for g in (f, dense):
        assert g.simplify().as_pairs() == ref_simplify(g).as_pairs()
        assert g.sup_norm() == max(abs(v) for v in g.values)
    assert dense.simplify().as_pairs() == f.simplify().as_pairs()


def test_simplify_keeps_itself_when_nothing_drops():
    f = PiecewiseLinear([0, F(1, 3), 1], [0, 1, F(1, 7)])
    assert f.simplify() is f
    line = PiecewiseLinear([0, F(1, 3), F(1, 2), 1], [0, F(1, 7), F(3, 14), F(3, 7)])
    assert line.simplify().as_pairs() == ((0, 0), (1, F(3, 7)))


def test_envelope_hand_cases():
    up = PiecewiseLinear([0, 1], [0, 1])
    down = PiecewiseLinear([0, 1], [1, 0])
    flat = PiecewiseLinear.constant(F(1, 2), Interval(F(0), F(1)))
    # three lines meeting at one point (1/2, 1/2), in every order: one kink there
    for fs in permutations((up, down, flat)):
        assert pl_min(*fs).as_pairs() == ((0, 0), (F(1, 2), F(1, 2)), (1, 0))
        assert pl_max(*fs).as_pairs() == ((0, 1), (F(1, 2), F(1, 2)), (1, 1))
    # a crossing exactly on a grid point, where a third function breaks
    tent = PiecewiseLinear([0, F(1, 2), 1], [2, 2, 2])
    assert pl_min(up, down, tent).as_pairs() == pl_min(up, down).as_pairs()
    # two lines touching at a grid point without a sign change: no crossing
    vee = PiecewiseLinear([0, F(1, 2), 1], [F(1, 2), 0, F(1, 2)])
    zero = PiecewiseLinear.constant(0, Interval(F(0), F(1)))
    assert pl_min(vee, zero).as_pairs() == ((0, 0), (1, 0))
    assert pl_max(vee, zero).as_pairs() == vee.as_pairs()
    # ties at an interval's left end: the walk follows the one lower to the right
    steep = PiecewiseLinear([0, 1], [0, -2])
    assert pl_min(up, steep, zero).as_pairs() == steep.as_pairs()
    assert pl_max(up, steep, zero).as_pairs() == up.as_pairs()
    # the same at an interior grid point that is a kink: f and g tie at 1,
    # h is least only at 2, and g crosses h at 3/2
    f = PiecewiseLinear([0, 1, 2], [0, 0, -1])
    g = PiecewiseLinear([0, 1, 2], [0, 0, -2])
    h = PiecewiseLinear([0, 1, 2], [5, 1, -3])
    for fs in permutations((f, g, h)):
        assert pl_min(*fs).as_pairs() == ((0, 0), (1, 0), (F(3, 2), -1), (2, -3))
    # equal lines, and crossings off the grids of both value scales
    third = PiecewiseLinear([0, 1], [F(1, 3), F(-2, 3)])
    assert pl_min(up, up, third).as_pairs() == ((0, 0), (F(1, 6), F(1, 6)), (1, F(-2, 3)))
    # a single function: itself, simplified
    line = PiecewiseLinear([0, F(1, 4), 1], [0, F(1, 4), 1])
    assert pl_min(line).as_pairs() == pl_max(line).as_pairs() == ((0, 0), (1, 1))
    with pytest.raises(ValueError, match="need at least one function"):
        pl_min()
    with pytest.raises(ValueError, match="domain mismatch"):
        pl_max(up, PiecewiseLinear([0, 2], [0, 1]))
