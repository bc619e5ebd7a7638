from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet
from lipsets.envelopes import (
    Envelope,
    PreconditionError,
    _adaptive_block_bounds,
    _least_radius,
    _zigzag,
    envelope_flatten,
    envelope_refine,
    verify_contraction,
)
from lipsets.pcw import (
    PiecewiseLinear,
    build_phi,
    first_sloped_segment,
)

from oracles import (
    ref_band_margin_on,
    ref_between,
    ref_block_bounds,
    ref_contraction_by_bisects,
    ref_contraction_witness,
    ref_cumulative,
    ref_mass,
    ref_min_margin_on,
    ref_refine_blocks,
    ref_vicinity_contains,
    ref_vicinity_is_inside,
)
from strategies import (
    TIE_POINTS, float_tie_functions, float_tie_sets, near_and_between, non_dyadic,
    non_dyadic_functions, non_dyadic_sets, pl_functions, points,
)

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


W01 = Interval(F(0), F(1))
ZERO = PiecewiseLinear.constant(0, W01)
WIDE = (F(1, 64), F(63, 64))


def tube(center, radius):
    """The tube of constant radius around center."""
    return Envelope(center, PiecewiseLinear.constant(radius, center.domain))


dyadic = st.integers(0, 16).map(lambda k: F(k, 16))


def dyadic_sets(min_mass=False):
    base = st.lists(st.tuples(dyadic, dyadic), min_size=1, max_size=4).map(
        lambda ps: IntervalSet.from_pairs(
            [(min(a, b), max(a, b)) for a, b in ps if a != b]
        )
    )
    if min_mass:
        return base.filter(lambda s: s.measure() > 0)
    return base


class TestEnvelopeType:
    def test_min_margin(self):
        env = tube(ZERO, F(1, 4))
        assert env.min_margin_on(ZERO, F(1, 8), F(7, 8)) == F(1, 4)
        # r - |g - c| is least where g = x/2 is farthest from the center
        g = PiecewiseLinear([0, 1], [0, F(1, 2)])
        assert env.min_margin_on(g, F(1, 8), F(3, 8)) == F(1, 4) - F(3, 16)
        assert env.min_margin_on(g, F(1, 8), F(7, 8)) == F(1, 4) - F(7, 16)

    def test_membership(self):
        v = tube(ZERO, F(1, 8))
        assert v.contains(PiecewiseLinear.constant(F(1, 8), W01))
        assert not v.contains(PiecewiseLinear.constant(F(1, 4), W01))

    def test_nonnegative_radius(self):
        with pytest.raises(ValueError):
            tube(ZERO, -1)

    def test_nesting(self):
        big = tube(ZERO, F(1, 2))
        small = tube(PiecewiseLinear.constant(F(1, 8), W01), F(1, 4))
        assert small.is_inside(big)
        assert not big.is_inside(small)


class TestVerifyContraction:
    def test_holds_for_scaled_phi(self):
        E = iset((0, F(1, 2)))
        phi = build_phi(E, 0, W01)
        f = phi.scale(F(7, 8))
        assert verify_contraction(f, E, F(7, 8)) is None

    def test_witness_on_violation(self):
        E = iset((0, F(1, 2)))
        phi = build_phi(E, 0, W01)
        f = phi  # slope 1 > 7/8 on E-part
        w = verify_contraction(f, E, F(7, 8))
        assert w is not None
        a, b, df, allowed = w
        assert df > allowed
        assert allowed == F(7, 8) * E.mass(a, b)

    def test_linear_across_a_gap(self):
        # over [0, 1] the rise 7/16 is (7/8)|E ∩ [0, 1]|, but f also rises
        # across the gap [1/4, 3/4] of E, which carries no mass
        E = iset((0, F(1, 4)), (F(3, 4), 1))
        f = PiecewiseLinear([0, 1], [0, F(7, 16)])
        assert verify_contraction(f, E, F(7, 8)) == (F(1, 4), F(3, 4), F(7, 32), 0)

    def test_negative_factor_rejected(self):
        # a flat segment would break |Δf| <= factor·|E ∩ Δ| under E
        with pytest.raises(ValueError, match="nonnegative"):
            verify_contraction(PiecewiseLinear.constant(0, W01), iset((0, 1)), -F(1, 8))


# -- the one-sweep checks against the slow paths they replaced ------------------------

nonneg = st.integers(0, 32).map(lambda k: F(k, 16))
small = st.integers(-8, 8).map(lambda k: F(k, 16))


wide = st.integers(-8, 24).map(lambda k: F(k, 16))  # [-1/2, 3/2]


@settings(max_examples=100)
@given(st.lists(st.tuples(wide, wide), max_size=5), st.sampled_from([F(1, 4), F(7, 8), F(1)]),
       st.data())
def test_verify_contraction_on_unequal_domains(pairs, factor, data):
    # E may reach past the window [0, 1] of φ; f lives on a subsegment [a, b]
    E = IntervalSet.from_pairs([(min(p, q), max(p, q)) for p, q in pairs if p != q])
    phi = build_phi(E, 0, W01)
    a, b = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    # φ scaled by the factor is the tightest contraction; 1/64 more fails
    # wherever [a, b] holds E-mass
    tight = phi.restrict(a, b).scale(factor)
    f = data.draw(st.one_of(pl_functions(a, b), st.just(tight), st.just(tight.scale(F(65, 64)))))
    assert verify_contraction(f, E, factor) == ref_contraction_witness(f, phi, factor)


sixteenths = st.integers(-4, 20).map(lambda k: F(k, 16))  # [-1/4, 5/4]


@settings(max_examples=150)
@given(st.lists(st.tuples(sixteenths, sixteenths), max_size=5),
       st.lists(sixteenths, max_size=3), st.sampled_from([F(1, 4), F(7, 8), F(1)]),
       st.data())
def test_verify_contraction_walk_matches_bisects_on_degenerate_components(
        pairs, singles, factor, data):
    # degenerate components split the grid but carry no mass, and f's
    # domain ends and breakpoints are drawn from E's endpoints and the
    # quarters, so they land on E's endpoints
    E = IntervalSet([Interval(min(p, q), max(p, q)) for p, q in pairs]
                    + [Interval.point(s) for s in singles], allow_degenerate=True)
    grid = sorted({*E.endpoints(), *(F(k, 4) for k in range(-1, 6))})
    xs = sorted(data.draw(st.sets(st.sampled_from(grid), min_size=2, max_size=8)))
    vs = data.draw(st.lists(small, min_size=len(xs), max_size=len(xs)))
    f = PiecewiseLinear(xs, vs)
    tight = build_phi(E, xs[0], Interval(xs[0], xs[-1])).scale(factor)
    for g in (f, tight, tight.scale(F(65, 64))):
        assert verify_contraction(g, E, factor) == ref_contraction_by_bisects(g, E, factor)


@settings(max_examples=100)
@given(pl_functions(), pl_functions(value=nonneg), pl_functions(value=small),
       pl_functions(value=small), pl_functions(value=nonneg))
def test_vicinity_checks_match_abs_formulation(c, r, h, h2, extra):
    v = Envelope(c, r)
    g = c + h
    assert v.contains(g) == ref_vicinity_contains(c, r, g)
    w = Envelope(c + h2, r + extra)
    assert v.is_inside(w) == ref_vicinity_is_inside(v, w)
    assert w.is_inside(v) == ref_vicinity_is_inside(w, v)


@settings(max_examples=100)
@given(pl_functions(), pl_functions(value=nonneg), pl_functions(value=small),
       st.lists(points, min_size=2, max_size=2, unique=True))
def test_margin_restricts_to_min_margin_on(c, r, h, window):
    # at its center a tube's margin is its radius, on every window the
    # lemmas read it on; g = c + h may leave the tube on either side
    env = Envelope(c, r)
    lo, hi = sorted(window)
    assert env.min_margin_on(c, lo, hi) == r.restrict(lo, hi).min_value()
    assert env.min_margin_on(c + h, lo, hi) == ref_min_margin_on(env, c + h, lo, hi)


@settings(max_examples=60, deadline=None)
@given(float_tie_functions(), st.data())
def test_tube_checks_at_float_ties(c, data):
    # center, radius and g = c + h with breakpoints that share their floats
    domain = c.breakpoints[0], c.breakpoints[-1]
    r = data.draw(float_tie_functions(domain=domain, value=nonneg))
    g = c + data.draw(float_tie_functions(domain=domain, value=small))
    env = Envelope(c, r)
    assert env.contains(c)
    assert env.contains(g) == ref_vicinity_contains(c, r, g)
    probes = [x for x in near_and_between([*TIE_POINTS, *domain]) if c.domain.contains(x)]
    lo, hi = sorted(data.draw(st.sets(st.sampled_from(probes), min_size=2, max_size=2)))
    assert env.min_margin_on(c, lo, hi) == r.restrict(lo, hi).min_value()
    assert env.min_margin_on(g, lo, hi) == ref_min_margin_on(env, g, lo, hi)


@settings(max_examples=100)
@given(pl_functions(), pl_functions(value=nonneg), pl_functions(value=nonneg),
       pl_functions(value=small), st.lists(points, min_size=2, max_size=2, unique=True))
def test_tube_checks_on_asymmetric_envelopes(f, below, above, h, window):
    # the band [f - below, f + above] is the tube around its midline with
    # half its width as radius; g = f + h may leave it on either side
    lower, upper = f - below, f + above
    env = Envelope((lower + upper).scale(F(1, 2)), (upper - lower).scale(F(1, 2)))
    g = f + h
    lo, hi = sorted(window)
    assert env.contains(g) == ref_between(lower, g, upper)
    assert env.contains(f)
    assert env.min_margin_on(g, lo, hi) == ref_band_margin_on(lower, upper, g, lo, hi)


HALF = Interval(F(0), F(1, 2))


def test_tube_checks_reject_other_domains():
    v = tube(ZERO, 1)
    for dom in (HALF, Interval(F(0), F(2))):  # inside and around [0, 1]
        other = tube(PiecewiseLinear.constant(0, dom), 1)
        with pytest.raises(ValueError):
            v.contains(other.center)
        with pytest.raises(ValueError):
            v.is_inside(other)
        with pytest.raises(ValueError):
            other.is_inside(v)


@pytest.mark.parametrize("env_domain, lo, hi", [
    (W01, F(-1, 8), F(1, 2)),
    (W01, F(1, 2), F(9, 8)),
    (W01, F(1, 2), F(1, 2)),
    (W01, F(3, 4), F(1, 4)),
    (Interval(F(-1), F(2)), F(1, 2), F(3, 2)),  # inside the envelope, not inside f's domain
])
def test_min_margin_on_rejects_bad_windows(env_domain, lo, hi):
    with pytest.raises(ValueError):
        tube(PiecewiseLinear.constant(0, env_domain), 1).min_margin_on(ZERO, lo, hi)


class TestEnvelopeRefine:
    def test_zero_function_zigzag(self):
        E = iset((0, 1))
        f = PiecewiseLinear.constant(0, W01)
        env = tube(f, F(1, 4))
        delta = F(1, 8)
        res = envelope_refine(env, E, 1, delta, segment=(F(1, 8), F(7, 8)))
        g = res.function
        # returns to 0 at every even division point, peaks with slopes ±(1-δ)
        for i in range(0, len(res.division_points), 2):
            assert g(res.division_points[i]) == 0
        assert set(g.restrict(*res.segment).slopes()) <= {1 - delta, -(1 - delta)}
        mids = res.division_points[1::2]
        evens = res.division_points[0::2]
        for a, m, b in zip(evens, mids, evens[1:]):
            assert m == (a + b) / 2  # full-measure E balances at midpoints

    def test_empty_mass_keeps_f(self):
        E = iset((2, 3))  # no mass inside the window
        f = PiecewiseLinear.constant(F(1, 16), W01)
        env = tube(f, F(1, 4))
        res = envelope_refine(env, E, 1, F(1, 8), segment=(F(1, 4), F(3, 4)))
        assert res.function == f

    def test_endpoint_equality_and_ci_eq(self):
        E = iset((0, F(1, 4)), (F(3, 8), F(5, 8)), (F(3, 4), 1))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(1 - eps)
        env = tube(f, F(1, 8))
        delta = F(1, 16)
        res = envelope_refine(env, E, eps, delta, segment=(F(1, 8), F(7, 8)))
        g, (c, d) = res.function, res.segment
        assert g(c) == f(c) and g(d) == f(d)
        pts = res.division_points
        for i in range(2, len(pts), 2):
            a, m, b = pts[i - 2], pts[i - 1], pts[i]
            left = E.intersect(iset((a, m))).measure()
            right = E.intersect(iset((m, b))).measure()
            assert (1 - delta) * (left - right) == f(b) - f(a)

    def test_pieces_follow_phi(self):
        # g = K ± (1-δ)φ on each monotone piece, checked at the breakpoints
        # of g and φ in the piece
        E = iset((0, F(1, 4)), (F(5, 16), F(3, 8)), (F(3, 8) + F(1, 64), F(5, 8)), (F(3, 4), 1))
        phi = build_phi(E, 0, W01)
        f = phi.scale(F(1, 2))
        env = tube(f, F(1, 8))
        delta = F(1, 16)
        res = envelope_refine(env, E, F(1, 4), delta, segment=(F(1, 8), F(7, 8)))
        g, pts = res.function, res.division_points
        for k, (a, b) in enumerate(zip(pts, pts[1:])):
            sign = 1 if k % 2 == 0 else -1
            for x in [a, b, *g.breakpoints_in(a, b), *phi.breakpoints_in(a, b)]:
                assert g(x) - g(a) == sign * (1 - delta) * (phi(x) - phi(a))

    def test_strict_containment(self):
        E = iset((0, 1))
        f = PiecewiseLinear.constant(0, W01)
        env = tube(f, F(1, 4))
        res = envelope_refine(env, E, 1, F(1, 8), segment=(F(1, 8), F(7, 8)))
        c, d = res.segment
        assert env.min_margin_on(res.function, c, d) > 0

    def test_increment_precondition_enforced(self):
        E = iset((0, 1))
        phi = build_phi(E, 0, W01)
        env = tube(phi, 2)
        with pytest.raises(PreconditionError):
            envelope_refine(env, E, F(1, 2), F(1, 4), segment=(F(1, 4), F(3, 4)))

    def test_monotone_checked_on_segment_only(self):
        # refine needs no monotone center: a peak off the segment refines
        E = iset((0, 1))
        f = PiecewiseLinear([0, F(1, 8), 1], [0, F(1, 16), 0])
        env = tube(f, 2)
        delta = F(1, 4)
        res = envelope_refine(env, E, F(1, 2), delta, segment=(F(1, 4), F(3, 4)))
        g, (c, d) = res.function, res.segment
        assert g(c) == f(c) and g(d) == f(d)
        assert env.min_margin_on(g, c, d) > 0
        assert verify_contraction(g, E, 1 - delta) is None

    def test_monotone_opt_out(self):
        # the increment bound, not monotonicity, makes every block solvable:
        # a tent and a rise-plateau-fall refine with no opt-out to ask for
        E = iset((0, 1))
        delta = F(1, 4)
        for f, segment in [
            (PiecewiseLinear([0, F(1, 2), 1], [0, F(1, 4), 0]), WIDE),
            (PiecewiseLinear([0, F(1, 4), F(1, 2), 1], [0, F(1, 8), F(1, 8), 0]), (F(1, 8), F(7, 8))),
        ]:
            env = tube(f, 2)
            res = envelope_refine(env, E, F(1, 2), delta, segment=segment)
            g, (c, d) = res.function, res.segment
            assert g(c) == f(c) and g(d) == f(d)
            assert env.min_margin_on(g, c, d) > 0
            assert verify_contraction(g, E, 1 - delta) is None

    def test_margin_is_the_radius(self):
        # blocks are sized by the radius alone: the refine margin is its
        # minimum on the segment, whatever the center
        E = iset((0, F(1, 2)), (F(5, 8), 1))
        f = build_phi(E, 0, W01).scale(F(1, 2))
        radius = PiecewiseLinear([0, F(1, 3), 1], [F(1, 16), F(1, 4), F(1, 32)])
        env = Envelope(f, radius)
        res = envelope_refine(env, E, F(1, 2), F(1, 4), segment=(F(1, 8), F(7, 8)))
        assert res.margin == radius.restrict(F(1, 8), F(7, 8)).min_value()
        assert res.division_points[0::2] == tuple(
            _adaptive_block_bounds(radius, F(1, 8), F(7, 8), max(map(abs, radius.slopes()))))
        assert res.blocks == len(res.division_points) // 2
        assert env.min_margin_on(res.function, F(1, 8), F(7, 8)) > 0

    def test_increment_bound_of_output(self):
        E = iset((0, F(1, 2)), (F(5, 8), 1))
        f = build_phi(E, 0, W01).scale(F(1, 2))
        env = tube(f, F(1, 4))
        res = envelope_refine(env, E, F(1, 2), F(1, 4), segment=(F(1, 16), F(15, 16)))
        assert verify_contraction(res.function, E, 1 - F(1, 4)) is None


class TestEnvelopeFlatten:
    def test_identity_when_h_empty(self):
        E = iset((0, 1))
        f = build_phi(E, 0, W01).scale(F(1, 2))
        env = tube(f, F(1, 4))
        res = envelope_flatten(
            env, E, IntervalSet.empty(), F(1, 2), F(1, 4),
            segment=(F(1, 8), F(7, 8))
        )
        assert res.function == f

    def test_constant_on_zero_mass(self):
        E = iset((0, F(1, 4)))
        phi = build_phi(E, 0, W01)
        f = PiecewiseLinear.constant(F(1, 10), W01)
        env = tube(f, F(1, 2))
        H = iset((F(1, 2), F(5, 8)))
        res = envelope_flatten(env, E, H, F(1, 2), F(1, 4), segment=(F(3, 8), F(7, 8)))
        assert res.function == f  # f already flat; identity survives

    def test_ramps_flat_on_h(self):
        E = iset((F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(1 - eps)
        env = tube(f, F(1, 2))
        H = iset((F(7, 16), F(9, 16)))
        delta = F(1, 8)
        res = envelope_flatten(env, E, H, eps, delta, segment=(F(1, 16), F(15, 16)))
        g = res.function
        assert first_sloped_segment(g, H) is None
        c, d = res.segment
        assert g(c) == f(c) and g(d) == f(d)
        assert verify_contraction(g, E, 1 - delta) is None
        assert res.function == f

    def test_decreasing_center_returned_unchanged(self):
        E = iset((F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(-(1 - eps))  # decreasing
        env = tube(f, F(1, 2))
        H = iset((F(7, 16), F(9, 16)))
        res = envelope_flatten(env, E, H, eps, F(1, 8), segment=(F(1, 16), F(15, 16)))
        assert res.function == f
        assert first_sloped_segment(res.function, H) is None

    def test_h_meets_e_rejected(self):
        cases = [
            # a constant center, H inside E and inside the segment
            (iset((0, 1)), PiecewiseLinear.constant(0, W01), iset((F(1, 4), F(1, 2))), WIDE),
            # a center sloped on E, H inside E and outside the segment
            (iset((0, F(1, 2))), build_phi(iset((0, F(1, 2))), 0, W01).scale(F(1, 2)),
             iset((F(1, 8), F(1, 4))), (F(5, 8), F(7, 8))),
        ]
        for E, f, H, segment in cases:
            with pytest.raises(PreconditionError, match="H meets E") as info:
                envelope_flatten(tube(f, 1), E, H, F(1, 2), F(1, 4), segment=segment)
            assert info.value.witness == H.intersect(E) == H


# both lemmas on the same arguments; flatten's H is empty, so only the
# preconditions they share can fail.  Each case builds its tube inside the
# check, since a malformed tube is rejected when it is built.
SEG = (F(1, 4), F(3, 4))
LEMMAS = (
    lambda env, E, eps, delta: envelope_refine(env, E, eps, delta, segment=SEG),
    lambda env, E, eps, delta: envelope_flatten(
        env, E, IntervalSet.empty(), eps, delta, segment=SEG),
)
E01 = iset((0, 1))
PHI = build_phi(E01, 0, W01)
SHARED_BAD_INPUTS = {
    "delta-not-below-epsilon": (lambda: tube(ZERO, 1), F(1, 4), F(1, 4), ValueError),
    # center on [0, 1], radius on [0, 2]
    "envelope-on-another-domain": (
        lambda: Envelope(ZERO, PiecewiseLinear.constant(1, Interval(F(0), F(2)))),
        F(1, 2), F(1, 4), ValueError),
    "negative-radius": (lambda: tube(ZERO, -1), F(1, 2), F(1, 4), ValueError),
    "increment-violation": (lambda: tube(PHI, 2), F(1, 2), F(1, 4), PreconditionError),
    # PHI breaks the increment bound too: the radius is checked first
    "negative-radius-and-increment-violation": (lambda: tube(PHI, -F(1, 4)), F(1, 2), F(1, 4),
                                                ValueError),
}


@pytest.mark.parametrize("case", sorted(SHARED_BAD_INPUTS))
def test_refine_and_flatten_reject_shared_preconditions_alike(case):
    make_tube, eps, delta, kind = SHARED_BAD_INPUTS[case]
    raised = []
    for lemma in LEMMAS:
        with pytest.raises(kind) as info:
            lemma(make_tube(), E01, eps, delta)
        raised.append(info.value)
    r, fl = raised
    assert type(r) is type(fl) and str(r) == str(fl)
    if "negative-radius" in case:
        assert str(r) == "radius must be nonnegative"
    if case == "envelope-on-another-domain":
        assert str(r) == "center and radius must share a domain"
    if case == "increment-violation":
        f = PHI
        assert r.witness == fl.witness == verify_contraction(f, E01, 1 - eps)
        a, b, df, allowed = r.witness
        assert df == abs(f(b) - f(a)) > allowed == (1 - eps) * E01.mass(a, b)


# radius 0 at an interior point of SEG, at its left end, at its right end
# and on a stretch that starts inside SEG, each with the first point of SEG
# where it is least, which both lemmas give as witness
TOUCHING_RADII = {
    PiecewiseLinear([0, F(1, 2), 1], [1, 0, 1]): F(1, 2),
    PiecewiseLinear([0, F(1, 4), 1], [F(1, 4), 0, F(3, 4)]): F(1, 4),
    PiecewiseLinear([0, F(3, 4), 1], [F(3, 4), 0, F(1, 4)]): F(3, 4),
    PiecewiseLinear([0, F(5, 8), 1], [F(5, 8), 0, 0]): F(5, 8),
}


@pytest.mark.parametrize("radius", TOUCHING_RADII)
def test_refine_and_flatten_reject_a_radius_touching_zero(radius):
    # E leaves a gap for H, so flatten passes its own checks and reaches
    # the strictness check
    E = iset((0, F(1, 4)), (F(3, 4), 1))
    H = iset((F(3, 8), F(5, 8)))
    env = Envelope(ZERO, radius)
    for call in (lambda: envelope_refine(env, E, F(1, 2), F(1, 4), segment=SEG),
                 lambda: envelope_flatten(env, E, H, F(1, 2), F(1, 4), segment=SEG)):
        with pytest.raises(PreconditionError,
                           match="envelope is not strict on the segment") as err:
            call()
        assert err.value.witness == TOUCHING_RADII[radius]
    # with the radius lifted off 0 both lemmas go through
    lifted = Envelope(ZERO, radius + PiecewiseLinear.constant(F(1, 64), radius.domain))
    envelope_refine(lifted, E, F(1, 2), F(1, 4), segment=SEG)
    assert first_sloped_segment(
        envelope_flatten(lifted, E, H, F(1, 2), F(1, 4), segment=SEG).function, H) is None


@pytest.mark.parametrize("margin, c, d, witness", [
    (PiecewiseLinear([0, F(1, 2), 1], [1, 0, 1]), F(1, 4), F(3, 4), F(1, 2)),  # 0 inside
    (PiecewiseLinear([0, F(1, 4), 1], [F(1, 4), 0, F(3, 4)]), F(1, 4), F(3, 4), F(1, 4)),  # 0 at the left end
])
def test_adaptive_blocks_reject_a_margin_that_is_not_positive(margin, c, d, witness, monkeypatch):
    # the least point on [c, d] is the witness, found before any block is
    # cut, so the blocks never shrink toward a zero
    with pytest.raises(PreconditionError, match="envelope is not strict on the segment") as err:
        _least_radius(margin, c, d)
    assert err.value.witness == witness

    def no_blocks(*args):
        raise AssertionError("blocks cut on a margin that is not positive")

    monkeypatch.setattr("lipsets.envelopes._adaptive_block_bounds", no_blocks)
    with pytest.raises(PreconditionError, match="envelope is not strict on the segment") as err:
        envelope_refine(Envelope(ZERO, margin), E01, F(1, 2), F(1, 4), segment=(c, d))
    assert err.value.witness == witness


@settings(max_examples=60, deadline=None)
@given(
    dyadic_sets(min_mass=True),
    st.fractions(min_value=F(1, 10), max_value=F(1, 2), max_denominator=20),
)
def test_refine_random_admissible(E, scale_frac):
    eps = F(1, 4)
    delta = F(1, 16)
    phi = build_phi(E, 0, W01)
    f = phi.scale((1 - eps) * scale_frac)
    env = tube(f, F(1, 8))
    res = envelope_refine(env, E, eps, delta, segment=(F(1, 8), F(7, 8)))
    g, (c, d) = res.function, res.segment
    assert g(c) == f(c) and g(d) == f(d)
    assert env.min_margin_on(g, c, d) > 0
    assert verify_contraction(g, E, 1 - delta) is None


@settings(max_examples=60, deadline=None)
@given(
    dyadic_sets(),
    st.fractions(min_value=F(1, 10), max_value=F(1), max_denominator=20),
    st.lists(dyadic, min_size=2, max_size=2, unique=True),
)
def test_flatten_random_admissible(E, scale_frac, segment):
    # H, the closed middle halves of E's gaps in [0, 1], misses E, and the
    # increment bound makes f flat on it, inside the segment and out of it
    eps = F(1, 4)
    delta = F(1, 16)
    f = build_phi(E, 0, W01).scale((1 - eps) * scale_frac)
    H = IntervalSet([Interval(g.lo + g.length / 4, g.hi - g.length / 4)
                     for g in E.complement_within(W01)])
    res = envelope_flatten(tube(f, F(1, 8)), E, H, eps, delta, segment=tuple(sorted(segment)))
    assert res.function == f
    assert first_sloped_segment(f, H) is None
    assert verify_contraction(f, E, 1 - delta) is None


def _assert_dyadic_blocks(margin, c, d):
    """Every block end but d lies on the grid of its step: spacing h, the
    largest 2^-k below step/8 with k >= 3.  Every block but the last has
    (7/8)·step < q - p <= step, and the last q - p < (3/2)·step."""
    L = max(map(abs, margin.slopes()))
    bounds = _adaptive_block_bounds(margin, c, d, L)
    assert bounds[0] == c and bounds[-1] == d
    for p, q in zip(bounds, bounds[1:]):
        step = margin(p) / (2 * (2 + L))
        if q == d:
            assert 0 < q - p < F(3, 2) * step
            continue
        h = F(1, 8)
        while not h < step / 8:
            h /= 2
        assert (q / h).denominator == 1, (p, q, step)
        assert F(7, 8) * step < q - p <= step, (p, q, step)


@pytest.mark.parametrize("margin, c, d", [
    (PiecewiseLinear([0, F(1, 3), 1], [F(1, 7), F(2, 3), F(1, 5)]), F(1, 5), F(5, 7)),
    (PiecewiseLinear([-1, 0, 2], [F(1, 1000), F(3, 7), F(1, 3)]), F(-2, 3), F(5, 3)),
    (PiecewiseLinear.constant(F(5, 3), Interval(F(0), F(1))), F(1, 9), F(8, 9)),
    (PiecewiseLinear.constant(F(9), Interval(F(0), F(6))), F(1, 3), F(17, 3)),
])
def test_adaptive_blocks_end_on_dyadic_grids(margin, c, d):
    _assert_dyadic_blocks(margin, c, d)


@settings(max_examples=100, deadline=None)
@given(pl_functions(value=st.integers(4, 32).map(lambda k: F(k, 51))),
       st.lists(points, min_size=2, max_size=2, unique=True))
def test_adaptive_blocks_end_on_dyadic_grids_on_random_margins(margin, window):
    _assert_dyadic_blocks(margin, *sorted(window))


# -- refine's integer steps against their Fraction versions ---------------------------

# (sets, points, functions on [lo, hi]) of three families: dyadic endpoints
# with degenerate components; the float-tie points, 2^-70 apart and one
# beyond 10^400; denominators 3·2^k, 1000 and 77
WALK_FAMILIES = {
    "dyadic": (st.tuples(st.lists(st.tuples(dyadic, dyadic), max_size=4),
                         st.lists(dyadic, max_size=2)).map(
        lambda ps: IntervalSet([Interval(min(a, b), max(a, b)) for a, b in ps[0]]
                               + [Interval.point(p) for p in ps[1]], allow_degenerate=True)),
        dyadic, lambda lo, hi: pl_functions(lo, hi)),
    "float-tie": (float_tie_sets(), st.sampled_from(TIE_POINTS),
                  lambda lo, hi: float_tie_functions(domain=(lo, hi))),
    "non-dyadic": (non_dyadic_sets(), non_dyadic, lambda lo, hi: non_dyadic_functions()),
}


def _balance_taus(E, a, b):
    """The τ = target/(1-δ) of the block [a, b] whose balance point is an
    endpoint e of E inside it: 2(Φ(e) - Φ(a)) - A with A = |E ∩ [a, b]|."""
    A, phi_a = ref_mass(E, a, b), ref_cumulative(E, a)
    taus = {2 * (ref_cumulative(E, e) - phi_a) - A for e in E.endpoints() if a < e < b}
    return sorted(t for t in taus if abs(t) < A)


@pytest.mark.parametrize("family", WALK_FAMILIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_zigzag_matches_the_fraction_loop(family, data):
    # each block's target is 0, a share of the most it allows, of either
    # sign, or one whose balance point is an endpoint of E (the right end
    # of a component, or a degenerate one); blocks without mass take 0
    sets, pts, _ = WALK_FAMILIES[family]
    E = data.draw(sets)
    evens = sorted(data.draw(st.sets(pts, min_size=2, max_size=6)))
    delta = data.draw(st.sampled_from([F(1, 8), F(1, 512)]))
    f_evens = [data.draw(st.sampled_from([F(0), F(1, 3), F(-5, 7)]))]
    for a, b in zip(evens, evens[1:]):
        A = ref_mass(E, a, b)
        shares = [F(0), F(1, 3), F(-2, 3), F(99, 100), F(-99, 100)]
        tau = data.draw(st.sampled_from([share * A for share in shares] + _balance_taus(E, a, b)))
        f_evens.append(f_evens[-1] + (1 - delta) * tau)
    division, xs, vs = _zigzag(E, evens, f_evens, delta)
    assert (division, xs, vs) == ref_refine_blocks(E, evens, f_evens, delta)
    assert division[::2] == evens
    PiecewiseLinear(xs, vs)  # strictly increasing breakpoints


def test_zigzag_balances_on_a_components_right_end():
    # on [0, 1] with A = 3/4, τ = -1/4 asks for Φ(t) = 1/4, reached on all
    # of [1/4, 1/2]: the leftmost t, the right end of [0, 1/4], is taken
    E = iset((0, F(1, 4)), (F(1, 2), 1))
    delta = F(1, 8)
    f_evens = [F(0), (1 - delta) * F(-1, 4)]
    division, xs, vs = _zigzag(E, [F(0), F(1)], f_evens, delta)
    assert division == [0, F(1, 4), 1]
    assert xs == [0, F(1, 4), F(1, 2), 1]
    assert vs == [0, F(7, 32), F(7, 32), f_evens[1]]
    assert (division, xs, vs) == ref_refine_blocks(E, [F(0), F(1)], f_evens, delta)


def test_zigzag_crosses_a_block_without_mass():
    # the middle block holds only the degenerate component {1/2}: it keeps
    # f flat, is cut at its midpoint, and lists 1/2 once
    E = IntervalSet([Interval(F(0), F(1, 4)), Interval.point(F(1, 2)), Interval(F(3, 4), F(1))],
                    allow_degenerate=True)
    evens = [F(0), F(1, 4), F(5, 8), F(1)]
    f_evens = [F(0), F(1, 16), F(1, 16), F(0)]
    division, xs, vs = _zigzag(E, evens, f_evens, F(1, 8))
    assert division[2:5] == [F(1, 4), F(7, 16), F(5, 8)]
    assert xs[xs.index(F(1, 4)):xs.index(F(5, 8)) + 1] == [F(1, 4), F(7, 16), F(1, 2), F(5, 8)]
    assert (division, xs, vs) == ref_refine_blocks(E, evens, f_evens, F(1, 8))


@pytest.mark.parametrize("E, target, message", [
    (iset((2, 3)), F(1, 16), "block carries no E-mass"),
    (iset((0, F(1, 2))), F(7, 16), "precondition violated"),  # |τ| = A
    (iset((0, F(1, 2))), -F(1, 2), "precondition violated"),  # |τ| > A
])
def test_zigzag_rejects_an_unsolvable_target(E, target, message):
    for walk in (_zigzag, ref_refine_blocks):
        with pytest.raises(ValueError, match=message):
            walk(E, [F(0), F(1)], [F(0), target], F(1, 8))


def _tight_and_loose(E, f, factor):
    """f, the tightest contraction (1-δ)φ from f's left end and 65/64 of it."""
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    tight = build_phi(E, lo, Interval(lo, hi)).scale(factor)
    return f, tight, tight.scale(F(65, 64))


@pytest.mark.parametrize("family", WALK_FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_verify_contraction_matches_bisects_at_the_first_failing_factor(family, data):
    # factors from 1 down to 0: the verdicts agree at every factor, and
    # the first factor that fails has the oracle's witness
    sets, pts, functions = WALK_FAMILIES[family]
    E = data.draw(sets)
    lo, hi = sorted(data.draw(st.sets(pts, min_size=2, max_size=2)))
    if family == "non-dyadic":
        lo, hi = F(0), F(1)
    factors = [F(1), F(7, 8), F(2, 3), F(1, 77), F(0)]
    for g in _tight_and_loose(E, data.draw(functions(lo, hi)), F(2, 3)):
        got = [verify_contraction(g, E, k) for k in factors]
        assert got == [ref_contraction_by_bisects(g, E, k) for k in factors]
        failing = [w for w in got if w is not None]
        if failing:
            p, q, df, allowed = failing[0]
            assert df == abs(g(q) - g(p)) > allowed


def _off_grid(fs):
    """Window ends in [0, 1] with denominators 97 and 101, none of them a
    breakpoint of fs."""
    bps = {x for f in fs for x in f.breakpoints}
    ends = st.integers(1, 96).map(lambda k: F(k, 97)) | st.integers(1, 100).map(
        lambda k: F(k, 101))
    return st.sets(ends.filter(lambda x: x not in bps), min_size=2, max_size=2).map(sorted)


nonneg_non_dyadic = non_dyadic_functions().map(
    lambda f: PiecewiseLinear(f.breakpoints, [abs(v) for v in f.values]))


@settings(max_examples=150, deadline=None)
@given(non_dyadic_functions(), nonneg_non_dyadic, non_dyadic_functions(),
       non_dyadic_functions(), nonneg_non_dyadic, st.data())
def test_tube_checks_match_the_oracles_off_the_dyadic_grid(c, r, h, h2, extra, data):
    # values off the dyadic grid, sloped across the other functions'
    # breakpoints, need the widened value scale; the windows of
    # min_margin_on end off every breakpoint
    v = Envelope(c, r)
    g = c + h.scale(F(1, 8))
    assert v.contains(g) == ref_vicinity_contains(c, r, g)
    assert v.contains(c)
    w = Envelope(c + h2.scale(F(1, 8)), r + extra)
    assert v.is_inside(w) == ref_vicinity_is_inside(v, w)
    assert w.is_inside(v) == ref_vicinity_is_inside(w, v)
    lo, hi = data.draw(_off_grid((c, r, g)))
    assert v.min_margin_on(g, lo, hi) == ref_min_margin_on(v, g, lo, hi)
    assert v.min_margin_on(c, lo, hi) == r.restrict(lo, hi).min_value()


def test_tube_checks_need_the_widened_scale():
    # c = x/3 on the grid {0, 1/2, 1}: on the value scale 15 of c and r,
    # c(1/2) = 1/6 is 5/2, so the scale is doubled; the margin is least there
    c = PiecewiseLinear([0, 1], [0, F(1, 3)])
    r = PiecewiseLinear([0, F(1, 2), 1], [1, F(1, 5), 1])
    v = Envelope(c, r)
    assert v.min_margin_on(ZERO, 0, 1) == F(1, 30) == ref_min_margin_on(v, ZERO, 0, 1)
    assert v.min_margin_on(ZERO, F(1, 7), F(2, 3)) == F(1, 30)
    touching = Envelope(c, PiecewiseLinear([0, F(1, 2), 1], [1, F(1, 6), 1]))
    assert touching.contains(ZERO) and touching.min_margin_on(ZERO, 0, 1) == 0
    short = Envelope(c, PiecewiseLinear([0, F(1, 2), 1], [1, F(1, 6) - F(1, 1000), 1]))
    assert not short.contains(ZERO)
    assert ref_vicinity_contains(c, short.radius, ZERO) is False
    outer = Envelope(ZERO, r)
    assert Envelope(c, PiecewiseLinear.constant(0, W01)).is_inside(outer)
    assert not Envelope(c, PiecewiseLinear.constant(F(1, 30) + F(1, 1000), W01)).is_inside(outer)


# margins with breakpoints on the 1/24 grid and values in [1/3, 1], and
# segment ends off it, with denominators 77 and 1000
twenty_fourths = st.integers(0, 24).map(lambda k: F(k, 24))
off_dyadic = st.integers(1, 76).map(lambda k: F(k, 77)) | st.integers(1, 999).map(
    lambda k: F(k, 1000))


@st.composite
def non_dyadic_margins(draw):
    xs = sorted({F(0), F(1), *draw(st.sets(twenty_fourths, max_size=6))})
    vs = draw(st.lists(st.integers(2, 6).map(lambda k: F(k, 6)), min_size=len(xs),
                       max_size=len(xs)))
    return PiecewiseLinear(xs, vs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(non_dyadic_margins(), pl_functions(value=st.integers(4, 32).map(
    lambda k: F(k, 51)))), st.sets(off_dyadic | points, min_size=2, max_size=2))
def test_block_bounds_match_the_fraction_version(margin, window):
    c, d = sorted(window)
    L = max(map(abs, margin.slopes()))
    assert _adaptive_block_bounds(margin, c, d, L) == ref_block_bounds(margin, c, d, L)


# a constant margin 1/2 with L = 0 has step 1/8 and grid 2^-7 from 0: the
# first end is 1/8, and the sliver d - 1/8 merges when it is below 1/16
@pytest.mark.parametrize("c, d, bounds", [
    (F(0), F(3, 16), [F(0), F(1, 8), F(3, 16)]),  # d - q = step/2: kept
    (F(0), F(3, 16) - F(1, 1024), [F(0), F(3, 16) - F(1, 1024)]),  # merged
    (F(0), F(1, 8) + F(1, 77), [F(0), F(1, 8) + F(1, 77)]),  # merged, non-dyadic d
    (F(0), F(1, 16), [F(0), F(1, 16)]),  # q capped at d
    (F(1, 77), F(3, 7), None),  # non-dyadic c and d
])
def test_block_bounds_merge_a_sliver(c, d, bounds):
    margin = PiecewiseLinear.constant(F(1, 2), W01)
    got = _adaptive_block_bounds(margin, c, d, F(0))
    assert got == ref_block_bounds(margin, c, d, F(0))
    if bounds is not None:
        assert got == bounds
