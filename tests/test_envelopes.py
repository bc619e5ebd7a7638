from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet
from lipsets.envelopes import (
    Envelope,
    FlattenResult,
    PreconditionError,
    RefineResult,
    Vicinity,
    envelope_flatten,
    envelope_refine,
    verify_contraction,
)
from lipsets.pcw import PiecewiseLinear, build_phi, check_increment_bound, first_sloped_segment

from oracles import ref_contraction_witness, ref_vicinity_contains, ref_vicinity_is_inside
from strategies import pl_functions, points

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


W01 = Interval(F(0), F(1))


def const_env(domain, radius):
    return Envelope(
        PiecewiseLinear.constant(-radius, domain),
        PiecewiseLinear.constant(radius, domain),
    )


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
    def test_order_validated(self):
        lo = PiecewiseLinear.constant(1, W01)
        up = PiecewiseLinear.constant(0, W01)
        with pytest.raises(ValueError):
            Envelope(lo, up)

    def test_min_margin(self):
        env = const_env(W01, F(1, 4))
        f = PiecewiseLinear.constant(0, W01)
        assert env.min_margin_on(f, F(1, 8), F(7, 8)) == F(1, 4)

    def test_admits(self):
        env = const_env(W01, F(1, 4))
        assert env.admits(PiecewiseLinear.constant(F(1, 4), W01))
        assert not env.admits(PiecewiseLinear.constant(F(1, 2), W01))


class TestVicinity:
    def test_membership(self):
        v = Vicinity(
            PiecewiseLinear.constant(0, W01), PiecewiseLinear.constant(F(1, 8), W01)
        )
        assert v.contains(PiecewiseLinear.constant(F(1, 8), W01))
        assert not v.contains(PiecewiseLinear.constant(F(1, 4), W01))

    def test_nonnegative_radius(self):
        with pytest.raises(ValueError):
            Vicinity(
                PiecewiseLinear.constant(0, W01),
                PiecewiseLinear.constant(-1, W01),
            )

    def test_nesting(self):
        big = Vicinity(
            PiecewiseLinear.constant(0, W01), PiecewiseLinear.constant(F(1, 2), W01)
        )
        small = Vicinity(
            PiecewiseLinear.constant(F(1, 8), W01),
            PiecewiseLinear.constant(F(1, 4), W01),
        )
        assert small.is_inside(big)
        assert not big.is_inside(small)


class TestVerifyContraction:
    def test_holds_for_scaled_phi(self):
        E = iset((0, F(1, 2)))
        phi = build_phi(E, 0, W01)
        f = phi.scale(F(7, 8))
        assert verify_contraction(f, phi, F(7, 8)) is None

    def test_witness_on_violation(self):
        E = iset((0, F(1, 2)))
        phi = build_phi(E, 0, W01)
        f = phi  # slope 1 > 7/8 on E-part
        w = verify_contraction(f, phi, F(7, 8))
        assert w is not None
        a, b, df, allowed = w
        assert df > allowed


# -- the one-sweep checks against the slow paths they replaced ------------------------

nonneg = st.integers(0, 32).map(lambda k: F(k, 16))
small = st.integers(-8, 8).map(lambda k: F(k, 16))


@settings(max_examples=100)
@given(pl_functions(value=nonneg), st.sampled_from([F(1, 4), F(7, 8), F(1)]), st.data())
def test_verify_contraction_on_unequal_domains(steps, factor, data):
    # φ on [0, 1] is nondecreasing, f lives on a subsegment [a, b]
    rises = [F(0), *steps.values[1:]]
    phi = PiecewiseLinear(steps.breakpoints, [sum(rises[:k + 1]) for k in range(len(rises))])
    a, b = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
    f = data.draw(st.one_of(pl_functions(a, b), st.just(phi.restrict(a, b).scale(factor))))
    assert verify_contraction(f, phi, factor) == ref_contraction_witness(f, phi, factor)


@settings(max_examples=100)
@given(pl_functions(), pl_functions(value=nonneg), pl_functions(value=small),
       pl_functions(value=small), pl_functions(value=nonneg))
def test_vicinity_checks_match_abs_formulation(c, r, h, h2, extra):
    v = Vicinity(c, r)
    g = c + h
    assert v.contains(g) == ref_vicinity_contains(c, r, g)
    w = Vicinity(c + h2, r + extra)
    assert v.is_inside(w) == ref_vicinity_is_inside(v, w)
    assert w.is_inside(v) == ref_vicinity_is_inside(w, v)


class TestEnvelopeRefine:
    def test_zero_function_zigzag(self):
        E = iset((0, 1))
        f = PiecewiseLinear.constant(0, W01)
        env = const_env(W01, F(1, 4))
        delta = F(1, 8)
        res = envelope_refine(f, env, E, 1, delta, segment=(F(1, 8), F(7, 8)))
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
        env = const_env(W01, F(1, 4))
        res = envelope_refine(f, env, E, 1, F(1, 8), segment=(F(1, 4), F(3, 4)))
        assert res.function == f

    def test_endpoint_equality_and_ci_eq(self):
        E = iset((0, F(1, 4)), (F(3, 8), F(5, 8)), (F(3, 4), 1))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(1 - eps)
        env = Envelope(f.shift(-F(1, 8)), f.shift(F(1, 8)))
        delta = F(1, 16)
        res = envelope_refine(f, env, E, eps, delta, segment=(F(1, 8), F(7, 8)))
        g, (c, d) = res.function, res.segment
        assert g(c) == f(c) and g(d) == f(d)
        pts = res.division_points
        for i in range(2, len(pts), 2):
            a, m, b = pts[i - 2], pts[i - 1], pts[i]
            left = E.intersect(iset((a, m))).measure()
            right = E.intersect(iset((m, b))).measure()
            assert (1 - delta) * (left - right) == f(b) - f(a)

    def test_strict_containment(self):
        E = iset((0, 1))
        f = PiecewiseLinear.constant(0, W01)
        env = const_env(W01, F(1, 4))
        res = envelope_refine(f, env, E, 1, F(1, 8), segment=(F(1, 8), F(7, 8)))
        c, d = res.segment
        assert env.min_margin_on(res.function, c, d) > 0

    def test_increment_precondition_enforced(self):
        E = iset((0, 1))
        phi = build_phi(E, 0, W01)
        env = const_env(W01, 2)
        with pytest.raises(PreconditionError):
            envelope_refine(phi, env, E, F(1, 2), F(1, 4), segment=(F(1, 4), F(3, 4)))

    def test_monotone_required(self):
        E = iset((0, 1))
        tent = PiecewiseLinear([0, F(1, 2), 1], [0, F(1, 4), 0])
        env = const_env(W01, 2)
        with pytest.raises(PreconditionError):
            envelope_refine(tent, env, E, F(1, 2), F(1, 4))

    def test_monotone_witness(self):
        E = iset((0, 1))
        tent = PiecewiseLinear([0, F(1, 2), 1], [0, F(1, 4), 0])
        env = const_env(W01, 2)
        with pytest.raises(PreconditionError) as info:
            envelope_refine(tent, env, E, F(1, 2), F(1, 4))
        a, m, b = info.value.witness
        assert 0 < a < m < b < 1 and m == F(1, 2)
        left = (tent(m) - tent(a)) / (m - a)
        right = (tent(b) - tent(m)) / (b - m)
        assert left * right < 0

    def test_monotone_witness_across_plateau(self):
        E = iset((0, 1))
        f = PiecewiseLinear([0, F(1, 4), F(1, 2), 1], [0, F(1, 8), F(1, 8), 0])
        env = const_env(W01, 2)
        with pytest.raises(PreconditionError) as info:
            envelope_refine(f, env, E, F(1, 2), F(1, 4), segment=(F(1, 8), F(7, 8)))
        a, m, b = info.value.witness
        assert F(1, 8) <= a < m < b <= F(7, 8)
        assert (f(m) - f(a)) * (f(b) - f(m)) < 0

    def test_monotone_checked_on_segment_only(self):
        E = iset((0, 1))
        f = PiecewiseLinear([0, F(1, 8), 1], [0, F(1, 16), 0])  # peak off segment
        env = const_env(W01, 2)
        res = envelope_refine(f, env, E, F(1, 2), F(1, 4), segment=(F(1, 4), F(3, 4)))
        c, d = res.segment
        assert res.function(c) == f(c) and res.function(d) == f(d)

    def test_monotone_opt_out(self):
        E = iset((0, 1))
        phi = build_phi(E, 0, W01)
        tent = PiecewiseLinear([0, F(1, 2), 1], [0, F(1, 4), 0])
        env = const_env(W01, 2)
        delta = F(1, 4)
        res = envelope_refine(tent, env, E, F(1, 2), delta, require_monotone=False)
        g, (c, d) = res.function, res.segment
        assert g(c) == tent(c) and g(d) == tent(d)
        assert env.min_margin_on(g, c, d) > 0
        assert verify_contraction(g, phi, 1 - delta) is None

    def test_increment_bound_of_output(self):
        E = iset((0, F(1, 2)), (F(5, 8), 1))
        f = build_phi(E, 0, W01).scale(F(1, 2))
        env = Envelope(f.shift(-F(1, 4)), f.shift(F(1, 4)))
        res = envelope_refine(f, env, E, F(1, 2), F(1, 4), segment=(F(1, 16), F(15, 16)))
        pairs = [(F(i, 13), F(j, 13)) for i in range(13) for j in range(i + 1, 13)]
        assert check_increment_bound(res.function, E, pairs).all_ok


class TestEnvelopeFlatten:
    def test_identity_when_h_empty(self):
        E = iset((0, 1))
        f = build_phi(E, 0, W01).scale(F(1, 2))
        env = Envelope(f.shift(-F(1, 4)), f.shift(F(1, 4)))
        res = envelope_flatten(
            f, env, E, IntervalSet.empty(), F(1, 2), F(1, 4),
            segment=(F(1, 8), F(7, 8))
        )
        assert res.function == f

    def test_constant_on_zero_mass(self):
        E = iset((0, F(1, 4)))
        phi = build_phi(E, 0, W01)
        f = PiecewiseLinear.constant(F(1, 10), W01)
        env = const_env(W01, F(1, 2))
        H = iset((F(1, 2), F(5, 8)))
        res = envelope_flatten(f, env, E, H, F(1, 2), F(1, 4), segment=(F(3, 8), F(7, 8)))
        assert res.function == f  # f already flat; identity survives

    def test_ramps_flat_on_h(self):
        E = iset((F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(1 - eps)
        env = Envelope(f.shift(-F(1, 2)), f.shift(F(1, 2)))
        H = iset((F(7, 16), F(9, 16)))
        delta = F(1, 8)
        res = envelope_flatten(f, env, E, H, eps, delta, segment=(F(1, 16), F(15, 16)))
        g = res.function
        assert first_sloped_segment(g, H) is None
        c, d = res.segment
        assert g(c) == f(c) and g(d) == f(d)
        assert verify_contraction(g, phi, 1 - delta) is None
        assert res.gamma_scale < 1 - delta
        assert (1 - delta) * res.selected_mass > res.required_mass

    def test_descending_cells(self):
        E = iset((F(1, 8), F(3, 8)), (F(5, 8), F(7, 8)))
        phi = build_phi(E, 0, W01)
        eps = F(1, 4)
        f = phi.scale(-(1 - eps))  # decreasing
        env = Envelope(f.shift(-F(1, 2)), f.shift(F(1, 2)))
        H = iset((F(7, 16), F(9, 16)))
        res = envelope_flatten(f, env, E, H, eps, F(1, 8), segment=(F(1, 16), F(15, 16)))
        g = res.function
        assert first_sloped_segment(g, H) is None
        assert g(res.segment[0]) == f(res.segment[0])
        assert g(res.segment[1]) == f(res.segment[1])

    def test_h_meets_e_rejected(self):
        E = iset((0, 1))
        f = PiecewiseLinear.constant(0, W01)
        env = const_env(W01, 1)
        with pytest.raises(PreconditionError):
            envelope_flatten(f, env, E, iset((F(1, 4), F(1, 2))), F(1, 2), F(1, 4))

    def test_nonflat_h_outside_segment_rejected(self):
        E = iset((0, F(1, 2)))
        phi = build_phi(E, 0, W01)
        f = phi.scale(F(1, 2))
        env = Envelope(f.shift(-1), f.shift(1))
        H = iset((F(1, 8), F(1, 4)))  # inside E-sloped zone, outside segment
        with pytest.raises(PreconditionError):
            envelope_flatten(f, env, E, H, F(1, 2), F(1, 4),
                             segment=(F(5, 8), F(7, 8)))


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
    env = Envelope(f.shift(-F(1, 8)), f.shift(F(1, 8)))
    res = envelope_refine(f, env, E, eps, delta, segment=(F(1, 8), F(7, 8)))
    g, (c, d) = res.function, res.segment
    assert g(c) == f(c) and g(d) == f(d)
    assert env.min_margin_on(g, c, d) > 0
    assert verify_contraction(g, phi, 1 - delta) is None
