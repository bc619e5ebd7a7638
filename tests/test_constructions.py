import hashlib
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet
from lipsets.constructions import (
    Lip1SumResult,
    SmallLipBlock,
    TernaryDecomposition,
    balance_point,
    build_lip1_sum,
    build_monotone_lip1,
    build_small_lip,
    build_ternary_integral,
    check_monotone_conditions,
    check_ternary,
    normalize_ternary,
    remark_ternary_example,
    small_lip_blocks,
    split_into_bounded_shards,
    worst_imbalance,
)
from lipsets.density import FAILS, HOLDS
from lipsets.pcw import (
    PiecewiseLinear,
    build_signed_integral,
    check_increment_bound,
    local_lip_exact,
    m_ratio,
)

from oracles import brute_one_sided_measure

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


W01 = Interval(F(0), F(1))
W = Interval(F(-1), F(2))

dyadic = st.integers(0, 32).map(lambda k: F(k, 32))


def dyadic_sets():
    return st.lists(st.tuples(dyadic, dyadic), min_size=0, max_size=4).map(
        lambda ps: IntervalSet.from_pairs(
            [(min(a, b), max(a, b)) for a, b in ps if a != b]
        )
    )


# endpoints off the dyadic grid: denominators 3·2^k, 1000 and 77
non_dyadic = st.sampled_from([3, 6, 12, 24, 48, 1000, 77]).flatmap(
    lambda d: st.integers(0, d).map(lambda n: F(n, d)))


@st.composite
def non_dyadic_sets(draw):
    """Up to four components with non-dyadic endpoints in [0, 1], plus up to
    one degenerate component, which may fall inside a ramp."""
    pairs = draw(st.lists(st.tuples(non_dyadic, non_dyadic), max_size=4))
    singles = draw(st.lists(non_dyadic, max_size=1))
    return IntervalSet([Interval(min(a, b), max(a, b)) for a, b in pairs if a != b]
                       + [Interval.point(p) for p in singles], allow_degenerate=True)


def small_lip_inputs(dyadic_eps):
    """(E, ε, window): a dyadic set with ε from dyadic_eps, or a non-dyadic
    set with ε ∈ {2/7, 1/3} and a window whose ends lie off E's grids, one
    inside [0, 1] and two wider than E's hull."""
    windows = [W01, W, Interval(F(-1, 3), F(4, 3)), Interval(F(1, 4), F(5, 8))]
    off_grid = [Interval(F(3, 11), F(9, 13)), Interval(F(-1, 5), F(8, 7)),
                Interval(F(-7, 5), F(31, 13))]
    return st.one_of(
        st.tuples(dyadic_sets(), st.sampled_from(dyadic_eps), st.sampled_from(windows)),
        st.tuples(non_dyadic_sets(), st.sampled_from([F(2, 7), F(1, 3)]),
                  st.sampled_from(off_grid)),
    )


class TestMonotoneBuilder:
    def test_unit_slope_profile(self):
        f = build_monotone_lip1(iset((0, 1)), W01)
        assert f.slopes() == (1,)

    def test_empty_is_zero(self):
        f = build_monotone_lip1(IntervalSet.empty(), W01)
        assert f.sup_norm() == 0

    def test_total_mass(self):
        f = build_monotone_lip1(iset((0, F(1, 4)), (F(1, 2), 1)), W01)
        assert f(1) == F(3, 4)

    def test_local_lip_dichotomy(self):
        E = iset((0, F(1, 4)), (F(1, 2), 1))
        f = build_monotone_lip1(E, W)
        assert local_lip_exact(f, F(1, 8)) == (1, 1)
        assert local_lip_exact(f, F(3, 8)) == (0, 0)

    @settings(max_examples=80)
    @given(dyadic_sets())
    def test_lip_values_on_random_sets(self, E):
        f = build_monotone_lip1(E, W)
        for iv in E:
            assert local_lip_exact(f, iv.midpoint) == (1, 1)
        for a, b in zip(E.intervals, E.intervals[1:]):
            assert local_lip_exact(f, (a.hi + b.lo) / 2) == (0, 0)


class TestMonotoneConditions:
    def test_unit_interval_lip1_mode(self):
        rep = check_monotone_conditions(iset((0, 1)), "Lip1", W, F(1, 8))
        assert all(r.verdict == HOLDS for _, r in rep.on_set)
        failed_at = {x for x, r in rep.on_complement if r.verdict == FAILS}
        assert failed_at == {0, 1}
        # the centered windows around the endpoints have complement density 1/2
        comp = iset((0, 1)).complement_within(W)
        half = comp.intersect(iset((F(-1, 8), F(1, 8)))).measure() / F(1, 4)
        assert half == F(1, 2)

    def test_empty_vacuous(self):
        rep = check_monotone_conditions(IntervalSet.empty(), "Lip1", W, F(1, 4))
        assert rep.on_set == ()
        assert rep.all_hold

    def test_fat_cantor_truncation_reports(self):
        # two levels of a fat-Cantor-style removal from [0,1]
        E = iset((0, F(5, 16)), (F(7, 16), F(9, 16)), (F(11, 16), 1))
        rep = check_monotone_conditions(E, "Lip1", W, F(1, 8))
        assert rep.on_set and rep.on_complement
        for x, r in rep.on_set + rep.on_complement:
            assert r.verdict in (HOLDS, FAILS, "holds-at-scale")
            assert r.ratio is not None

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            check_monotone_conditions(iset((0, 1)), "both", W, F(1, 8))


class TestTernary:
    def test_build_phi_special_case(self):
        t = TernaryDecomposition(
            iset((0, 1)), iset((-1, 0), (1, 2)), IntervalSet.empty(), W
        )
        f = build_ternary_integral(t, 0)
        assert f(1) == 1 and f(-1) == 0

    def test_updown_peak(self):
        t = TernaryDecomposition(
            iset((0, F(1, 2))),
            iset((-1, 0), (1, 2)),
            iset((F(1, 2), 1)),
            W,
        )
        f = build_ternary_integral(t, 0)
        assert f(1) == 0
        assert f(F(1, 2)) == F(1, 2)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            TernaryDecomposition(iset((0, 1)), iset((F(1, 2), 2)), IntervalSet.empty(), W01)

    def test_cover_required(self):
        with pytest.raises(ValueError):
            TernaryDecomposition(iset((0, F(1, 2))), IntervalSet.empty(), IntervalSet.empty(), W01)

    def test_remark_example_slopes(self):
        w = Interval(F(-1, 2), F(3, 2))
        t = remark_ternary_example(3, w)
        f = build_ternary_integral(t, 0)
        # slope -1 on (1/(2n+1), 1/(2n)], +1 on (1/(2n), 1/(2n-1)]
        assert f(F(1, 2)) - f(F(1, 3)) == -(F(1, 2) - F(1, 3))
        assert f(1) - f(F(1, 2)) == F(1, 2)
        assert f(F(1, 4)) - f(F(1, 5)) == -(F(1, 4) - F(1, 5))

    def test_check_trivial_decomposition(self):
        E = iset((0, 1))
        t = TernaryDecomposition(E, E.complement_within(W), IntervalSet.empty(), W)
        rep = check_ternary(t, E, F(1, 8))
        assert rep.condition2_holds_at_scale

    def test_remark_example_balance_at_zero(self):
        w = Interval(F(-1, 2), F(3, 2))
        t = remark_ternary_example(6, w)
        # balanced ±1 blocks: imbalance ratio shrinks along dyadic windows
        vals = [worst_imbalance(t, 0, F(1, 2 ** k))[0] for k in range(2, 7)]
        assert all(v <= F(1, 2) for v in vals)
        assert vals[-1] < vals[0]

    def test_unbalanced_violation_witness(self):
        # E1 carries mass although E is empty: condition 2 must fail with an
        # exact witness at points inside E1
        t = TernaryDecomposition(
            iset((0, 1)), iset((-1, 0), (1, 2)), IntervalSet.empty(), W
        )
        rep = check_ternary(t, IntervalSet.empty(), F(1, 4))
        assert not rep.condition2_holds_at_scale
        ratio, u = worst_imbalance(t, F(1, 2), F(1, 4))
        assert ratio == 1
        violating = [x for x, rows in rep.balance_entries if rows[-1][1] > rep.tolerance]
        assert F(1, 2) in violating

    @settings(max_examples=100)
    @given(dyadic_sets(), dyadic_sets(), dyadic, st.integers(1, 32))
    def test_worst_imbalance_against_all_endpoints(self, A, B, x, rk):
        # direct scan, as for worst_window_ratio: every window [u, u + r] ∋ x
        # starting at x - r, x, an endpoint of E1 or E-1 or one minus r, each
        # mass clipped from the pairs; the leftmost start wins a tie
        em1 = B.intersect(A.complement_within(W01))
        t = TernaryDecomposition(A, A.union(em1).complement_within(W01), em1, W01)
        r = F(rk, 32)
        p1, pm1 = ([(iv.lo, iv.hi) for iv in S] for S in (t.e1, t.em1))

        def imbalance(u):
            return abs(brute_one_sided_measure(p1, u, r, "right")
                       - brute_one_sided_measure(pm1, u, r, "right")) / r

        starts = {x - r, x} | {
            u for e in t.e1.endpoints() + t.em1.endpoints() for u in (e, e - r) if x - r <= u <= x
        }
        expected = max(((imbalance(u), u) for u in starts), key=lambda p: (p[0], -p[1]))
        assert worst_imbalance(t, x, r) == expected
        # no window start on the 1/16 grid of [x - r, x] is worse
        assert all(imbalance(x - r + k * r / 16) <= expected[0] for k in range(17))

    def test_normalize_fixed_point(self):
        E = iset((0, 1))
        t = TernaryDecomposition(E, E.complement_within(W), IntervalSet.empty(), W)
        nt = normalize_ternary(t, E)
        assert nt.e1 == t.e1 and nt.em1 == t.em1 and nt.e0 == t.e0

    def test_normalize_spill_moved(self):
        E = iset((0, 1))
        t = TernaryDecomposition(
            iset((0, F(3, 2))), iset((-1, 0), (F(3, 2), 2)), IntervalSet.empty(), W
        )
        nt = normalize_ternary(t, E)
        assert nt.e1 == E
        assert nt.e0 == E.complement_within(W)
        assert nt.e1.union(nt.em1) == E

    def test_normalize_remark_example(self):
        w = Interval(F(-1, 2), F(3, 2))
        t = remark_ternary_example(4, w)
        E = iset((F(1, 9), w.hi))  # truncated stand-in for (0, ∞)
        nt = normalize_ternary(t, E)
        assert nt.e1.union(nt.em1) == E
        assert nt.e0 == E.complement_within(w)


class TestBalancePoint:
    def test_symmetric_midpoint(self):
        assert balance_point(iset((0, 1)), 0, 1, 0, F(1, 8)) == F(1, 2)

    def test_closed_form_with_target(self):
        delta = F(1, 8)
        target = F(1, 4)
        t = balance_point(iset((0, 1)), 0, 1, target, delta)
        assert t == F(1, 2) + target / (2 * (1 - delta))

    def test_half_mass_block(self):
        assert balance_point(iset((0, F(1, 2))), 0, 1, 0, 0) == F(1, 4)

    def test_leftmost_on_flat_tie(self):
        # E-mass only in [0, 1/4] ∪ [3/4, 1]: h is flat across the middle;
        # tau = 0 is first reached at the end of the left block
        t = balance_point(iset((0, F(1, 4)), (F(3, 4), 1)), 0, 1, 0, 0)
        assert t == F(1, 4)

    def test_unsolvable(self):
        with pytest.raises(ValueError):
            balance_point(iset((0, F(1, 100))), 0, 1, F(1, 2), F(1, 8))
        with pytest.raises(ValueError):
            balance_point(IntervalSet.empty(), 0, 1, F(1, 2), 0)

    def test_empty_block_midpoint(self):
        assert balance_point(IntervalSet.empty(), 0, 1, 0, 0) == F(1, 2)

    @settings(max_examples=120)
    @given(
        dyadic_sets(),
        st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=16),
        st.fractions(min_value=0, max_value=F(1, 4), max_denominator=8),
    )
    def test_defining_equation(self, E, target_frac, delta):
        r, s = F(0), F(1)
        A = E.intersect(iset((r, s))).measure()
        target = target_frac * A * (1 - delta) * F(9, 10)
        if A == 0:
            return
        t = balance_point(E, r, s, target, delta)
        assert r < t < s
        left = E.intersect(iset((r, t))).measure() if r < t else F(0)
        right = E.intersect(iset((t, s))).measure() if t < s else F(0)
        assert (1 - delta) * (left - right) == target

    @settings(max_examples=120)
    @given(
        dyadic_sets(),
        st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=16),
        st.sampled_from([(F(0), F(1)), (F(1, 5), F(7, 9)), (F(-1), F(1, 3))]),
    )
    def test_equals_segment_walk(self, E, target_frac, block):
        # h(t) = 2|E∩[r,t]| - A walked over the segments cut at E's endpoints
        r, s = block
        A = E.intersect(iset((r, s))).measure()
        if A == 0:
            return
        tau = target_frac * A
        cuts = sorted({r, s} | {e for e in E.endpoints() if r < e < s})
        h = -A
        for a, b in zip(cuts, cuts[1:]):
            h_next = h + (2 * (b - a) if E.contains((a + b) / 2) else 0)
            if h_next >= tau:
                break
            h = h_next
        assert balance_point(E, r, s, tau, 0) == a + (tau - h) / 2


class TestSmallLip:
    def test_full_window_sawtooth(self):
        w = Interval(F(0), F(3))
        E = iset((0, 3))
        f = build_small_lip(E, 1, w)
        for i in range(3):
            assert f(i) == 0
            assert f(i + F(1, 2)) == F(1, 2)
        assert f.sup_norm() == F(1, 2)

    def test_empty_zero(self):
        f = build_small_lip(IntervalSet.empty(), 1, W01)
        assert f.sup_norm() == 0

    def test_block_balance_exact(self):
        E = iset((0, F(1, 8)), (F(1, 3), F(5, 8)), (F(7, 8), 1))
        for blk in small_lip_blocks(E, F(1, 4), W01):
            assert blk.left_mass == blk.right_mass

    def test_bounds_exact(self):
        E = iset((0, F(1, 8)), (F(1, 3), F(5, 8)), (F(7, 8), 1))
        eps = F(1, 4)
        f = build_small_lip(E, eps, W01)
        assert f.min_value() >= 0
        assert f.max_value() <= eps

    def test_lip_one_on_e_interior(self):
        E = iset((F(1, 8), F(3, 8)))
        f = build_small_lip(E, F(1, 2), W01)
        assert local_lip_exact(f, F(1, 4)) == (1, 1)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            build_small_lip(iset((0, 1)), 0, W01)

    @settings(max_examples=80)
    @given(dyadic_sets(), st.sampled_from([F(1, 4), F(1, 3), F(1, 2), 1]))
    def test_random_bounds_and_balance(self, E, eps):
        w = Interval(F(0), F(1))
        f = build_small_lip(E, eps, w)
        assert f.min_value() >= 0
        assert f.max_value() <= eps
        rep = check_increment_bound(
            f, E, [(F(k, 7), F(k + 2, 7)) for k in range(5)]
        )
        assert rep.all_ok


def _blocks_by_walk(E, eps, window):
    """Every ε-grid block of the window with positive mass, each found by
    its own mass query."""
    k = -(-window.lo // eps)
    inner = []
    while k * eps < window.hi:
        if window.lo < k * eps:
            inner.append(k * eps)
        k += 1
    cuts = [window.lo] + inner + [window.hi]
    out = []
    for a, b in zip(cuts, cuts[1:]):
        if E.mass(a, b) > 0:
            x = balance_point(E, a, b, 0, 0)
            out.append(SmallLipBlock(a, b, x, E.mass(a, x), E.mass(x, b)))
    return out


class TestSmallLipBlocks:
    # the walk over 3 * 2^10 blocks takes about 0.2 s, near the default deadline
    @settings(max_examples=100, deadline=None)
    @given(small_lip_inputs([F(1, 4), F(1, 3), F(1, 2), 1, F(1, 2 ** 10)]))
    def test_equals_walk_over_every_block(self, inputs):
        E, eps, window = inputs
        assert small_lip_blocks(E, eps, window) == _blocks_by_walk(E, eps, window)

    def test_leftmost_balance_on_a_gap(self):
        # half the mass is reached at 1/4, and Φ stays flat across the gap
        E = iset((0, F(1, 4)), (F(1, 2), F(3, 4)), (F(5, 4), F(3, 2)), (F(7, 4), 2))
        blocks = small_lip_blocks(E, 1, Interval(F(0), F(2)))
        assert [b.balance for b in blocks] == [F(1, 4), F(3, 2)]
        assert blocks == _blocks_by_walk(E, 1, Interval(F(0), F(2)))

    def test_fine_grid_with_sparse_mass(self):
        E = iset((F(1, 7), F(1, 7) + F(1, 2 ** 11)), (F(1, 3), F(3, 8)), (F(9, 10), F(31, 32)))
        eps = F(1, 2 ** 10)
        blocks = small_lip_blocks(E, eps, W)
        assert blocks == _blocks_by_walk(E, eps, W)
        # the three components meet 1, 43 and 71 of the 3 * 2^10 blocks
        assert len(blocks) == 1 + 43 + 71
        assert sum(b.left_mass + b.right_mass for b in blocks) == E.measure()


class TestLip1Sum:
    def test_single_part(self):
        res = build_lip1_sum([iset((0, 1))], Interval(F(-1), F(2)))
        direct = build_small_lip(iset((0, 1)), 1, Interval(F(-1), F(2)))
        assert res.function == direct
        assert res.parts[0].epsilon == 1

    def test_fnnx_bound_two_parts(self):
        res = build_lip1_sum([iset((0, 1)), iset((2, 3))], Interval(F(-1), F(4)))
        p2 = res.parts[1]
        assert p2.epsilon == F(1, 4)  # 2^-2 * min{1, d=1}
        assert p2.distance == 1
        assert p2.sup_norm <= p2.epsilon
        assert p2.constant_off_part

    def test_off_e_ratio_bound(self):
        parts = [iset((0, 1)), iset((2, 3)), iset((F(7, 2), 4))]
        w = Interval(F(-1), F(5))
        res = build_lip1_sum(parts, w)
        f = res.function
        n1 = 2
        first = parts[0].union(parts[1])
        for x in [F(3, 2), F(16, 10), F(13, 10)]:
            r = first.distance_to_point(x)
            assert r > 0
            assert m_ratio(f, x, r) <= 2 * F(1, 2 ** n1)

    def test_zero_distance_part_skipped(self):
        res = build_lip1_sum([iset((0, 1)), iset((1, 2))], Interval(F(-1), F(3)))
        assert res.skipped_parts == (2,)
        assert res.parts[1].distance == 0

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ValueError):
            build_lip1_sum([iset((0, 1)), iset((F(1, 2), 2))], W)

    def test_increment_bound_against_union(self):
        parts = [iset((0, 1)), iset((2, 3))]
        w = Interval(F(-1), F(4))
        res = build_lip1_sum(parts, w)
        union = parts[0].union(parts[1])
        pairs = [(F(k, 5) - 1, F(k, 5)) for k in range(0, 25)]
        assert check_increment_bound(res.function, union, pairs).all_ok

    def test_split_helper(self):
        S = iset((0, 1), (2, 3), (10, 11))
        shards = split_into_bounded_shards(S, 5)
        assert len(shards) == 2
        assert shards[0] == iset((0, 1), (2, 3))
        with pytest.raises(ValueError):
            split_into_bounded_shards(iset((0, 10)), 5)


def _lip1_sum_by_sequential_add(res, parts):
    """Σ f_n as a running total over the whole window, one add per part,
    simplified at the end."""
    fs = [build_small_lip(part, p.epsilon, res.window)
          for part, p in zip(parts, res.parts) if not p.skipped]
    return reduce(PiecewiseLinear.add, fs, PiecewiseLinear.constant(0, res.window)).simplify()


class TestLip1SumInterleaved:
    @pytest.mark.parametrize("parts", [
        # part 1 on both sides of part 2: f_1 is a plateau of height 1/8
        # under f_2's blocks
        [iset((0, F(1, 8)), (F(7, 8), 1)), iset((F(3, 8), F(5, 8)))],
        [iset((0, F(1, 8)), (F(7, 8), 1)), iset((F(3, 8), F(13, 32)), (F(9, 16), F(5, 8))),
         iset((F(1, 4), F(9, 32)), (F(23, 32), F(3, 4)))],
        # part 3 inside part 2's hull, whose blocks carry its own mass
        [iset((-1, F(-1, 2))), iset((0, F(1, 4)), (F(3, 4), 1)), iset((F(3, 8), F(5, 8)))],
    ])
    def test_equals_sequential_add(self, parts):
        res = build_lip1_sum(parts, W)
        assert not res.skipped_parts
        assert res.function.as_pairs() == _lip1_sum_by_sequential_add(res, parts).as_pairs()

    def test_plateau_under_a_later_part(self):
        parts = [iset((0, F(1, 8)), (F(7, 8), 1)), iset((F(3, 8), F(5, 8)))]
        res = build_lip1_sum(parts, W01)
        assert res.parts[1].epsilon == F(1, 16)  # 2^-2 · d = 1/4
        f1 = build_small_lip(parts[0], 1, W01)
        assert f1(F(3, 8)) == f1(F(1, 2)) == F(1, 8)
        # the sum is f_1's plateau plus f_2's sawtooth of height 1/32
        assert res.function(F(3, 8) + F(1, 32)) == F(1, 8) + F(1, 32)
        assert res.function.as_pairs() == _lip1_sum_by_sequential_add(res, parts).as_pairs()


def _small_lip_by_signed_integral(E, eps, window):
    """The sawtooth as ∫(1_{E+} - 1_{E-}): E+ and E- clipped from E on the
    two halves of every block, then integrated from the window's left end."""
    plus, minus = [], []
    for blk in small_lip_blocks(E, eps, window):
        plus.extend(E.clip(Interval(blk.lo, blk.balance)).intervals)
        minus.extend(E.clip(Interval(blk.balance, blk.hi)).intervals)
    return build_signed_integral(IntervalSet(plus), IntervalSet(minus), window.lo, window)


class TestSmallLipRamp:
    @settings(max_examples=160, deadline=None)
    @given(small_lip_inputs([F(1, 4), F(1, 3), F(1, 2), 1, F(1, 2 ** 6)]))
    def test_equals_signed_integral(self, inputs):
        E, eps, window = inputs
        f = build_small_lip(E, eps, window)
        assert f.as_pairs() == _small_lip_by_signed_integral(E, eps, window).as_pairs()
        # points are emitted only where the slope changes
        assert f.simplify() is f

    def test_degenerate_component_inside_a_ramp(self):
        # {3/8} carries no mass: the ramp passes it without a breakpoint
        E = IntervalSet.from_pairs([(0, F(1, 4)), (F(3, 8), F(3, 8)), (F(1, 2), 1)],
                                   allow_degenerate=True)
        f = build_small_lip(E, 1, W01)
        assert f.as_pairs() == ((0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 4)),
                                (F(5, 8), F(3, 8)), (1, 0))


# -- SHA-256 pins of the lip1-builds benchmark inputs (seed 301) ----------------------


def _digest(f):
    """SHA-256 of the exact breakpoint/value pairs, as "x:v" joined by spaces."""
    return hashlib.sha256(" ".join(f"{x}:{v}" for x, v in f.as_pairs()).encode()).hexdigest()


def _random_set(rng, n):
    """n components, one per cell of [0, 1], each half its cell long at a
    random offset in the cell's middle half, endpoints on the 2^-16 grid."""
    units = 2 ** 16
    pairs = []
    for k in range(n):
        lo, hi = k * units // n, (k + 1) * units // n
        p = lo + (hi - lo) // 8 + rng.randrange((hi - lo) // 4)
        pairs.append((F(p, units), F(p + (hi - lo) // 2, units)))
    return IntervalSet.from_pairs(pairs)


def _sharded_set(rng, per_shard, narrow):
    """4 shards of per_shard components; shard k starts at k/4 and spans
    3/16, or with narrow shard 2 ends 2^-12 before shard 3."""
    pairs = []
    for k in range(4):
        span = F(1, 4) - F(1, 2 ** 12) if narrow and k == 1 else F(3, 16)
        cell = span / per_shard
        for i in range(per_shard):
            offset = 0 if i == 0 else F(1, 2) if i == per_shard - 1 else F(rng.randrange(1, 2 ** 11), 2 ** 12)
            lo = F(k, 4) + cell * (i + offset)
            pairs.append((lo, lo + cell / 2))
    return IntervalSet.from_pairs(pairs)


@pytest.fixture(scope="module")
def lip1_inputs():
    """The sets of the lip1-builds benchmark workload at seed 301, drawn in
    its order: five sawtooth sets, then the two sharded sums."""
    rng = random.Random(301)
    saws = [(_random_set(rng, n), eps) for n, eps in
            [(10, F(1, 16)), (20, F(1, 32)), (40, F(1, 32)), (70, F(1, 64)), (100, F(1, 64))]]
    sums = [_sharded_set(rng, 4, False), _sharded_set(rng, 8, True)]
    return saws, sums


class TestLip1BuildPins:
    # digests of the outputs before the sawtooth was built with pcw.ramp_to
    def test_small_lip_digests(self, lip1_inputs):
        saws, _ = lip1_inputs
        assert [_digest(build_small_lip(E, eps, W01)) for E, eps in saws] == SAW_DIGESTS

    def test_lip1_sum_digests(self, lip1_inputs):
        _, sums = lip1_inputs
        results = [build_lip1_sum(split_into_bounded_shards(E, F(1, 4)), W01) for E in sums]
        assert [_digest(res.function) for res in results] == SUM_DIGESTS
        # ε_n = 2^-n min(1, gap): gaps 1/16, 2^-12 and 1/16 between the shards
        assert [p.epsilon for p in results[1].parts] == [1, F(1, 64), F(1, 2 ** 15), F(1, 256)]


SAW_DIGESTS = [
    "ecf8a68c27d36d3c211719f2d6dd795cda789e27c9b423d90b8fee4006b13b47",
    "9db779a4f28f0f793ebf4bda531ba4e910da2090acffa8380f13c6106df74640",
    "a1a4043232cbb82012d2121986435626096e12ddc75889611d506a151a44a1ba",
    "b6e2e756505f12c10b8f843ebcee81f78894485740e377569df3e480983f624d",
    "a80f13e0970669b1ee6a4137bd9d7998100efdeb22fd1791a711278d82aa3842",
]
SUM_DIGESTS = [
    "84ac1a9ef667ce3ff5a626d8971538904209a83351eccd289cbdc74a159cfeeb",
    "a81dd456d3e60d332929b359f2f959ffb6228b37c6156baaa334114cab9afe40",
]
