from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lipsets import density
from lipsets.intervals import Interval, IntervalSet
from lipsets.density import (
    BOTH,
    FAILS,
    HOLDS,
    HOLDS_AT_SCALE,
    LEFT,
    RIGHT,
    DensityReport,
    DyadicBlocksExample,
    MembershipCertificate,
    UDTWitness,
    centered_ratio,
    check_strongly_dense_at,
    check_strongly_one_sided_dense_at,
    check_weakly_center_dense_at,
    check_weakly_dense_at,
    level_set,
    level_set_membership,
    max_ratio,
    merge_udt_witnesses,
    one_sided_measure,
    one_sided_ratio,
    suggest_udt_witness,
    witness_dominates,
    worst_window_ratio,
    _ratio_candidates,
)

from oracles import (
    brute_level_membership,
    brute_max_ratio,
    brute_one_sided_measure,
    ref_one_sided_rows,
    ref_sided_ratio,
    ref_weak_report,
    ref_worst_window_ratio,
)
from strategies import TIE_POINTS, TIE_STEP, float_tie_sets, non_dyadic, non_dyadic_sets

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


GRID_M = 5
dyadic = st.integers(0, 2 ** GRID_M).map(lambda k: F(k, 2 ** GRID_M))


def dyadic_sets():
    return st.lists(st.tuples(dyadic, dyadic), min_size=0, max_size=5).map(
        lambda ps: IntervalSet.from_pairs(
            [(min(a, b), max(a, b)) for a, b in ps if a != b]
        )
    )


# (sets, points, radii in (0, 1)) of three families: dyadic endpoints; the
# float-tie points, 2^-70 apart and one beyond 10^400, so that D_E is large;
# denominators 3·2^k, 1000 and 77
FAMILIES = {
    "dyadic": (dyadic_sets(), dyadic,
               st.integers(1, 2 ** GRID_M - 1).map(lambda k: F(k, 2 ** GRID_M))),
    "float-tie": (float_tie_sets(), st.sampled_from(TIE_POINTS),
                  st.sampled_from([TIE_STEP, 3 * TIE_STEP, F(1, 3) - TIE_STEP, F(1, 2),
                                   F(2, 3) + 2 * TIE_STEP])),
    "non-dyadic": (non_dyadic_sets(), non_dyadic, non_dyadic.filter(lambda r: 0 < r < 1)),
}


def _assert_weak_report(E, x, eps):
    """Both weak checks against the Fraction oracle; at the open end, the
    witness radius lies in (0, ε) and its ratio, recomputed by the oracle's
    masses, beats 1 - ε.  Returns whether either check hit the open end."""
    open_end = False
    for check, centered in ((check_weakly_dense_at, False),
                            (check_weakly_center_dense_at, True)):
        rep = check(E, x, eps)
        expected = ref_weak_report(E, x, eps, centered)
        if expected is not None:
            assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == expected
            continue
        open_end = True
        assert rep.verdict == HOLDS and 0 < rep.worst_r < eps
        assert rep.ratio == ref_sided_ratio(E, x, rep.worst_r, rep.side) > 1 - eps
        if not centered:
            other = RIGHT if rep.side == LEFT else LEFT
            assert ref_sided_ratio(E, x, rep.worst_r, other) <= rep.ratio
    return open_end


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_checks_match_fraction_oracles(family, data):
    sets, points, radii = FAMILIES[family]
    E, x, eps = data.draw(sets), data.draw(points), data.draw(radii)
    grid = sorted(data.draw(st.sets(radii, min_size=1, max_size=4)), reverse=True)
    _assert_weak_report(E, x, eps)
    rep = check_strongly_one_sided_dense_at(E, x, grid)
    rows = ref_one_sided_rows(E, x, grid)
    worst = min(range(len(grid)), key=lambda i: rows[i][3])  # the first on ties
    assert rep.details == rows
    assert (rep.worst_r, rep.ratio) == (grid[worst], rows[worst][3])
    rep = check_strongly_dense_at(E, x, grid)
    windows = [ref_worst_window_ratio(E, x, r) for r in grid]
    worst = min(range(len(grid)), key=lambda i: windows[i][0])
    assert rep.details == tuple((r, *w) for r, w in zip(grid, windows))
    assert (rep.worst_r, rep.ratio) == (grid[worst], windows[worst][0])
    assert worst_window_ratio(E, x, eps) == ref_worst_window_ratio(E, x, eps)


T = TIE_STEP


@pytest.mark.parametrize("E, x, eps", [
    # dyadic: the ratio of [s, 1] from 0 is 1 - s/r, its sup at r = ε = 1/2
    (IntervalSet.from_pairs([(F(1, 4) - F(1, 2 ** 70), 1)]), F(0), F(1, 2)),
    (IntervalSet.from_pairs([(-1, F(1, 4) - F(1, 2 ** 70) - 1), (F(1, 4) - F(1, 2 ** 70), 1)]),
     F(0), F(1, 2)),
    # float ties: [1/3 - 4t, 2/3 + 4t] seen from 0 up to ε = 2/3, and mirrored
    (IntervalSet.from_pairs([(F(1, 3) - 4 * T, F(2, 3) + 4 * T)]), F(0), F(2, 3)),
    (IntervalSet.from_pairs([(-F(2, 3) - 4 * T, -F(1, 3) + 4 * T),
                             (F(1, 3) - 4 * T, F(2, 3) + 4 * T)]), F(0), F(2, 3)),
    # non-dyadic: [1/3, 1] from 0 up to ε = 3/4, and mirrored
    (IntervalSet.from_pairs([(F(1, 3), 1)]), F(0), F(3, 4)),
    (IntervalSet.from_pairs([(-1, -F(1, 3)), (F(1, 3), 1)]), F(0), F(3, 4)),
])
def test_open_end_on_every_family(E, x, eps):
    # the sup of both ratios is attained only at r = ε: the witness is solved
    assert _assert_weak_report(E, x, eps)


class TestDensityRatio:
    def test_right_full(self):
        assert one_sided_ratio(iset((0, 1)), F(0), F(1, 2), RIGHT) == 1

    def test_left_empty(self):
        assert one_sided_ratio(iset((0, 1)), F(0), F(1, 2), LEFT) == 0

    def test_direct_measure(self):
        E = iset((0, F(1, 4)), (F(1, 2), 1))
        assert one_sided_ratio(E, F(1), F(1), LEFT) == F(3, 4)

    def test_both_is_max(self):
        E = iset((0, 1))
        assert max_ratio(E, F(0), F(1, 2)) == 1

    def test_radius_validation(self):
        E = iset((0, 1))
        with pytest.raises(ValueError):
            one_sided_ratio(E, 0, 0, RIGHT)
        with pytest.raises(ValueError):
            one_sided_ratio(E, 0, 1, "up")

    @settings(max_examples=150)
    @given(dyadic_sets(), dyadic, st.integers(1, 2 ** GRID_M))
    def test_bitmask_oracle(self, E, x, rk):
        r = F(rk, 2 ** GRID_M)
        pairs = [(iv.lo, iv.hi) for iv in E]
        assert max_ratio(E, x, r) == brute_max_ratio(pairs, x, r)

    @settings(max_examples=150)
    @given(dyadic_sets(), dyadic, st.integers(1, 2 ** GRID_M))
    def test_masses_match_clipping_oracle(self, E, x, rk):
        r = F(rk, 2 ** GRID_M)
        pairs = [(iv.lo, iv.hi) for iv in E]
        for side in (LEFT, RIGHT):
            assert one_sided_measure(E, x, r, side) == brute_one_sided_measure(
                pairs, x, r, side
            )
        both = brute_one_sided_measure(pairs, x + r, 2 * r, LEFT)
        assert centered_ratio(E, x, r) == both / (2 * r)

    @settings(max_examples=150)
    @given(dyadic_sets(), dyadic, st.integers(1, 2 ** GRID_M))
    def test_candidate_rows_match_clipping_oracle(self, E, x, dk):
        # Φ(x) is read once per query; every row must still hold both masses
        rows = _ratio_candidates(E, x, F(dk, 2 ** GRID_M))
        pairs = [(iv.lo, iv.hi) for iv in E]
        assert [r for r, _, _ in rows] == sorted({r for r, _, _ in rows})
        for r, left, right in rows:
            assert left == brute_one_sided_measure(pairs, x, r, LEFT)
            assert right == brute_one_sided_measure(pairs, x, r, RIGHT)

    def test_one_reader_per_candidate_query(self, monkeypatch):
        # six piece-end rows (five endpoint distances and δ) read Φ twice each
        # after one Φ(x); the three crossings, 5/32, 7/32 and 11/32, read none
        counts = {"readers": 0, "phi": 0}
        integer_rows, phi_on = density._integer_rows, IntervalSet.phi_on

        def counted_rows(*args):
            counts["readers"] += 1
            return integer_rows(*args)

        def counted_phi(self, *args):
            counts["phi"] += 1
            return phi_on(self, *args)

        monkeypatch.setattr(density, "_integer_rows", counted_rows)
        monkeypatch.setattr(IntervalSet, "phi_on", counted_phi)
        E = iset((0, F(1, 8)), (F(3, 16), F(5, 16)), (F(11, 32), F(1, 2)), (F(9, 16), F(3, 4)))
        rows = _ratio_candidates(E, F(5, 16), F(3, 8))
        assert counts == {"readers": 1, "phi": 13}
        assert [r for r, _, _ in rows] == [F(k, 32) for k in (1, 4, 5, 6, 7, 8, 10, 11, 12)]
        counts.update(readers=0, phi=0)
        cert = level_set_membership(E, F(5, 16), F(1, 2), F(3, 8))
        assert counts == {"readers": 1, "phi": 13}
        assert (cert.member, cert.worst_r, cert.worst_ratio) == (True, F(7, 32), F(5, 7))

    def test_side_must_be_left_or_right(self):
        E = iset((0, 1))
        for side in (BOTH, "up"):
            with pytest.raises(ValueError, match="side"):
                one_sided_measure(E, 1, F(1, 2), side)
            with pytest.raises(ValueError, match="side"):
                one_sided_ratio(E, 1, F(1, 2), side)

    @settings(max_examples=150)
    @given(dyadic_sets(), dyadic, st.integers(1, 2 ** GRID_M))
    def test_one_sided_rows_match_per_side_ratios(self, E, x, rk):
        r = F(rk, 2 ** GRID_M)
        grid = [r / 2 ** k for k in range(3)]
        rows = check_strongly_one_sided_dense_at(E, x, grid).details
        assert rows == tuple(
            (g, one_sided_ratio(E, x, g, LEFT), one_sided_ratio(E, x, g, RIGHT),
             max_ratio(E, x, g)) for g in grid)

    def test_nonpositive_radius_rejected(self):
        E = iset((0, 1))
        for r in (0, F(-1, 4)):
            for call in (
                lambda: one_sided_measure(E, F(1, 2), r, LEFT),
                lambda: one_sided_ratio(E, F(1, 2), r, RIGHT),
                lambda: centered_ratio(E, F(1, 2), r),
                lambda: worst_window_ratio(E, F(1, 2), r),
            ):
                with pytest.raises(ValueError):
                    call()


def _direct_membership(pairs, x, gamma, delta):
    """Level-set membership with every mass clipped from all components,
    recomputed wherever it is needed, and candidates from all endpoints."""

    def g(r, side):
        return brute_one_sided_measure(pairs, x, r, side)

    pts = sorted({abs(e - x) for p in pairs for e in p if 0 < abs(e - x) < delta})
    pts.append(delta)
    cands = set(pts)
    for ra, rb in zip(pts, pts[1:]):
        bl = (g(rb, LEFT) - g(ra, LEFT)) / (rb - ra)
        br = (g(rb, RIGHT) - g(ra, RIGHT)) / (rb - ra)
        if bl != br:
            cross = ((g(ra, LEFT) - bl * ra) - (g(ra, RIGHT) - br * ra)) / (br - bl)
            if ra < cross < rb:
                cands.add(cross)
    worst = None
    for r in sorted(cands):
        left, right = g(r, LEFT) / r, g(r, RIGHT) / r
        if worst is None or max(left, right) < worst[1]:
            worst = (r, max(left, right), left, right)
    r, m, left, right = worst
    return MembershipCertificate(m >= gamma, r, m, left, right)


class TestLevelSetMembership:
    def test_interior_point(self):
        cert = level_set_membership(iset((0, 1)), F(1, 2), F(1, 2), F(1, 4))
        assert cert.member and cert.worst_ratio == 1

    def test_isolated_exterior(self):
        cert = level_set_membership(iset((0, 1)), F(5, 4), F(1, 2), F(1, 4))
        assert not cert.member and cert.worst_ratio == 0

    def test_membership_exactly_unit_interval(self):
        # E = [0,1], gamma = 1/2, delta = 1/4: membership holds iff x in [0,1]
        E = iset((0, 1))
        for k in range(-8, 17):
            x = F(k, 8)
            cert = level_set_membership(E, x, F(1, 2), F(1, 4))
            assert cert.member == (0 <= x <= 1), x
        for x in [F(-1, 1000), F(1001, 1000), F(1, 1000), F(999, 1000)]:
            cert = level_set_membership(E, x, F(1, 2), F(1, 4))
            assert cert.member == (0 <= x <= 1), x

    def test_certificate_recomputable(self):
        E = iset((0, F(1, 3)), (F(1, 2), 1))
        cert = level_set_membership(E, F(1, 3), F(9, 10), F(1, 2))
        assert cert.left_ratio == one_sided_ratio(E, F(1, 3), cert.worst_r, LEFT)
        assert cert.right_ratio == one_sided_ratio(E, F(1, 3), cert.worst_r, RIGHT)
        assert cert.worst_ratio == max(cert.left_ratio, cert.right_ratio)

    def test_minimum_at_a_crossing(self):
        # left ratio 1/(4r) falls, right ratio 1 - 1/(2r) rises past r = 1/2;
        # they cross at r = 3/4, below both piece ends (1/2 at r = 1/2 and 1)
        E = iset((F(-1, 4), 0), (F(1, 2), 1))
        cert = level_set_membership(E, 0, F(1, 2), 1)
        assert (cert.worst_r, cert.worst_ratio) == (F(3, 4), F(1, 3))
        assert cert.left_ratio == cert.right_ratio == F(1, 3)
        assert not cert.member

    def test_gamma_delta_validation(self):
        with pytest.raises(ValueError):
            level_set_membership(iset((0, 1)), 0, 0, F(1, 4))

    @settings(max_examples=100)
    @given(
        dyadic_sets(),
        dyadic,
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=16),
        st.fractions(min_value=F(1, 16), max_value=F(1, 2), max_denominator=16),
    )
    def test_monotone_in_gamma_delta(self, E, x, gamma, delta):
        cert = level_set_membership(E, x, gamma, delta)
        weaker = level_set_membership(E, x, gamma / 2, delta / 2)
        if cert.member:
            assert weaker.member

    @settings(max_examples=100)
    @given(
        dyadic_sets(),
        dyadic,
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=16),
        st.fractions(min_value=F(1, 16), max_value=F(1, 2), max_denominator=16),
    )
    def test_never_weaker_than_grid_oracle(self, E, x, gamma, delta):
        pairs = [(iv.lo, iv.hi) for iv in E]
        exact = level_set_membership(E, x, gamma, delta)
        oracle_member, oracle_worst = brute_level_membership(
            pairs, x, gamma, delta, m=9
        )
        if exact.member:
            assert oracle_member
        assert exact.worst_ratio <= oracle_worst

    @settings(max_examples=60)
    @given(
        dyadic_sets(),
        dyadic,
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=16),
        st.fractions(min_value=F(1, 16), max_value=F(1, 2), max_denominator=16),
    )
    def test_udt_implies_strong_one_sided_at_scale(self, E, x, gamma, delta):
        cert = level_set_membership(E, x, gamma, delta)
        if not cert.member:
            return
        grid = [delta, delta / 2, delta / 4, delta / 8]
        rep = check_strongly_one_sided_dense_at(E, x, grid, tolerance=1 - gamma)
        assert all(row[3] >= gamma for row in rep.details)

    @settings(max_examples=100)
    @given(
        dyadic_sets(),
        st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=64),
        st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=16),
        st.fractions(min_value=F(1, 64), max_value=F(1, 2), max_denominator=64),
    )
    def test_certificate_equals_direct_computation(self, E, x, gamma, delta):
        pairs = [(iv.lo, iv.hi) for iv in E]
        assert level_set_membership(E, x, gamma, delta) == _direct_membership(
            pairs, x, gamma, delta
        )


class TestLevelSet:
    def test_unit_interval_exact(self):
        res = level_set(iset((0, 1)), F(1, 2), F(1, 4), Interval(F(-1), F(2)), F(1, 16))
        assert res.approximation == iset((0, 1))
        assert res.margin == 0

    def test_empty(self):
        res = level_set(
            IntervalSet.empty(), F(1, 2), F(1, 4), Interval(F(-1), F(1)), F(1, 16)
        )
        assert res.approximation.is_empty

    def test_monotonicity_probe_on_grid(self):
        E = iset((0, F(1, 4)), (F(3, 8), 1))
        for k in range(0, 33):
            x = F(k, 32)
            strong = level_set_membership(E, x, F(3, 4), F(1, 4)).member
            weak = level_set_membership(E, x, F(1, 2), F(1, 8)).member
            assert not strong or weak

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            level_set(iset((0, 1)), F(1, 2), F(1, 4), Interval.point(0), F(1, 16))

    def test_one_piece_per_run_of_members(self, monkeypatch):
        # on [1/8, 1/4] the grid's members read x.xxx: the isolated member
        # 1/8 is a point and the run 3/16, 7/32, 1/4 is one interval
        seen = []

        def capture(pieces, **kw):
            seen.append(list(pieces))
            return IntervalSet(seen[-1], **kw)

        monkeypatch.setattr(density, "IntervalSet", capture)
        E = iset((0, F(1, 16)), (F(1, 8), F(1, 4)))
        res = level_set(E, F(1, 2), F(1, 4), Interval(F(-1), F(1)), F(1, 32))
        pieces = [Interval.point(0), Interval.point(F(1, 16)), Interval.point(F(1, 8)),
                  Interval(F(3, 16), F(1, 4))]
        assert seen == [pieces]
        assert res.approximation == IntervalSet(pieces, allow_degenerate=True)

    @pytest.mark.parametrize("gamma, delta", [
        (-1, F(1, 64)), (F(1, 2), 0), (F(1, 2), F(-1, 8))])
    def test_nonpositive_gamma_or_delta_rejected(self, gamma, delta):
        # as level_set_membership rejects them, not E back with margin 0
        with pytest.raises(ValueError, match="gamma and delta must be positive"):
            level_set(iset((0, F(1, 2))), gamma, delta, Interval(F(0), F(1)), F(1, 64))

    @pytest.mark.parametrize("length, zone", [
        (F(1, 24), (F(0), F(1, 24))),  # below δ: the whole component
        (F(1, 16), (F(0), F(1, 16))),  # δ
        (F(3, 32), (F(1, 32), F(1, 16))),  # between δ and 2δ: [c1 - δ, c0 + δ]
        (F(1, 8), None),  # 2δ: every point is a member
        (F(5, 32), None),  # above 2δ
    ])
    def test_component_lengths_around_delta(self, length, zone):
        # only the middle zone [max(c0, c1-δ), min(c1, c0+δ)] of a component
        # is sampled, at ceil(|zone| / resolution) equal cells, and the
        # result is the sure parts plus the members on that grid
        delta, resolution, gamma = F(1, 16), F(1, 64), F(3, 4)
        E = iset((0, length))
        res = level_set(E, gamma, delta, Interval(F(-1), F(1)), resolution)
        if zone is None:
            assert res.approximation == E and res.margin == 0
            return
        lo, hi = zone
        n = -(-(hi - lo) // resolution)
        grid = [lo + i * (hi - lo) / n for i in range(n + 1)]
        member = [level_set_membership(E, p, gamma, delta).member for p in grid]
        pieces = [iv for iv in (Interval(0, lo), Interval(hi, length)) if not iv.is_degenerate]
        pieces += [Interval(p, q) for p, q, mp, mq in zip(grid, grid[1:], member, member[1:])
                   if mp and mq]
        pieces += [Interval.point(p) for p, m in zip(grid, member) if m]
        expected = IntervalSet(pieces, allow_degenerate=True)
        assert res.approximation == expected
        assert res.margin == (hi - lo) / n

    @pytest.mark.parametrize("gamma", [F(1), F(3, 2)])
    def test_gamma_at_least_one_agrees_with_membership(self, gamma):
        # no ratio exceeds 1: for γ > 1 no point is a member, so the sure
        # parts of the components are not members either
        E = iset((0, F(1, 2)), (F(3, 4), 1))
        delta, resolution = F(1, 16), F(1, 64)
        res = level_set(E, gamma, delta, Interval(F(0), F(1)), resolution)
        grid = [k * resolution for k in range(65)]
        members = [x for x in grid if level_set_membership(E, x, gamma, delta).member]
        assert [x for x in grid if res.approximation.contains(x)] == members
        assert res.margin == 0
        assert bool(members) == (gamma <= 1)

    def test_short_component_sampled_with_margin(self):
        # component shorter than delta: middle zone must be sampled
        E = iset((0, F(1, 8)))
        res = level_set(E, F(1, 2), F(1, 2), Interval(F(-1), F(1)), F(1, 64))
        assert 0 < res.margin <= F(1, 64)
        assert res.approximation.measure() <= E.measure()


class TestWeaklyDense:
    def test_boundary_point_holds(self):
        rep = check_weakly_dense_at(iset((0, 1)), 1, F(1, 10))
        assert rep.verdict == HOLDS and rep.ratio == 1 and rep.side == LEFT
        assert 0 < rep.worst_r < F(1, 10)

    def test_far_point_fails(self):
        rep = check_weakly_dense_at(iset((0, 1)), F(3, 2), F(1, 4))
        assert rep.verdict == FAILS

    def test_witness_recomputable(self):
        E = iset((0, F(1, 3)), (F(2, 5), 1))
        rep = check_weakly_dense_at(E, F(2, 5), F(1, 8))
        assert rep.verdict == HOLDS
        assert one_sided_ratio(E, F(2, 5), rep.worst_r, rep.side) == rep.ratio
        assert rep.ratio > 1 - F(1, 8)

    def test_center_dense(self):
        rep = check_weakly_center_dense_at(iset((-1, 1)), 0, F(1, 8))
        assert rep.verdict == HOLDS
        rep2 = check_weakly_center_dense_at(iset((0, 1)), 0, F(1, 8))
        assert rep2.verdict == FAILS  # centered ratio caps at 1/2

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            check_weakly_dense_at(iset((0, 1)), 0, F(3, 2))

    def test_failure_reported_at_the_best_radius(self):
        # E = [0, 1/8], x = 3/16: both ratios peak at r = 3/16 (the far end
        # of E), inside (0, ε), below the threshold 3/4
        E, x, eps = iset((0, F(1, 8))), F(3, 16), F(1, 4)
        rep = check_weakly_dense_at(E, x, eps)
        assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == (FAILS, F(3, 16), F(2, 3), LEFT)
        rep = check_weakly_center_dense_at(E, x, eps)
        assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == (FAILS, F(3, 16), F(1, 3), BOTH)

    @settings(max_examples=200)
    @given(
        dyadic_sets(),
        dyadic,
        st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64),
    )
    def test_reports_match_per_candidate_ratios(self, E, x, eps):
        # outside the open end, verdict, radius, ratio and side are those of
        # one ratio call per candidate; at the open end the witness is exact
        for check, centered in ((check_weakly_dense_at, False),
                                (check_weakly_center_dense_at, True)):
            rep = check(E, x, eps)
            expected = ref_weak_report(E, x, eps, centered)
            if expected is not None:
                assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == expected
                continue
            assert rep.verdict == HOLDS and 0 < rep.worst_r < eps
            if centered:
                assert rep.ratio == centered_ratio(E, x, rep.worst_r)
            else:
                assert rep.ratio == one_sided_ratio(E, x, rep.worst_r, rep.side)
                assert rep.ratio == max_ratio(E, x, rep.worst_r)
            assert rep.ratio > 1 - eps

    @pytest.mark.parametrize("k", [10, 70, 200])
    @pytest.mark.parametrize("centered", [False, True])
    def test_open_end_witness_is_solved_exactly(self, k, centered):
        # s = 1/4 - 2^-k: the ratio on [s, 1/2] is 1 - s/r (both checks),
        # above 1/2 only for r > 2s = 1/2 - 2^(1-k), so the sup 1/2 + 2^(1-k)
        # is at the open end ε = 1/2, and every witness lies in (2s, ε), an
        # interval 2^(1-k) wide; the reported one is its midpoint.
        s, eps = F(1, 4) - F(1, 2 ** k), F(1, 2)
        if centered:
            E = iset((-1, -s), (s, 1))
            rep = check_weakly_center_dense_at(E, 0, eps)
            ratio = centered_ratio(E, 0, rep.worst_r)
        else:
            E = iset((s, 1))
            rep = check_weakly_dense_at(E, 0, eps)
            ratio = one_sided_ratio(E, 0, rep.worst_r, RIGHT)
            assert rep.side == RIGHT
        assert rep.verdict == HOLDS and 0 < rep.worst_r < eps
        assert rep.worst_r == eps - F(1, 2 ** k)
        assert rep.ratio == ratio > F(1, 2)

    def test_open_end_without_an_inner_candidate(self):
        # no endpoint within ε of x: the ratio is constant on (0, ε]
        rep = check_weakly_dense_at(iset((0, 1)), F(1, 2), F(1, 8))
        assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == (HOLDS, F(1, 16), 1, LEFT)
        rep = check_weakly_center_dense_at(iset((0, 1)), F(1, 2), F(1, 8))
        assert (rep.verdict, rep.worst_r, rep.ratio, rep.side) == (HOLDS, F(1, 16), 1, BOTH)


class TestStronglyOneSided:
    def test_interior_all_ones(self):
        grid = [F(1, 4), F(1, 8), F(1, 16)]
        rep = check_strongly_one_sided_dense_at(iset((0, 1)), F(1, 2), grid)
        assert rep.verdict == HOLDS_AT_SCALE
        assert all(row[3] == 1 for row in rep.details)

    def test_prop5_closure_fails_at_zero(self):
        ex = DyadicBlocksExample.build(4)
        grid = [ex.critical_radius(n) for n in range(1, -3, -1)]
        rep = check_strongly_one_sided_dense_at(ex.closure, 0, grid, tolerance=F(1, 2))
        assert rep.verdict == FAILS
        # right ratio of the infinite set at the documented radii is exactly 1/3
        for n in range(-1, 2):
            r = ex.critical_radius(n)
            assert ex.right_density_infinite(r) == F(1, 3)
            trunc = one_sided_ratio(ex.closure, 0, r, RIGHT)
            tail = ex.right_measure_infinite(r) - trunc * r
            assert tail == F(2) ** (-ex.depth - 2)
        # left ratio is 0 at every radius
        assert one_sided_ratio(ex.closure, 0, F(5), LEFT) == 0

    def test_prop5_truncated_blocks(self):
        ex = DyadicBlocksExample.build(3)
        assert iset((F(3, 4), 1), (F(3, 2), 2)).intersect(ex.truncated).measure() == F(3, 4)
        assert ex.closure.contains(0)

    def test_remark_one_sided_but_not_ordinary_dense(self):
        # truncation (n <= 6) of the two-sided block example: near 0 the max
        # one-sided ratio stays high along the documented radii while each
        # fixed side drops below 1/2 at some radius.
        right = [(F(1, 2 ** (2 * n + 1) ** 2), F(n, 2 ** (2 * n) ** 2)) for n in range(1, 7)]
        left = [(F(-n, 2 ** (2 * n + 1) ** 2), F(-1, 2 ** (2 * n + 2) ** 2)) for n in range(1, 7)]
        E = IntervalSet.from_pairs(right + left)
        for n in range(2, 6):
            r_good = F(1, 2 ** (2 * n) ** 2)
            assert max_ratio(E, 0, r_good) >= 1 - F(1, 2 ** n)
            assert one_sided_ratio(E, 0, r_good, LEFT) < F(1, 2)
            r_left = F(1, 2 ** (2 * n + 1) ** 2)
            assert one_sided_ratio(E, 0, r_left, RIGHT) < F(1, 2)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_strongly_one_sided_dense_at(iset((0, 1)), 0, [F(1, 8), F(1, 4)])


class TestStronglyDense:
    def test_worst_window(self):
        ratio, t = worst_window_ratio(iset((0, 1)), 0, F(1, 2))
        assert ratio == 0 and t == F(-1, 2)

    def test_worst_window_leftmost_start_on_a_tie(self):
        # |E ∩ [t, t + 1/4]| is 1/16 for all t in [3/8, 7/16]; the left end
        # 3/8 = 5/8 - 1/4 comes from an endpoint to the right of x
        E = iset((0, F(7, 16)), (F(5, 8), 1))
        assert worst_window_ratio(E, F(1, 2), F(1, 4)) == (F(1, 4), F(3, 8))

    @settings(max_examples=100)
    @given(dyadic_sets(), dyadic, st.integers(1, 2 ** GRID_M))
    def test_worst_window_against_all_endpoints(self, E, x, rk):
        # direct scan: every window [t, t + r] ∋ x starting at x - r, x, an
        # endpoint or an endpoint minus r, each mass clipped from E
        r = F(rk, 2 ** GRID_M)
        pairs = [(iv.lo, iv.hi) for iv in E]
        starts = {x - r, x} | {
            t for e in E.endpoints() for t in (e, e - r) if x - r <= t <= x
        }
        expected = min(
            (brute_one_sided_measure(pairs, t, r, RIGHT) / r, t) for t in starts
        )
        assert worst_window_ratio(E, x, r) == expected

    def test_interior_holds(self):
        rep = check_strongly_dense_at(iset((0, 1)), F(1, 2), [F(1, 4), F(1, 8)])
        assert rep.verdict == HOLDS_AT_SCALE

    def test_boundary_fails(self):
        rep = check_strongly_dense_at(iset((0, 1)), 0, [F(1, 4)])
        assert rep.verdict == FAILS

    def test_first_worst_radius_on_a_tie(self):
        grid = [F(1, 4), F(1, 8)]
        for check in (check_strongly_dense_at, check_strongly_one_sided_dense_at):
            rep = check(iset((0, 1)), F(1, 2), grid)
            assert (rep.worst_r, rep.ratio) == (F(1, 4), 1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_strongly_dense_at(iset((0, 1)), 0, [F(1, 8), F(1, 4)])
        with pytest.raises(ValueError):
            check_strongly_dense_at(iset((0, 1)), 0, [F(1, 4), F(1, 4)])


@pytest.mark.parametrize("check", [check_strongly_dense_at, check_strongly_one_sided_dense_at])
def test_empty_grid_is_named_as_empty(check):
    with pytest.raises(ValueError, match="grid must be nonempty"):
        check(iset((0, 1)), F(1, 2), [])


def test_report_json_on_each_verdict():
    # exact values go out as strings and absent ones as None; details stay out
    holds = check_weakly_dense_at(iset((0, 1)), F(1, 2), F(1, 8))
    fails = check_weakly_dense_at(iset((0, F(1, 8))), F(3, 16), F(1, 4))
    at_scale = check_strongly_dense_at(iset((0, 1)), F(1, 2), [F(1, 4), F(1, 8)])
    assert at_scale.details
    assert [r.to_json() for r in (holds, fails, at_scale, DensityReport(F(-1, 3), FAILS))] == [
        {"point": "1/2", "verdict": HOLDS, "worst_r": "1/16", "ratio": "1", "side": LEFT},
        {"point": "3/16", "verdict": FAILS, "worst_r": "3/16", "ratio": "2/3", "side": LEFT},
        {"point": "1/2", "verdict": HOLDS_AT_SCALE, "worst_r": "1/4", "ratio": "1", "side": None},
        {"point": "-1/3", "verdict": FAILS, "worst_r": None, "ratio": None, "side": None},
    ]
    assert (HOLDS, FAILS, HOLDS_AT_SCALE) == ("holds", "fails", "holds-at-scale")


@pytest.mark.parametrize("check", [check_strongly_one_sided_dense_at, check_strongly_dense_at])
def test_strong_checks_reject_a_tolerance_outside_0_1(check):
    # E = [0, 1/2] misses [5/8, 7/8]: the ratio at x = 3/4 is 0 at both radii
    E, grid = iset((0, F(1, 2))), [F(1, 8), F(1, 16)]
    for tolerance in (2, 1, -1, F(-1, 16)):
        with pytest.raises(ValueError, match=r"tolerance must be in \[0,1\)"):
            check(E, F(3, 4), grid, tolerance)
    assert check(E, F(3, 4), grid, 0).verdict == check(E, F(3, 4), grid, F(15, 16)).verdict == FAILS


class TestUDTWitness:
    def test_validation(self):
        with pytest.raises(ValueError):
            UDTWitness((F(1, 2), F(1, 2)), (F(1, 2), F(1, 4)))
        with pytest.raises(ValueError):
            UDTWitness((F(1, 2),), (F(-1),))

    def test_single_witness_identity(self):
        w = UDTWitness((F(1, 2),), (F(1, 4),))
        assert merge_udt_witnesses([w]) is w

    def test_identical_pair_strictly_dominated(self):
        w = suggest_udt_witness(iset((0, 1)), 3)
        m = merge_udt_witnesses([w, w])
        assert witness_dominates(m, w)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            merge_udt_witnesses([])

    def test_merged_validates_union(self):
        parts = [iset((F(1, 2 ** m), F(1, 2 ** (m - 1)))) for m in range(1, 5)]
        union = parts[0]
        for p in parts[1:]:
            union = union.union(p)
        ws = [suggest_udt_witness(p, 3) for p in parts]
        merged = merge_udt_witnesses(ws)
        for p in parts:
            for iv in p:
                for x in (iv.lo, iv.midpoint, iv.hi):
                    # every prefix index validates, so in particular the tail does
                    n = merged.depth - 1
                    cert = level_set_membership(
                        union, x, merged.gammas[n], merged.deltas[n]
                    )
                    assert cert.member

    def test_no_witness_for_points_only(self):
        # the empty set and a set of isolated points have no component of
        # positive length to size δ_n by; both name the cause
        with pytest.raises(ValueError, match="empty set"):
            suggest_udt_witness(IntervalSet.empty(), 2)
        points = IntervalSet([Interval.point(0), Interval.point(F(1, 3))], allow_degenerate=True)
        with pytest.raises(ValueError, match="single point"):
            suggest_udt_witness(points, 2)
        # one component of positive length is enough
        mixed = points.union(iset((F(1, 2), F(3, 4))))
        assert suggest_udt_witness(mixed, 2).deltas == (F(1, 8), F(1, 16))

    def test_json_round_trip(self):
        w = suggest_udt_witness(iset((0, 1)), 4)
        assert UDTWitness.from_json(w.to_json()) == w
