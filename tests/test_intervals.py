from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet, rat

from oracles import (
    brute_one_sided_measure,
    cells_complement,
    cells_intersect,
    cells_measure,
    cells_union,
    ref_clip,
    ref_contains,
    ref_cumulative,
    ref_distance,
    ref_endpoints_in,
    ref_index,
    ref_intersect,
    ref_locate,
    ref_mass,
    to_cells,
)
from strategies import (
    TIE_POINTS, float_tie_sets, near_and_between, non_dyadic, non_dyadic_sets)

F = Fraction


def iset(*pairs):
    return IntervalSet.from_pairs(pairs)


def locate(s, m):
    """The leftmost t with Φ(t) = m, read by `locate_on` on lcm(D_E, den m)."""
    m = F(m)
    scale = lcm(s.mass_scale, m.denominator)
    return F(s.locate_on(scale, m.numerator * (scale // m.denominator)), scale)


# Random dyadic interval sets on a fixed window, for oracle comparison.
GRID_M = 6


def grid_interval(a, b):
    """Grid indices a, b in [0, 2^GRID_M] -> a nonempty interval in [0, 1];
    a degenerate draw becomes one grid cell, widened downward at the top."""
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        lo, hi = (lo, hi + 1) if hi < 2 ** GRID_M else (lo - 1, hi)
    return F(lo, 2 ** GRID_M), F(hi, 2 ** GRID_M)


window_pairs = st.lists(
    st.tuples(st.integers(0, 2 ** GRID_M), st.integers(0, 2 ** GRID_M)),
    max_size=8,
).map(lambda ps: [grid_interval(a, b) for a, b in ps])


def dyadic_sets():
    return window_pairs.map(
        lambda ps: IntervalSet.from_pairs([(a, b) for a, b in ps if a < b])
    )


class TestRat:
    def test_parse_forms(self):
        assert rat("3/4") == F(3, 4)
        assert rat("0.25") == F(1, 4)
        assert rat(2) == F(2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rat(0.1)


class TestCanonicalize:
    def test_adjacent_merge(self):
        assert iset((0, 1), (1, 2)) == iset((0, 2))

    def test_absorption(self):
        assert iset((0, 1), (F(1, 2), F(3, 4))) == iset((0, 1))

    def test_sort(self):
        assert iset((2, 3), (0, 1)).intervals == iset((0, 1), (2, 3)).intervals

    def test_lo_gt_hi_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_degenerate_needs_flag(self):
        with pytest.raises(ValueError):
            IntervalSet([Interval.point(0)])
        s = IntervalSet([Interval.point(0)], allow_degenerate=True)
        assert s.measure() == 0
        assert s.contains(0)

    def test_spec_entry_point(self):
        assert IntervalSet([Interval(F(0), F(1)), Interval(F(1), F(2))]) == iset((0, 2))


class TestMeasure:
    def test_two_blocks(self):
        assert iset((0, 1), (2, 3)).measure() == 2

    def test_empty(self):
        assert IntervalSet.empty().measure() == 0

    def test_sixth_depth_block(self):
        # F_{1,1} of the recursive system has width exactly 1/16.
        assert iset((F(9, 16), F(5, 8))).measure() == F(1, 16)


class TestSetOps:
    def test_intersect(self):
        assert iset((0, 1)).intersect(iset((F(1, 2), 2))) == iset((F(1, 2), 1))

    def test_complement_within(self):
        got = iset((F(1, 4), F(1, 2))).complement_within(Interval(F(0), F(1)))
        assert got == iset((0, F(1, 4)), (F(1, 2), 1))

    def test_union_disjoint(self):
        got = iset((0, F(1, 4))).union(iset((F(3, 4), 1)))
        assert got == iset((0, F(1, 4)), (F(3, 4), 1))

    def test_complement_empty_window(self):
        with pytest.raises(ValueError):
            iset((0, 1)).complement_within(Interval.point(0))


class TestDistance:
    def test_separated(self):
        assert iset((0, 1)).distance(iset((3, 5))) == 2

    def test_overlap(self):
        assert iset((0, 1)).distance(iset((F(1, 2), 2))) == 0

    def test_empty_flag(self):
        assert iset((0, 1)).distance(IntervalSet.empty()) is None

    def test_touching(self):
        assert iset((0, 1)).distance(iset((1, 2))) == 0

    def test_point(self):
        point = IntervalSet([Interval.point(F(3, 2))], allow_degenerate=True)
        assert iset((0, 1)).distance(point) == F(1, 2)

    def test_inside_a_component(self):
        assert iset((0, 1)).distance(iset((F(1, 4), F(1, 2)))) == 0

    def test_nearer_side_of_a_gap(self):
        s = iset((0, 1), (3, 4))
        assert s.distance(iset((F(3, 2), 2))) == F(1, 2)
        assert s.distance(iset((2, F(5, 2)))) == F(1, 2)
        assert s.distance(iset((5, 6))) == iset((5, 6)).distance(s) == 1


@settings(max_examples=200)
@given(dyadic_sets(), dyadic_sets())
def test_inclusion_exclusion(s, t):
    lhs = s.union(t).measure() + s.intersect(t).measure()
    assert lhs == s.measure() + t.measure()


@settings(max_examples=200)
@given(dyadic_sets())
def test_complement_involution(s):
    w = Interval(F(0), F(1))
    assert s.clip(w).complement_within(w).complement_within(w) == s.clip(w)


@settings(max_examples=200)
@given(dyadic_sets(), dyadic_sets())
def test_distance_symmetric(s, t):
    assert s.distance(t) == t.distance(s)


@settings(max_examples=200)
@given(dyadic_sets(), dyadic_sets())
def test_distance_zero_iff_intersect_or_touch(s, t):
    d = s.distance(t)
    if d is None:
        return
    touching = not s.intersect(t).is_empty or any(
        a.hi == b.lo or b.hi == a.lo for a in s for b in t
    )
    assert (d == 0) == touching


def test_grid_interval_stays_in_window():
    top = 2 ** GRID_M
    assert grid_interval(top, top) == (F(top - 1, top), F(1))
    for a in range(top + 1):
        for b in range(top + 1):
            lo, hi = grid_interval(a, b)
            assert 0 <= lo < hi <= 1


@settings(max_examples=150)
@given(dyadic_sets(), dyadic_sets())
@example(IntervalSet.from_pairs([grid_interval(2 ** GRID_M, 2 ** GRID_M)]), IntervalSet.empty())
def test_bitmask_oracle_agreement(s, t):
    w = (F(0), F(1))
    cs, n = to_cells([(iv.lo, iv.hi) for iv in s], w, GRID_M)
    ct, _ = to_cells([(iv.lo, iv.hi) for iv in t], w, GRID_M)
    assert s.measure() == cells_measure(cs, GRID_M)
    assert s.union(t).measure() == cells_measure(cells_union(cs, ct), GRID_M)
    assert s.intersect(t).measure() == cells_measure(cells_intersect(cs, ct), GRID_M)
    win = Interval(F(0), F(1))
    assert s.complement_within(win).measure() == cells_measure(
        cells_complement(cs, n), GRID_M
    )


# -- the cumulative-measure index ------------------------------------------------

grid_points = st.integers(0, 2 ** GRID_M).map(lambda k: F(k, 2 ** GRID_M))
WINDOW = (F(0), F(1))


@settings(max_examples=200)
@given(window_pairs, grid_points, grid_points)
def test_mass_matches_oracles(pairs, a, b):
    a, b = min(a, b), max(a, b)
    s = IntervalSet.from_pairs(pairs)
    cs, _ = to_cells(pairs, WINDOW, GRID_M)
    cw, _ = to_cells([(a, b)], WINDOW, GRID_M)
    expected = cells_measure(cells_intersect(cs, cw), GRID_M)
    assert s.mass(a, b) == expected
    comps = [(iv.lo, iv.hi) for iv in s]
    assert s.mass(a, b) == brute_one_sided_measure(comps, b, b - a, "left")
    assert s.cumulative(b) - s.cumulative(a) == expected
    assert s.cumulative(F(-1)) == 0
    assert s.cumulative(2) == s.measure()


def _cumulative_breakpoints(s):
    out = [F(0)]
    for iv in s:
        out.append(out[-1] + iv.length)
    return out


@settings(max_examples=200)
@given(window_pairs, st.integers(0, 2 ** GRID_M))
def test_locate_inverts_cumulative(pairs, k):
    s = IntervalSet.from_pairs(pairs)
    total = s.measure()
    # every cumulative breakpoint (those between components are reached
    # across a whole gap) plus one value inside a component
    for m in _cumulative_breakpoints(s) + [total * F(k, 2 ** GRID_M)]:
        if 0 < m <= total:
            t = locate(s, m)
            assert t == ref_locate(s, m)
            assert s.cumulative(t) == m
            # leftmost: Φ increases just left of t, so t ∈ (lo, hi] of a component
            assert any(iv.lo < t <= iv.hi for iv in s)


def test_locate_at_a_gap_and_out_of_range():
    s = iset((0, F(1, 4)), (F(1, 2), 1))
    assert locate(s, F(1, 4)) == ref_locate(s, F(1, 4)) == F(1, 4)
    assert locate(s, F(3, 4)) == ref_locate(s, F(3, 4)) == 1
    for m in (0, 1, F(-1, 4)):
        with pytest.raises(ValueError):
            locate(s, m)
        with pytest.raises(ValueError):
            ref_locate(s, m)
    with pytest.raises(ValueError):
        locate(IntervalSet.empty(), F(1, 4))


def test_degenerate_components_carry_no_mass():
    s = IntervalSet([Interval.point(0), Interval(F(1, 2), F(1))], allow_degenerate=True)
    assert s.cumulative(0) == 0
    assert s.cumulative(F(3, 4)) == F(1, 4)
    assert s.mass(-1, 1) == F(1, 2)
    assert locate(s, F(1, 4)) == ref_locate(s, F(1, 4)) == F(3, 4)
    assert s.endpoints_in(0, F(1, 2)) == [0, 0, F(1, 2)]


@settings(max_examples=200)
@given(window_pairs, grid_points, grid_points)
def test_endpoints_in_is_a_filter(pairs, lo, hi):
    s = IntervalSet.from_pairs(pairs)
    assert s.endpoints_in(lo, hi) == [e for e in s.endpoints() if lo <= e <= hi]


def test_mass_of_reversed_window_rejected():
    s = iset((0, 1))
    assert s.mass(F(1, 4), F(1, 4)) == 0
    with pytest.raises(ValueError):
        s.mass(F(3, 4), F(1, 4))


def test_index_keeps_equality_and_hash():
    s, t = iset((0, F(1, 3)), (F(1, 2), 1)), iset((0, F(1, 3)), (F(1, 2), 1))
    h, j = hash(s), s.to_json()
    assert not hasattr(s, "_index")  # built on the first mass query only
    assert s.mass(F(1, 4), F(3, 4)) == F(1, 3)
    assert hasattr(s, "_index") and not hasattr(t, "_index")
    assert s == t and t == s
    assert hash(s) == h == hash(t)
    assert s.to_json() == j == t.to_json()
    assert s != iset((0, 1))
    # union, comparison and serialization build no index, and intersect and
    # clip build only their receiver's, so the result u has none
    u = s.union(t).intersect(iset((0, 1))).clip(Interval(F(0), F(1, 2)))
    assert u != s and isinstance(hash(u), int) and u.to_json() != j and u.measure() == F(1, 3)
    assert not hasattr(u, "_index")


def test_json_round_trip():
    s = iset((0, F(1, 3)), (F(1, 2), 1))
    assert IntervalSet.from_json(s.to_json()) == s
    s2 = IntervalSet([Interval.point(0), Interval(F(1, 2), F(1))], allow_degenerate=True)
    assert IntervalSet.from_json(s2.to_json()) == s2


# -- clip by bisect ------------------------------------------------------------------


@settings(max_examples=300)
@given(window_pairs, st.lists(grid_points, max_size=3), grid_points, grid_points)
def test_clip_matches_intersect_and_oracle(pairs, points, a, b):
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    # degenerate components at the drawn points, unless a pair absorbs them
    s = IntervalSet(
        [Interval(p, q) for p, q in pairs] + [Interval.point(p) for p in points],
        allow_degenerate=True,
    )
    w = Interval(lo, hi)
    clipped = s.clip(w)
    assert clipped == s.intersect(IntervalSet([w]))
    cs, _ = to_cells(pairs, WINDOW, GRID_M)
    cw, _ = to_cells([(lo, hi)], WINDOW, GRID_M)
    cc, _ = to_cells([(iv.lo, iv.hi) for iv in clipped], WINDOW, GRID_M)
    assert cc == cells_intersect(cs, cw)


def test_clip_at_touching_windows_and_points():
    s = IntervalSet(
        [Interval.point(0), Interval(F(1, 4), F(1, 2)), Interval.point(F(5, 8)),
         Interval(F(7, 8), F(1))],
        allow_degenerate=True,
    )
    windows = [(-1, 0), (0, F(1, 4)), (F(1, 2), F(5, 8)), (F(5, 8), F(7, 8)),
               (F(1, 2), F(7, 8)), (1, 2), (F(3, 8), F(15, 16)), (-1, 2)]
    for lo, hi in windows:
        w = Interval(F(lo), F(hi))
        assert s.clip(w) == s.intersect(IntervalSet([w])), w
    for lo, hi in windows[:6]:  # each touches components at single points only
        assert s.clip(Interval(F(lo), F(hi))).is_empty
    assert s.clip(Interval(F(3, 8), F(15, 16))) == iset((F(3, 8), F(1, 2)), (F(7, 8), F(15, 16)))
    assert s.clip(Interval(F(-1), F(2))) == iset((F(1, 4), F(1, 2)), (F(7, 8), 1))
    assert IntervalSet.empty().clip(Interval(F(0), F(1))).is_empty
    with pytest.raises(ValueError):  # as IntervalSet([window]) would
        s.clip(Interval.point(F(1, 3)))


# -- results built without canonicalizing -------------------------------------------


def _with_points(pairs, points):
    return IntervalSet([Interval(p, q) for p, q in pairs] + [Interval.point(p) for p in points],
                       allow_degenerate=True)


# (sets with degenerate components, window ends) of three families: the
# dyadic grid; the float-tie points, 2^-70 apart and one beyond 10^400;
# denominators 3·2^k, 1000 and 77
TRUSTED_FAMILIES = {
    "dyadic": (st.builds(_with_points, window_pairs, st.lists(grid_points, max_size=3)),
               grid_points),
    "float-tie": (float_tie_sets(), st.sampled_from(near_and_between(TIE_POINTS))),
    "non-dyadic": (non_dyadic_sets(), non_dyadic),
}


def _is_canonical(s):
    ivs = s.intervals
    return (all(iv.lo < iv.hi for iv in ivs)
            and all(a.hi < b.lo for a, b in zip(ivs, ivs[1:])))


def _gaps(pairs, a, b):
    """The closed gaps of sorted disjoint pairs inside [a, b], with lo < hi."""
    ends = [a, *(e for pair in pairs for e in pair), b]
    return [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]


@pytest.mark.parametrize("family", sorted(TRUSTED_FAMILIES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trusted_results_are_canonical(family, data):
    # clip, complement_within and intersect skip the canonicalizing
    # constructor: each result must be what it would build, and match the
    # Fraction bisects of ref_clip
    sets, ends = TRUSTED_FAMILIES[family]
    s, t = data.draw(sets), data.draw(sets)
    a, b = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    w = Interval(a, b)
    clipped, comp, meet = s.clip(w), s.complement_within(w), s.intersect(t)
    for result in (clipped, comp, meet):
        assert _is_canonical(result)
        assert result == IntervalSet(list(result), allow_degenerate=True)
    assert [(iv.lo, iv.hi) for iv in clipped] == ref_clip(s, a, b)
    assert [(iv.lo, iv.hi) for iv in comp] == _gaps(ref_clip(s, a, b), a, b)
    assert [(iv.lo, iv.hi) for iv in meet] == [
        pair for iv in t if not iv.is_degenerate for pair in ref_clip(s, iv.lo, iv.hi)]
    # the components clip does not cut are the set's own objects
    own = {(iv.lo, iv.hi): iv for iv in s}
    for iv in clipped:
        if (iv.lo, iv.hi) in own:
            assert iv is own[(iv.lo, iv.hi)]


@pytest.mark.parametrize("families", [(f, g) for f in sorted(TRUSTED_FAMILIES)
                                      for g in sorted(TRUSTED_FAMILIES)], ids="-".join)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_set_queries_match_pairwise_oracles(families, data):
    # intersect, clip and distance against every pair of components, with
    # degenerate components and the denominators of two families mixed
    (s_sets, ends), (t_sets, _) = (TRUSTED_FAMILIES[f] for f in families)
    s, t = data.draw(s_sets), data.draw(t_sets)
    a, b = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    w = IntervalSet([Interval(a, b)])
    assert s.intersect(t) == ref_intersect(s, t)
    assert s.clip(Interval(a, b)) == ref_intersect(s, w)
    assert s.distance(t) == ref_distance(s, t)
    assert s.distance(w) == ref_distance(s, w)


def test_clip_cuts_only_its_ends():
    s = IntervalSet([Interval(F(0), F(1, 4)), Interval.point(F(3, 8)),
                     Interval(F(1, 2), F(5, 8)), Interval(F(3, 4), F(1))], allow_degenerate=True)
    inner, last = s.intervals[2], s.intervals[3]
    clipped = s.clip(Interval(F(1, 8), F(7, 8)))
    assert clipped == iset((F(1, 8), F(1, 4)), (F(1, 2), F(5, 8)), (F(3, 4), F(7, 8)))
    assert clipped.intervals[1] is inner
    whole = s.clip(Interval(F(-1), F(2)))
    assert whole.intervals == (s.intervals[0], inner, last)
    assert all(a is b for a, b in zip(whole.intervals, (s.intervals[0], inner, last)))
    # one component cut at both ends
    assert s.clip(Interval(F(13, 16), F(15, 16))) == iset((F(13, 16), F(15, 16)))
    assert s.complement_within(Interval(F(0), F(1))) == iset(
        (F(1, 4), F(1, 2)), (F(5, 8), F(3, 4)))


# -- membership by bisect --------------------------------------------------------


@settings(max_examples=300)
@given(window_pairs, st.lists(grid_points, max_size=3))
def test_contains_matches_a_scan(pairs, points):
    # degenerate components at the drawn points, unless a pair absorbs them;
    # no pairs and no points give the empty set
    s = IntervalSet(
        [Interval(p, q) for p, q in pairs] + [Interval.point(p) for p in points],
        allow_degenerate=True,
    )
    tiny = F(1, 2 ** (GRID_M + 2))
    ends = s.endpoints()
    gaps = [(a + b) / 2 for a, b in zip(ends[1::2], ends[2::2])]
    probes = {-1, 2, *gaps, *(e + k * tiny for e in ends for k in (-1, 0, 1))}
    for x in probes:
        assert s.contains(x) == any(iv.lo <= x <= iv.hi for iv in s), x


def test_contains_at_points_and_gaps():
    s = IntervalSet([Interval.point(0), Interval(F(1, 4), F(1, 2)), Interval.point(F(5, 8))],
                    allow_degenerate=True)
    inside = [0, F(1, 4), F(3, 8), F(1, 2), F(5, 8)]
    outside = [F(-1, 8), F(1, 8), F(9, 16), F(3, 4)]
    assert all(s.contains(x) for x in inside)
    assert not any(s.contains(x) for x in outside)
    assert s.contains("1/3") and not s.contains(1)
    assert not IntervalSet.empty().contains(0)


# -- points closer than the float spacing, and a large D_E -------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None)
@given(float_tie_sets(), st.data())
def test_float_ties_match_exact_bisects(s, data):
    # queries on, between and 2^-200 off the endpoints: most share their
    # float with an endpoint, and D_E carries 2^70, 3 and 10^400, so every
    # bisect compares large integers
    xs = near_and_between([*TIE_POINTS, *s.endpoints()])
    for x in xs:
        assert s.cumulative(x) == ref_cumulative(s, x), x
        assert s.contains(x) == ref_contains(s, x), x
    windows = data.draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(xs)),
                                 min_size=1, max_size=12))
    for a, b in windows:
        assert _outcome(s.mass, a, b) == _outcome(ref_mass, s, a, b)
        a, b = min(a, b), max(a, b)
        assert s.endpoints_in(a, b) == ref_endpoints_in(s, a, b)
        if a < b:
            assert [(iv.lo, iv.hi) for iv in s.clip(Interval(a, b))] == ref_clip(s, a, b)
    _, cum = ref_index(s)
    for m in near_and_between(cum):
        assert _outcome(locate, s, m) == _outcome(ref_locate, s, m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(float_tie_sets(), non_dyadic_sets()), st.sampled_from([1, 2, 3, 1000]),
       st.data())
def test_locate_on_inverts_phi_on(s, factor, data):
    # on any scale that D_E divides, the integer u of the leftmost t with
    # Φ(t) = y/scale; at and next to every prefix mass, and anywhere inside
    scale = s.mass_scale * factor
    _, cum = ref_index(s)
    total = cum[-1] * scale
    ys = {c * scale + d for c in cum for d in (-1, 0, 1)}
    ys.add(data.draw(st.integers(0, total)))
    for y in sorted(ys):
        expected = _outcome(ref_locate, s, F(y, scale))
        u = _outcome(s.locate_on, scale, y)
        assert u == (expected if expected is ValueError else expected * scale), y
        if u is not ValueError:
            assert s.phi_on(scale, u) == y


def test_float_ties_at_a_hand_made_set():
    # three components inside one float of 1/3, a degenerate component at
    # -10^-400 (whose float is -0.0) and one past the float range
    t, tiny, huge = F(1, 2 ** 70), F(1, 10 ** 400), F(10 ** 400)
    third = F(1, 3)
    s = IntervalSet(
        [Interval.point(-tiny), Interval(0, third - 3 * t), Interval(third - t, third + t),
         Interval(third + 2 * t, third + 4 * t), Interval(huge, huge + 1)],
        allow_degenerate=True,
    )
    assert float(third - 3 * t) == float(third + 4 * t)
    assert s.contains(-tiny) and not s.contains(-tiny / 2) and s.contains(0)
    assert s.contains(third) and not s.contains(third + 3 * t / 2)
    assert not s.contains(third + t + F(1, 2 ** 200)) and s.contains(third + 2 * t)
    assert s.cumulative(third + 3 * t) == third - 3 * t + 2 * t + t
    assert s.mass(third - 2 * t, third + 3 * t) == 3 * t
    assert s.endpoints_in(third - t, third + 2 * t) == [third - t, third + t, third + 2 * t]
    assert s.clip(Interval(third, huge + F(1, 2))) == IntervalSet.from_pairs(
        [(third, third + t), (third + 2 * t, third + 4 * t), (huge, huge + F(1, 2))])
    total = s.measure()
    assert locate(s, total) == ref_locate(s, total) == huge + 1
    assert locate(s, total - F(1, 2)) == ref_locate(s, total - F(1, 2)) == huge + F(1, 2)
