"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear
from lipsets.udt import NestedClosedSystem

F = Fraction

values = st.integers(-32, 32).map(lambda k: F(k, 16))
points = st.integers(0, 64).map(lambda k: F(k, 64))  # the grid on [0, 1]


@st.composite
def pl_functions(draw, lo=F(0), hi=F(1), max_inner=8, value=values):
    """A random piecewise-linear function on [lo, hi], with breakpoints on
    the 1/64 grid of [lo, hi]."""
    inner = draw(st.lists(points.map(lambda t: lo + t * (hi - lo)), max_size=max_inner))
    xs = sorted({lo, hi, *inner})
    vs = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    return PiecewiseLinear(xs, vs)


# Points whose floats collide: runs spaced 2^-70 around 1/3 and 2/3, far
# below the float spacing of 2^-54 there, then 0, a point that underflows to
# -0.0 and one past the float range.
TIE_STEP = F(1, 2 ** 70)
TIE_POINTS = sorted(
    [c + k * TIE_STEP for c in (F(1, 3), F(2, 3)) for k in range(-4, 5)]
    + [F(0), -F(1, 10 ** 400), F(10 ** 400) + F(1, 3)]
)


@st.composite
def float_tie_sets(draw):
    """An IntervalSet with endpoints from TIE_POINTS: consecutive pairs of a
    drawn subset, plus up to two degenerate components."""
    ends = sorted(draw(st.sets(st.sampled_from(TIE_POINTS), max_size=12)))
    singles = draw(st.lists(st.sampled_from(TIE_POINTS), max_size=2))
    return IntervalSet(
        [Interval(a, b) for a, b in zip(ends[::2], ends[1::2])]
        + [Interval.point(p) for p in singles],
        allow_degenerate=True,
    )


# endpoints off the dyadic grid: denominators 3·2^k, 1000 and 77
non_dyadic = st.sampled_from([3, 6, 12, 24, 48, 1000, 77]).flatmap(
    lambda d: st.integers(0, d).map(lambda n: F(n, d)))


@st.composite
def non_dyadic_functions(draw):
    """A piecewise-linear function on [0, 1] with up to six inner breakpoints
    and its values off the dyadic grid, values in [-1, 1]."""
    xs = sorted({F(0), F(1), *draw(st.sets(non_dyadic, max_size=6))})
    signed = st.tuples(non_dyadic, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return PiecewiseLinear(xs, draw(st.lists(signed, min_size=len(xs), max_size=len(xs))))


@st.composite
def non_dyadic_sets(draw):
    """Up to four components with non-dyadic endpoints in [0, 1], plus up to
    one degenerate component, which may fall inside a ramp."""
    pairs = draw(st.lists(st.tuples(non_dyadic, non_dyadic), max_size=4))
    singles = draw(st.lists(non_dyadic, max_size=1))
    return IntervalSet([Interval(min(a, b), max(a, b)) for a, b in pairs if a != b]
                       + [Interval.point(p) for p in singles], allow_degenerate=True)


@st.composite
def float_tie_functions(draw, domain=None, value=values):
    """A piecewise-linear function with breakpoints from TIE_POINTS, on the
    domain (lo, hi) if given (its ends need not be tie points), else on two
    drawn tie points."""
    if domain is None:
        domain = sorted(draw(st.sets(st.sampled_from(TIE_POINTS), min_size=2, max_size=2)))
    lo, hi = domain
    candidates = [p for p in TIE_POINTS if lo < p < hi]
    inner = draw(st.sets(st.sampled_from(candidates), max_size=8)) if candidates else ()
    xs = [lo, *sorted(inner), hi]
    vs = draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    return PiecewiseLinear(xs, vs)


def near_and_between(points, offset=F(1, 2 ** 200)):
    """The points, each ± offset, and the midpoint of each consecutive pair."""
    xs = sorted(set(points))
    return sorted(
        {*xs, *(x + s * offset for x in xs for s in (-1, 1)),
         *((a + b) / 2 for a, b in zip(xs, xs[1:]))}
    )


# (start, length) on the 1/64 grid: an interval of length 1/64 to 3/64
# inside [1/64, 63/64]
grid_pieces = st.integers(1, 3).flatmap(
    lambda length: st.tuples(st.integers(1, 63 - length), st.just(length)))


@st.composite
def nested_systems(draw, depth):
    """F_1 ⊆ ... ⊆ F_depth on the 1/64 grid of [0, 1], each F_n being
    F_{n-1} plus 1 to 3 drawn `grid_pieces`; the target is the complement of
    F_depth."""
    window = Interval(F(0), F(1))
    closed = IntervalSet.empty()
    chain = []
    for _ in range(depth):
        pieces = draw(st.lists(grid_pieces, min_size=1, max_size=3))
        closed = closed.union(IntervalSet([Interval(F(a, 64), F(a + k, 64)) for a, k in pieces]))
        chain.append(closed)
    return NestedClosedSystem(tuple(chain), window, closed.complement_within(window))
