"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from lipsets.pcw import PiecewiseLinear

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
