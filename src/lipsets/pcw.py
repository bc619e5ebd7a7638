"""Exact continuous piecewise-linear functions and local Lipschitz ratios.

The carrier for every construction: rational breakpoints and values, linear
interpolation in between, clamp-to-constant outside the domain (all the
functions we build are constant off their active window).

Functions are read in one of four ways.  `first_sloped_segment(f, S)`,
the one check of slopes against a set, reads only the segments of f that
meet a set S; the staged builder's precondition, its last stage's flat
diagnostic and the lip-1 sum's constant-off-part diagnostic call it.
`integer_grid(fs, lo, hi)` reads each f in fs on their merged grid, in
integers: breakpoints on the lcm of their denominators, values on the lcm
of theirs, widened until every value at every grid point is an integer,
and one walk over each function's segments (`_walk`) gives its values
there.  Each f is linear between grid points, so comparing values there is
exact.  `add`, `sub`, `le`, `__eq__`, `monotone_runs`, the tube checks
(`envelopes.Envelope`) and the staged builder's persistence and radius
checks compare those integers;
`pl_sum` adds them; and `pl_min` and `pl_max` walk the least of them.  Each
makes Fractions only of what it returns: a grid point is a breakpoint of
fs there, a value one division by the value scale.  One kink test on
integers (`_kinks`) keeps the points of `simplify`, `pl_sum` and the
envelopes: a point stays where the slopes on its two sides differ,
compared crosswise.  Their cost grows with the bit length of those lcms,
as the sawtooth's (`constructions.small_lip_blocks`) does with its scale.
`PiecewiseLinear.__call__` reads one point: left of the domain, from its
last breakpoint on, and anywhere on a flat segment, it returns a stored
value without arithmetic; elsewhere, at the first or an interior
breakpoint too, it interpolates as one integer fraction reduced once.  And
`envelopes.verify_contraction`, the check of the increment bound
|f(x) - f(y)| <= factor·|E ∩ [x, y]| for every pair x <= y, reads f's own
breakpoints and values as integers, on one scale with E's own.

Every locate among a function's breakpoints goes through one integer
index (`PiecewiseLinear._position`), as E's mass index does in `intervals`:
the breakpoints as integers X on S, the lcm of their denominators.  The
constructor builds it; the sawtooth (`constructions.build_small_lip`)
hands on the one it already holds; a function the algebra built gets it on
its first locate.  A point x lies among them by an integer bisect: b <= x
exactly when b·S <= ⌊x·S⌋, and b < x exactly when b·S < ⌈x·S⌉.
`__call__`, `restrict`, `breakpoints_in`, `first_sloped_segment`, every
windowed `integer_grid` read and `local_lip_exact` locate through it, so
every order among points is exact, however close the points or however
large.  `integer_grid` on
the shared domain and `verify_contraction` read every breakpoint from it
where a function has one (`PiecewiseLinear._scaled`), and otherwise read
each breakpoint once without storing an index.

`PiecewiseLinear.splice` is the only glue.  `build_signed_integral`
integrates the difference of two sets' indicators, reading their cumulative
measures at their endpoints in a window, for `build_phi` and
`build_ternary_integral`; refine's zigzag is integrated on E's mass index
in `envelopes`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice, repeat
from math import gcd, lcm
from operator import add, and_, eq, itemgetter, le, lt, neg, or_, sub
from typing import Iterable, Iterator, Optional, Sequence

from .intervals import (
    Interval, IntervalSet, RationalLike, ceil_on, floor_on, own_scale, rat,
)

ZERO = Fraction(0)


class PiecewiseLinear:
    """Continuous piecewise-linear function with exact rational data."""

    __slots__ = ("breakpoints", "values", "_index")  # _index = (S, X): see _position

    def __init__(self, breakpoints: Sequence[RationalLike], values: Sequence[RationalLike]):
        bps = tuple(map(rat, breakpoints))
        vals = tuple(map(rat, values))
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        self._index = own_scale(bps)
        X = self._index[1]
        if not all(map(lt, X, islice(X, 1, None))):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals

    @classmethod
    def _trusted(cls, bps: tuple, vals: tuple, index: Optional[tuple] = None) -> "PiecewiseLinear":
        """A function from tuples already known to be valid: Fractions,
        strictly increasing breakpoints, equal lengths.  index, if given, is
        the (S, X) the constructor would build; else the index is built on
        the first locate."""
        f = object.__new__(cls)
        f.breakpoints, f.values = bps, vals
        if index is not None:
            f._index = index
        return f

    def _scaled(self) -> tuple[int, list[int]]:
        """The index (S, X) if self has one, else the same pair read by
        `own_scale` and not stored: a reader of every breakpoint needs no
        bisect."""
        try:
            return self._index
        except AttributeError:
            return own_scale(self.breakpoints)

    def _position(self, x: Fraction, right: bool) -> int:
        """bisect_right(breakpoints, x) if right, else bisect_left, as one
        integer bisect on the index (S, X): the breakpoints as integers X on
        S, the lcm of their denominators.  b <= x exactly when
        b·S <= ⌊x·S⌋, and b < x exactly when b·S < ⌈x·S⌉."""
        try:
            S, X = self._index
        except AttributeError:
            S, X = self._index = own_scale(self.breakpoints)
        if right:
            return bisect_right(X, floor_on(x, S))
        return bisect_left(X, ceil_on(x, S))

    # -- basics -------------------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @classmethod
    def constant(cls, c: RationalLike, domain: Interval) -> "PiecewiseLinear":
        return cls([domain.lo, domain.hi], [c, c])

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        bps, vals = self.breakpoints, self.values
        i = self._position(x, True)  # bps[i - 1] <= x < bps[i]
        if i == 0:
            return vals[0]
        if i == len(bps):
            return vals[-1]
        return _interpolate(bps, vals, i, x)

    def slopes(self) -> tuple[Fraction, ...]:
        bps, vals = self.breakpoints, self.values
        return tuple(_slope(bps, vals, i) for i in range(1, len(bps)))

    def __eq__(self, other) -> bool:
        """Equal as functions on equal domains, whatever collinear
        breakpoints either keeps: compared on the merged grid."""
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        if self.domain != other.domain:
            return False
        _, _, _, _, (a, b) = integer_grid((self, other))
        return a == b

    def __hash__(self):
        # equal functions share their domain's ends and their end values
        return hash((self.breakpoints[0], self.breakpoints[-1], self.values[0], self.values[-1]))

    def as_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.breakpoints, self.values))

    def __repr__(self):
        pts = ", ".join(f"({b}, {v})" for b, v in self.as_pairs())
        return f"PiecewiseLinear({pts})"

    def simplify(self) -> "PiecewiseLinear":
        """Drop interior breakpoints where the slope does not change: with
        breakpoints X on S and values V on W, the lcms of their denominators,
        the kink test `_kinks` on the integer differences."""
        bps, vals = self.breakpoints, self.values
        (_, X), (_, V) = own_scale(bps), own_scale(vals)
        keep = _kinks(_steps(X), _steps(V))
        if len(keep) == len(bps):
            return self
        pick = itemgetter(*keep)
        return PiecewiseLinear._trusted(pick(bps), pick(vals))

    # -- algebra ------------------------------------------------------------

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._combine(other, add)

    def sub(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self._combine(other, sub)

    def _combine(self, other: "PiecewiseLinear", op) -> "PiecewiseLinear":
        """op of self and other on their merged grid, unsimplified, from
        their integer columns on `integer_grid`."""
        grid, point, _, W, (fs, gs) = integer_grid((self, other))
        xs = tuple(map(point.__getitem__, grid))
        return PiecewiseLinear._trusted(xs, tuple(Fraction(v, W) for v in map(op, fs, gs)))

    def scale(self, c: RationalLike) -> "PiecewiseLinear":
        c = rat(c)
        return PiecewiseLinear._trusted(self.breakpoints, tuple(c * v for v in self.values))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.scale(-1)

    def restrict(self, lo: RationalLike, hi: RationalLike) -> "PiecewiseLinear":
        lo, hi = rat(lo), rat(hi)
        if not (self.domain.lo <= lo < hi <= self.domain.hi):
            raise ValueError("restriction outside domain")
        return PiecewiseLinear._trusted(*self._clipped(lo, hi))

    def _clipped(self, lo: Fraction, hi: Fraction) -> tuple[tuple, tuple]:
        """The breakpoints and values of self restricted to [lo, hi], inside
        the domain with lo < hi: lo, the breakpoints strictly between, hi.
        The end values are read on the segments the two locates found."""
        bps, vals = self.breakpoints, self.values
        i = self._position(lo, True)  # bps[i - 1] <= lo < bps[i]
        j = self._position(hi, False)  # bps[j - 1] < hi <= bps[j]
        return ((lo, *bps[i:j], hi),
                (_interpolate(bps, vals, i, lo), *vals[i:j], _interpolate(bps, vals, j, hi)))

    def splice(self, pieces: Iterable["PiecewiseLinear"]) -> "PiecewiseLinear":
        """self with each piece in its place on the piece's domain, simplified.

        The pieces must be sorted, must not overlap and must lie inside the
        domain.  At every seam, between self and a piece or between two
        abutting pieces, both sides must agree (ValueError otherwise)."""
        cursor, end = self.breakpoints[0], self.breakpoints[-1]
        parts: list[PiecewiseLinear] = []
        for piece in pieces:
            lo, hi = piece.breakpoints[0], piece.breakpoints[-1]
            if lo < cursor or hi > end:
                raise ValueError("pieces must be sorted, disjoint and inside the domain")
            if cursor < lo:
                parts.append(self.restrict(cursor, lo))
            parts.append(piece)
            cursor = hi
        if cursor < end:
            parts.append(self.restrict(cursor, end))
        xs, vs = list(parts[0].breakpoints), list(parts[0].values)
        for g in parts[1:]:
            if vs[-1] != g.values[0]:
                raise ValueError("splice would be discontinuous")
            xs.extend(g.breakpoints[1:])
            vs.extend(g.values[1:])
        return PiecewiseLinear._trusted(tuple(xs), tuple(vs)).simplify()

    def sup_norm(self) -> Fraction:
        """max |v| over the values, compared as integers on the lcm W of
        their denominators: one Fraction."""
        W, V = own_scale(self.values)
        return Fraction(max(map(abs, V)), W)

    def min_value(self) -> Fraction:
        return min(self.values)

    def le(self, other: "PiecewiseLinear") -> bool:
        """Exact pointwise self <= other (checked at the breakpoint union)."""
        _, _, _, _, (fs, gs) = integer_grid((self, other))
        return all(map(le, fs, gs))

    def breakpoints_in(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        return list(self.breakpoints[self._position(lo, False):self._position(hi, True)])


def _interpolate(bps: tuple, vals: tuple, i: int, x: Fraction) -> Fraction:
    """The value at x of the segment from bps[i - 1] to bps[i], which holds x:
    v0 + (v1 - v0)(x - x0)/(x1 - x0) as one integer fraction that Fraction
    reduces once, where five Fraction operations would reduce five times."""
    v0, v1 = vals[i - 1], vals[i]
    if v0 == v1:
        return v0
    x0, x1 = bps[i - 1], bps[i]
    a, b, c, d = v0.numerator, v0.denominator, v1.numerator, v1.denominator
    e, f, g, h = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    p, q = x.numerator, x.denominator
    run = q * (g * f - e * h)  # q·f·h·(x1 - x0) > 0
    return Fraction(a * d * run + (c * b - a * d) * (p * f - e * q) * h, b * d * run)


def _slope(bps: tuple, vals: tuple, i: int) -> Fraction:
    """The slope of the segment from bps[i - 1] to bps[i], as one integer
    fraction reduced once."""
    v0, v1 = vals[i - 1], vals[i]
    if v0 == v1:
        return ZERO
    x0, x1 = bps[i - 1], bps[i]
    a, b, c, d = v0.numerator, v0.denominator, v1.numerator, v1.denominator
    e, f, g, h = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    return Fraction((c * b - a * d) * f * h, b * d * (g * f - e * h))


def _window(fs: Sequence[PiecewiseLinear], lo: Optional[RationalLike],
            hi: Optional[RationalLike]) -> tuple[Fraction, Fraction]:
    """[lo, hi], by default the domain all of fs share (ValueError if they
    differ); a given window must have lo < hi in every domain (ValueError).
    ValueError if fs is empty."""
    if not fs:
        raise ValueError("need at least one function")
    if lo is None:
        lo, hi = fs[0].breakpoints[0], fs[0].breakpoints[-1]
        if any(f.breakpoints[0] != lo or f.breakpoints[-1] != hi for f in fs):
            raise ValueError("domain mismatch")
        return lo, hi
    lo, hi = rat(lo), rat(hi)
    if not all(f.breakpoints[0] <= lo < hi <= f.breakpoints[-1] for f in fs):
        raise ValueError("window outside domain")
    return lo, hi


def integer_grid(fs: Sequence[PiecewiseLinear], lo: Optional[RationalLike] = None,
                 hi: Optional[RationalLike] = None
                 ) -> tuple[list[int], dict[int, Fraction], int, int, Iterator[list[int]]]:
    """The merged grid of fs on [lo, hi] and each function's values on it,
    in integers: (grid, point, S, W, columns), by default on the domain all
    of fs share (`_window`).

    On a window each f is first cut to it, as `restrict` does but building
    no function.  Every breakpoint becomes an integer X on S, the lcm of all
    breakpoint denominators, and every value an integer V on W, the lcm of
    all value denominators widened by the lcm of ΔX/gcd(ΔX, ΔV) over every
    sloped segment of every f.  Each f's points and values are read once on
    its own scales (`own_scale`; on the shared domain its points come from
    its index, `PiecewiseLinear._scaled`) and then moved to S and W
    (`rescaled`).  Then every slope ΔV/ΔX is an integer, and
    so is each f's value at each grid point.  grid is the sorted distinct
    X, point maps each X to a breakpoint of fs there, and columns yields,
    for each f in order, its values on grid: one walk over f's segments
    (`_walk`), never an interpolation per point.  That is O(grid) integer
    operations per function on integers of about the bit length of S·W, so
    the cost grows with the bit length of the lcms."""
    if lo is None:
        _window(fs, None, None)
        parts = [(f.breakpoints, f.values) for f in fs]
        x_own = [f._scaled() for f in fs]
    else:
        lo, hi = _window(fs, lo, hi)
        parts = [f._clipped(lo, hi) for f in fs]
        x_own = [own_scale(bps) for bps, _ in parts]
    v_own = [own_scale(vals) for _, vals in parts]  # x_own, v_own: (S_f, X), (W_f, V)
    S, W = lcm(*(s for s, _ in x_own)), lcm(*(w for w, _ in v_own))
    terms = [(rescaled(x, S), rescaled(v, W)) for x, v in zip(x_own, v_own)]
    widen = lcm(*{dx // gcd(dx, dv) for X, V in terms
                  for dx, dv in zip(map(sub, X[1:], X), map(sub, V[1:], V)) if dv})
    point = {}  # X -> a breakpoint of fs there
    for (bps, _), (X, _) in zip(parts, terms):
        point.update(zip(X, bps))
    grid = sorted(point)
    terms.reverse()  # popped in order, so each term's lists are freed once walked
    columns = (_walk(grid, *terms.pop(), widen) for _ in range(len(terms)))
    return grid, point, S, W * widen, columns


def rescaled(index: tuple[int, list[int]], scale: int) -> list[int]:
    """The integers X of index = (S, X), integers on S, moved to a scale
    that S divides: X itself when the scales are equal."""
    S, X = index
    if S == scale:
        return X
    m = scale // S
    return [x * m for x in X]


def _steps(X: Sequence[int]) -> list[int]:
    """The differences X[k + 1] - X[k]."""
    return list(map(sub, islice(X, 1, None), X))


def _kinks(dX: Sequence[int], dV: Sequence[int]) -> list[int]:
    """The points to keep of a function whose k-th segment rises dV[k] over
    a run dX[k] > 0, each pair on any positive scale of its own: the ends,
    and each point k where the slopes on its two sides differ,
    dV[k - 1]·dX[k] != dV[k]·dX[k - 1].  The one kink test of `simplify`,
    `pl_sum` and the envelopes `pl_min` and `pl_max`."""
    rows = zip(dX, islice(dX, 1, None), dV, islice(dV, 1, None))
    return [0, *(k for k, (x0, x1, v0, v1) in enumerate(rows, 1) if v0 * x1 != v1 * x0),
            len(dX)]


def _walk(grid: list[int], X: list[int], V: list[int], widen: int) -> list[int]:
    """The values V·widen of one function at every point of grid, for X
    with the grid's ends and every slope of V·widen an integer: a segment's
    start takes its value, and the grid points strictly inside it
    v0 + slope·(X - X0)."""
    if widen > 1:
        V = [v * widen for v in V]
    out = []
    k = 0  # grid[k] = x0
    for x0, x1, v0, v1 in zip(X, islice(X, 1, None), V, islice(V, 1, None)):
        if grid[k + 1] == x1:
            out.append(v0)
            k += 1
            continue
        end = bisect_left(grid, x1, k + 2)
        if v0 == v1:
            out += repeat(v0, end - k)
        else:
            slope = (v1 - v0) // (x1 - x0)  # exact: W is widened for it
            out += [v0 + slope * (x - x0) for x in grid[k:end]]
        k = end
    out.append(V[-1])
    return out


def pl_min(*fs: PiecewiseLinear) -> PiecewiseLinear:
    """The pointwise min of fs on their common domain, simplified
    (`_envelope`)."""
    return _envelope(fs, True)


def pl_max(*fs: PiecewiseLinear) -> PiecewiseLinear:
    """The pointwise max of fs on their common domain, simplified
    (`_envelope`)."""
    return _envelope(fs, False)


def _envelope(fs: Sequence[PiecewiseLinear], lower: bool) -> PiecewiseLinear:
    """The lower envelope of fs (upper when not lower, on negated columns),
    simplified: ValueError if fs is empty or the domains differ.

    fs are read on `integer_grid`, where every f is a line on each grid
    interval.  An interval where one line is least at both ends adds no
    point.  Otherwise the walk starts on the line least at the left end
    (ties to the one least at the right end); the next crossing is the
    earliest t = n/d, compared crosswise, among the lines lower at the right
    end, and the walk goes on along the line crossing there that is least at
    the right end.
    A crossing is the point ((X0·d + n·ΔX)/(S·d), (L·d + n·ΔV)/(W·d)) for
    the interval [X0, X0 + ΔX] and the line's values L, L + ΔV at its ends;
    grid points have d = 1.  Points are kept by `_kinks`, and only kept
    points become Fractions: a grid point keeps its own breakpoint, and each
    distinct value at grid points is one division by W."""
    grid, point, S, W, columns = integer_grid(fs)
    cols = list(columns) if lower else [list(map(neg, c)) for c in columns]
    low = list(map(min, *cols)) if len(cols) > 1 else cols[0]
    held = repeat(False, len(grid) - 1)  # one line is least at both ends
    for c in cols:
        least = list(map(eq, c, low))
        held = map(or_, held, map(and_, least, islice(least, 1, None)))
    X, V, D = [grid[0]], [low[0]], [1]
    for k, h in enumerate(held, 1):
        if not h:
            x0, run = grid[k - 1], grid[k] - grid[k - 1]
            ends = [(c[k - 1], c[k]) for c in cols]
            a, b = min(ends)  # least at the left end, ties to the least at the right
            while True:
                best = None  # (n, d, ai, bi) of the earliest crossing
                for ai, bi in ends:
                    if bi < b:  # then ai > a: the lines cross at t = n/d in (0, 1)
                        n, d = ai - a, ai - a + b - bi
                        if best is None or (n * best[1], bi) < (best[0] * d, best[3]):
                            best = n, d, ai, bi
                if best is None:
                    break
                n, d, ai, bi = best
                X.append(x0 * d + n * run)
                V.append(a * d + n * (b - a))
                D.append(d)
                a, b = ai, bi
        X.append(grid[k])
        V.append(low[k])
        D.append(1)
    rows = list(zip(X, V, D))
    keep = _kinks([x1 * d0 - x0 * d1 for (x0, _, d0), (x1, _, d1) in zip(rows, rows[1:])],
                  [v1 * d0 - v0 * d1 for (_, v0, d0), (_, v1, d1) in zip(rows, rows[1:])])
    sign = 1 if lower else -1
    xs, vs, value = [], [], {}  # value: each distinct grid value made once
    for k in keep:
        x, v, d = rows[k]
        if d == 1:
            xs.append(point[x])
            vs.append(value[v] if v in value else value.setdefault(v, Fraction(sign * v, W)))
        else:
            xs.append(Fraction(x, S * d))
            vs.append(Fraction(sign * v, W * d))
    return PiecewiseLinear._trusted(tuple(xs), tuple(vs))


def pl_sum(fs: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """Σ fs on their common domain, simplified: ValueError if fs is empty
    or the domains differ.  The result is that of reading every term on the
    merged grid, adding Fractions and simplifying
    (`tests/oracles.py::ref_pl_sum`).

    The sum is computed on `integer_grid`'s scales, where every term's value
    at every grid point is an integer.  Each column adds to the total, and
    points are kept by `_kinks`.  Only kept points become Fractions: a
    breakpoint is a term's own, and each distinct value is one division by W.
    """
    grid, point, _, W, columns = integer_grid(fs)
    total = next(columns)
    for column in columns:
        total = list(map(add, total, column))
    keep = _kinks(_steps(grid), _steps(total))
    xs = tuple(point[grid[k]] for k in keep)
    value = {}  # a sawtooth sum of thousands of points has a few dozen values
    vs = tuple(value[t] if t in value else value.setdefault(t, Fraction(t, W))
               for t in map(total.__getitem__, keep))
    return PiecewiseLinear._trusted(xs, vs)


def monotone_runs(f: PiecewiseLinear, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Maximal intervals of [lo, hi] on which f is monotone (zero slopes
    extend the current run)."""
    grid, point, _, _, (vs,) = integer_grid((f,), lo, hi)
    runs, start, direction = [], point[grid[0]], 0
    for x, u, v in zip(grid, vs, vs[1:]):
        sgn = (v > u) - (v < u)
        if sgn and direction and sgn != direction:
            a = point[x]
            runs.append((start, a))
            start = a
        direction = sgn or direction
    runs.append((start, point[grid[-1]]))
    return runs


def first_sloped_segment(f: PiecewiseLinear, S: IntervalSet) -> Optional[Interval]:
    """The first segment of f on which f has nonzero slope and S positive
    mass, or None: None exactly when f' = 0 almost everywhere on S.  Each
    component J, located by `PiecewiseLinear._position`, reads only the
    segments k with bps[k] < J.hi and bps[k + 1] > J.lo."""
    bps, vals = f.breakpoints, f.values
    for J in S:
        if J.lo < J.hi:  # degenerate components carry no mass
            for k in range(max(f._position(J.lo, True) - 1, 0),
                           min(f._position(J.hi, False), len(bps) - 1)):
                if vals[k] != vals[k + 1]:
                    return Interval(bps[k], bps[k + 1])
    return None


# -- integral builders ------------------------------------------------------


def build_signed_integral(
    plus: IntervalSet,
    minus: IntervalSet,
    basepoint: RationalLike,
    window: Interval,
) -> PiecewiseLinear:
    """f(x) = ∫_base^x (1_plus - 1_minus), exactly, on the window.

    With D = Φ₊ - Φ₋, the difference of the two sets' cumulative measures,
    f = D - D(base), which is linear between the window's ends, the
    basepoint and the sets' endpoints in the window; it is read there, one
    `IntervalSet.cumulative` per set and point.  Where plus and minus
    overlap the slopes cancel."""
    basepoint = rat(basepoint)
    if not window.contains(basepoint):
        raise ValueError("basepoint outside window")
    cut = {window.lo, window.hi, basepoint}
    for s in (plus, minus):
        cut.update(s.clip(window).endpoints())
    bps = sorted(cut)
    base = plus.cumulative(basepoint) - minus.cumulative(basepoint)
    vals = [plus.cumulative(p) - minus.cumulative(p) - base for p in bps]
    return PiecewiseLinear(bps, vals).simplify()


def build_phi(
    E: IntervalSet,
    basepoint: RationalLike = 0,
    window: Optional[Interval] = None,
) -> PiecewiseLinear:
    """φ(x) = ∫_base^x 1_E: slope 1 on E, 0 off E; φ(y)-φ(x) = |E ∩ [x,y]|."""
    basepoint = rat(basepoint)
    if window is None:
        hull = E.hull()
        if hull is None:
            raise ValueError("need an explicit window when E is empty")
        lo = min(hull.lo, basepoint)
        hi = max(hull.hi, basepoint)
        if lo == hi:
            hi = lo + 1
        window = Interval(lo, hi)
    return build_signed_integral(E, IntervalSet.empty(), basepoint, window)


# -- ratios and local Lipschitz ----------------------------------------------


def m_ratio(f: PiecewiseLinear, x: RationalLike, r: RationalLike) -> Fraction:
    """M_f(x,r) = sup{|f(x)-f(y)| : |y-x| <= r} / r, exactly.

    f is defined on all of R by clamping, so the ball may exit the stored
    domain; the sup is attained at x±r or at an interior breakpoint.
    """
    x, r = rat(x), rat(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    fx = f(x)
    best = Fraction(0)
    for y in [x - r, x + r] + f.breakpoints_in(x - r, x + r):
        v = abs(f(y) - fx)
        if v > best:
            best = v
    return best / r


def local_lip_exact(f: PiecewiseLinear, x: RationalLike) -> tuple[Fraction, Fraction]:
    """(Lip f(x), lip f(x)) for piecewise-linear f at an interior point.

    Below the gap to the nearest other breakpoint, M_f(x, r) is constantly
    max(|s_left|, |s_right|), so both limits equal that value.
    """
    x = rat(x)
    if not (f.domain.lo < x < f.domain.hi):
        raise ValueError("x must be strictly inside the domain")
    bps, vals = f.breakpoints, f.values
    i = f._position(x, True)  # bps[i - 1] <= x < bps[i]
    val = abs(_slope(bps, vals, i))
    if bps[i - 1] == x and i > 1:
        val = max(abs(_slope(bps, vals, i - 1)), val)
    return (val, val)


def geometric_grid(start: RationalLike, factor: RationalLike, count: int) -> list[Fraction]:
    start, factor = rat(start), rat(factor)
    if start <= 0:
        raise ValueError("start must be positive")
    if not (0 < factor < 1):
        raise ValueError("factor must be in (0,1)")
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    r = start
    for _ in range(count):
        out.append(r)
        r *= factor
    return out
