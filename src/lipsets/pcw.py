"""Exact continuous piecewise-linear functions and local Lipschitz ratios.

The carrier for every construction: rational breakpoints and values, linear
interpolation in between, clamp-to-constant outside the domain (all the
functions we build are constant off their active window).

`PiecewiseLinear.at` is the only sweep and `merged_breakpoints(fs, lo, hi)` the
only evaluation grid: each f in fs is linear between grid points, so comparing
values there is exact.  Both order points by float keys, as E's mass index
does (`intervals._key`): each function keeps the correctly rounded float of
every breakpoint, the sweep advances and clamps on keys and the grid sorts
(key, point) pairs, and two Fractions are compared only where their keys tie.
The order, and so every output, is that of exact comparisons.  The sweep
returns a breakpoint's own value at the breakpoint and a flat segment's value
on it without arithmetic, and elsewhere interpolates as one integer fraction
reduced once.  `add`, `sub`, `le`, `pl_min`, `pl_max`,
`monotone_runs`, `envelopes.verify_contraction` and the envelope and vicinity
checks evaluate through `at`, one forward pass per function.  `pl_sum` merges
the slope changes of n terms and integrates once.  `PiecewiseLinear.splice` is
the only glue, `first_sloped_segment` the only check of slopes against a set.
`ramp_to` integrates slope·1_E from the last point of a breakpoint list with
two bisects into E's mass index; it serves `envelopes.envelope_refine` only,
building its zigzag (the small-lip sawtooth walks its own integer grid in
`constructions`).  `build_signed_integral`, a second integrator kept on
purpose, reads the two sets' cumulative measures at their endpoints in a
window; it serves `build_phi` and `build_ternary_integral`, and the tests
check the sawtooth against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from operator import itemgetter, lt
from typing import Iterable, Optional, Sequence

from .intervals import Interval, IntervalSet, RationalLike, _key, _position, rat

ZERO = Fraction(0)


class PiecewiseLinear:
    """Continuous piecewise-linear function with exact rational data."""

    __slots__ = ("breakpoints", "values", "_keys")  # _keys[i] = _key(breakpoints[i])

    def __init__(self, breakpoints: Sequence[RationalLike], values: Sequence[RationalLike]):
        bps = tuple(map(rat, breakpoints))
        vals = tuple(map(rat, values))
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        keys = tuple(map(_key, bps))
        if not all(map(lt, keys, keys[1:])) and not all(
            k0 < k1 or k0 == k1 and a < b
            for a, b, k0, k1 in zip(bps, bps[1:], keys, keys[1:])
        ):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals
        self._keys = keys

    @classmethod
    def _trusted(cls, bps: tuple, vals: tuple, keys: tuple) -> "PiecewiseLinear":
        """A function from tuples already known to be valid: Fractions,
        strictly increasing breakpoints with their keys, equal lengths."""
        f = object.__new__(cls)
        f.breakpoints, f.values, f._keys = bps, vals, keys
        return f

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
        i = _position(self._keys, bps, x, bisect_right)  # bps[i - 1] <= x < bps[i]
        if i == 0:
            return vals[0]
        if i == len(bps):
            return vals[-1]
        return _interpolate(bps, vals, i, x)

    def at(self, xs: Iterable[Fraction]) -> list[Fraction]:
        """[self(x) for x in xs] for nondecreasing xs, in one forward pass
        over the breakpoints (clamped to the end values off the domain).
        Raises ValueError when xs steps back past a breakpoint."""
        bps, vals, keys = self.breakpoints, self.values, self._keys
        first, last, k_first, k_last = bps[0], bps[-1], keys[0], keys[-1]
        out = []
        i = 1  # bps[i - 1] < x for every x inside the domain seen so far
        for x in xs:
            k = _key(x)
            if k < k_first or k == k_first and x <= first:
                out.append(vals[0])
            elif k > k_last or k == k_last and x >= last:
                out.append(vals[-1])
            else:
                # a grid point is often one of bps itself: `is` settles that tie
                while keys[i] < k or keys[i] == k and bps[i] is not x and bps[i] < x:
                    i += 1
                if k < keys[i - 1] or k == keys[i - 1] and x <= bps[i - 1]:
                    raise ValueError("xs must be nondecreasing")
                if bps[i] is x or k == keys[i] and x == bps[i]:
                    out.append(vals[i])
                else:
                    out.append(_interpolate(bps, vals, i, x))
        return out

    def slopes(self) -> tuple[Fraction, ...]:
        bps, vals = self.breakpoints, self.values
        return tuple(_slope(bps, vals, i) for i in range(1, len(bps)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseLinear):
            return NotImplemented
        return self.simplify().as_pairs() == other.simplify().as_pairs()

    def __hash__(self):
        return hash(self.simplify().as_pairs())

    def as_pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.breakpoints, self.values))

    def __repr__(self):
        pts = ", ".join(f"({b}, {v})" for b, v in self.as_pairs())
        return f"PiecewiseLinear({pts})"

    def simplify(self) -> "PiecewiseLinear":
        """Drop interior breakpoints where the slope does not change."""
        bps, vals = self.breakpoints, self.values
        keep = [0]
        s0 = _slope(bps, vals, 1)  # the slope into bps[i], the same from the last kept point
        for i in range(1, len(bps) - 1):
            s1 = _slope(bps, vals, i + 1)
            if s0 != s1:
                keep.append(i)
            s0 = s1
        if len(keep) == len(bps) - 1:
            return self
        keep.append(len(bps) - 1)
        pick = itemgetter(*keep)
        return PiecewiseLinear._trusted(pick(bps), pick(vals), pick(self._keys))

    # -- algebra ------------------------------------------------------------

    def _merged_breakpoints(self, other: "PiecewiseLinear") -> list[Fraction]:
        return merged_breakpoints((self, other), *common_domain(self, other))

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        bps = self._merged_breakpoints(other)
        return PiecewiseLinear(bps, [a + b for a, b in zip(self.at(bps), other.at(bps))])

    def sub(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        bps = self._merged_breakpoints(other)
        return PiecewiseLinear(bps, [a - b for a, b in zip(self.at(bps), other.at(bps))])

    def scale(self, c: RationalLike) -> "PiecewiseLinear":
        c = rat(c)
        return PiecewiseLinear._trusted(self.breakpoints, tuple(c * v for v in self.values),
                                        self._keys)

    def shift(self, c: RationalLike) -> "PiecewiseLinear":
        c = rat(c)
        return PiecewiseLinear._trusted(self.breakpoints, tuple(v + c for v in self.values),
                                        self._keys)

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
        bps, keys = self.breakpoints, self._keys
        i = _position(keys, bps, lo, bisect_right)
        j = _position(keys, bps, hi, bisect_left)
        return PiecewiseLinear._trusted(
            (lo, *bps[i:j], hi), (self(lo), *self.values[i:j], self(hi)),
            (_key(lo), *keys[i:j], _key(hi)),
        )

    def concat(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if self.domain.hi != other.domain.lo:
            raise ValueError("domains are not adjacent")
        if self.values[-1] != other.values[0]:
            raise ValueError("concat would be discontinuous")
        return PiecewiseLinear._trusted(
            self.breakpoints + other.breakpoints[1:], self.values + other.values[1:],
            self._keys + other._keys[1:],
        )

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
        xs, vs, ks = list(parts[0].breakpoints), list(parts[0].values), list(parts[0]._keys)
        for g in parts[1:]:
            if vs[-1] != g.values[0]:
                raise ValueError("splice would be discontinuous")
            xs.extend(g.breakpoints[1:])
            vs.extend(g.values[1:])
            ks.extend(g._keys[1:])
        return PiecewiseLinear._trusted(tuple(xs), tuple(vs), tuple(ks)).simplify()

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)

    def le(self, other: "PiecewiseLinear") -> bool:
        """Exact pointwise self <= other (checked at the breakpoint union)."""
        bps = self._merged_breakpoints(other)
        return all(a <= b for a, b in zip(self.at(bps), other.at(bps)))

    def breakpoints_in(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        bps, keys = self.breakpoints, self._keys
        i = _position(keys, bps, lo, bisect_left)
        return list(bps[i:_position(keys, bps, hi, bisect_right)])


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


def common_domain(*fs: PiecewiseLinear) -> tuple[Fraction, Fraction]:
    """The ends (lo, hi) of the domain all of fs share; ValueError if they differ."""
    lo, hi = fs[0].breakpoints[0], fs[0].breakpoints[-1]
    if any(f.breakpoints[0] != lo or f.breakpoints[-1] != hi for f in fs):
        raise ValueError("domain mismatch")
    return lo, hi


def merged_breakpoints(
    fs: Sequence[PiecewiseLinear], lo: Fraction, hi: Fraction, extra: Sequence[Fraction] = ()
) -> list[Fraction]:
    """lo, the distinct breakpoints of fs and points of extra strictly inside
    (lo, hi), and hi; extra must lie inside [lo, hi].

    Each function's keys are bisected for (lo, hi), and (key, point) pairs
    are sorted and deduplicated, so points are compared only where keys tie."""
    pairs = [(_key(x), x) for x in extra]
    for f in fs:
        bps, keys = f.breakpoints, f._keys
        i = _position(keys, bps, lo, bisect_right)
        j = _position(keys, bps, hi, bisect_left)
        pairs += zip(keys[i:j], bps[i:j])
    pairs.sort()  # sorted runs: one merge
    out = [lo]
    last, end = (_key(lo), lo), (_key(hi), hi)
    for pair in pairs:
        if pair != last and pair != end:
            out.append(pair[1])
            last = pair
    out.append(hi)
    return out


def _pick(f: PiecewiseLinear, g: PiecewiseLinear, choose) -> PiecewiseLinear:
    """choose(f, g) pointwise, on the breakpoint union plus every point
    where f - g changes sign (there f = g), simplified."""
    bps = f._merged_breakpoints(g)
    fs, gs = f.at(bps), g.at(bps)
    ds = [a - b for a, b in zip(fs, gs)]
    xs, vs = [bps[0]], [choose(fs[0], gs[0])]
    for k in range(1, len(bps)):
        da, db = ds[k - 1], ds[k]
        if da.numerator * db.numerator < 0:  # strict sign change
            t = da / (da - db)
            xs.append(bps[k - 1] + t * (bps[k] - bps[k - 1]))
            vs.append(fs[k - 1] + t * (fs[k] - fs[k - 1]))
        xs.append(bps[k])
        vs.append(choose(fs[k], gs[k]))
    return PiecewiseLinear(xs, vs).simplify()


def pl_min(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    return _pick(f, g, min)


def pl_max(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    return _pick(f, g, max)


def pl_sum(fs: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """Σ fs on their common domain (ValueError if the domains differ), with
    a breakpoint only where the sum's slope changes, so already simplified.

    Each function's slope changes are heap-merged and integrated from the
    left end in one pass, in O(N log n) for N breakpoints in n functions."""
    if not fs:
        raise ValueError("need at least one function")
    lo, hi = common_domain(*fs)
    slope = Fraction(0)
    events = []  # per function: (x, slope change at x) where the slope changes
    for f in fs:
        ss = f.slopes()
        slope += ss[0]
        events.append((k, x, s1 - s0) for k, x, s0, s1
                      in zip(f._keys[1:-1], f.breakpoints[1:-1], ss, ss[1:]) if s0 != s1)
    xs, vs = [lo], [sum((f.values[0] for f in fs), Fraction(0))]
    x, k_x, before = lo, fs[0]._keys[0], slope  # before: the slope on (xs[-1], x)
    for k_p, p, change in merge(*events):  # ordered by key, exactly on ties
        if k_p != k_x or p != x:
            if slope != before:
                vs.append(vs[-1] + before * (x - xs[-1]))
                xs.append(x)
                before = slope
            x, k_x = p, k_p
        slope += change
    if slope != before:
        vs.append(vs[-1] + before * (x - xs[-1]))
        xs.append(x)
    vs.append(vs[-1] + slope * (hi - xs[-1]))
    xs.append(hi)
    return PiecewiseLinear(xs, vs)


def monotone_runs(f: PiecewiseLinear, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Maximal intervals of [lo, hi] on which f is monotone (zero slopes
    extend the current run)."""
    xs = merged_breakpoints((f,), lo, hi)
    fs = f.at(xs)
    runs: list[tuple[Fraction, Fraction]] = []
    start = xs[0]
    direction = 0
    for k in range(1, len(xs)):
        a = xs[k - 1]
        s = fs[k] - fs[k - 1]
        sgn = 0 if s == 0 else (1 if s > 0 else -1)
        if sgn != 0 and direction != 0 and sgn != direction:
            runs.append((start, a))
            start = a
            direction = sgn
        elif sgn != 0 and direction == 0:
            direction = sgn
    runs.append((start, xs[-1]))
    return runs


def first_sloped_segment(f: PiecewiseLinear, S: IntervalSet) -> Optional[Interval]:
    """The first segment of f on which f has nonzero slope and S positive
    mass, or None: None exactly when f' = 0 almost everywhere on S.

    One forward walk over the segments and S's components together."""
    bps, vals = f.breakpoints, f.values
    comps = [iv for iv in S if iv.lo < iv.hi]  # degenerate components carry no mass
    j = 0
    for k in range(len(bps) - 1):
        if vals[k] == vals[k + 1]:
            continue
        a, b = bps[k], bps[k + 1]
        while j < len(comps) and comps[j].hi <= a:
            j += 1
        if j == len(comps):
            return None
        if comps[j].lo < b:  # comps[j], the first to end after a, starts before b
            return Interval(a, b)
    return None


# -- integral builders ------------------------------------------------------


def build_signed_integral(
    plus: IntervalSet,
    minus: IntervalSet,
    basepoint: RationalLike,
    window: Interval,
    scale: RationalLike = 1,
) -> PiecewiseLinear:
    """f(x) = scale * ∫_base^x (1_plus - 1_minus), exactly, on the window.

    With D = Φ₊ - Φ₋, the difference of the two sets' cumulative measures,
    f = scale·(D - D(base)), which is linear between the window's ends, the
    basepoint and the sets' endpoints in the window; it is read there, one
    `IntervalSet.cumulative` per set and point.  Where plus and minus
    overlap the slopes cancel."""
    basepoint = rat(basepoint)
    scale = rat(scale)
    if not window.contains(basepoint):
        raise ValueError("basepoint outside window")
    cut = {window.lo, window.hi, basepoint}
    for s in (plus, minus):
        cut.update(s.clip(window).endpoints())
    bps = sorted(cut)
    base = plus.cumulative(basepoint) - minus.cumulative(basepoint)
    vals = [scale * (plus.cumulative(p) - minus.cumulative(p) - base) for p in bps]
    return PiecewiseLinear(bps, vals).simplify()


def ramp_to(
    xs: list[Fraction], vs: list[Fraction], E: IntervalSet, slope: Fraction, b: Fraction
) -> None:
    """Extend the breakpoints xs and values vs from their last point (x0, v0)
    to b > x0 with v0 + slope·|E ∩ [x0, p]|, at every endpoint p of E
    strictly inside (x0, b) and then at b: slope on E, 0 off E.  Two bisects
    per call (`IntervalSet.masses_from`).  It serves envelope_refine only."""
    v0 = vs[-1]
    for p, m in E.masses_from(xs[-1], b):
        xs.append(p)
        vs.append(v0 + slope * m)


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
    slopes = f.slopes()
    bps = f.breakpoints
    i = bisect_right(bps, x) - 1
    if bps[i] == x and i > 0:
        s_left, s_right = slopes[i - 1], slopes[i]
    else:
        s_left = s_right = slopes[i]
    val = max(abs(s_left), abs(s_right))
    return (val, val)


@dataclass(frozen=True)
class LipSweep:
    """Exact M_f(x,r) along a radius grid.

    min/max over the grid bracket lip/Lip at the sampled scales only; they
    bound the r -> 0 limits only through stage diagnostics, never by
    themselves.
    """

    point: Fraction
    entries: tuple[tuple[Fraction, Fraction], ...]

    @property
    def min_ratio(self) -> Fraction:
        return min(r for _, r in self.entries)

    @property
    def max_ratio(self) -> Fraction:
        return max(r for _, r in self.entries)


def lip_sweep(f: PiecewiseLinear, x: RationalLike, r_grid: Sequence[RationalLike]) -> LipSweep:
    x = rat(x)
    grid = [rat(r) for r in r_grid]
    if any(r <= 0 for r in grid):
        raise ValueError("grid radii must be positive")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly descending")
    return LipSweep(x, tuple((r, m_ratio(f, x, r)) for r in grid))


def geometric_grid(start: RationalLike, factor: RationalLike, count: int) -> list[Fraction]:
    start, factor = rat(start), rat(factor)
    if not (0 < factor < 1):
        raise ValueError("factor must be in (0,1)")
    out = []
    r = start
    for _ in range(count):
        out.append(r)
        r *= factor
    return out


# -- increment-bound audit ----------------------------------------------------


@dataclass(frozen=True)
class IncrementCheck:
    a: Fraction
    b: Fraction
    increment: Fraction
    allowance: Fraction

    @property
    def ok(self) -> bool:
        return self.increment <= self.allowance

    @property
    def excess(self) -> Fraction:
        return max(Fraction(0), self.increment - self.allowance)

    @property
    def margin(self) -> Fraction:
        return self.allowance - self.increment


@dataclass(frozen=True)
class IncrementReport:
    checks: tuple[IncrementCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[IncrementCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def check_increment_bound(
    f: PiecewiseLinear,
    E: IntervalSet,
    pairs: Iterable[tuple[RationalLike, RationalLike]],
) -> IncrementReport:
    """Exact audit of |f(a)-f(b)| <= |[a,b] ∩ E| for each pair."""
    checks = []
    for a, b in pairs:
        a, b = rat(a), rat(b)
        allowance = E.mass(min(a, b), max(a, b))
        checks.append(IncrementCheck(a, b, abs(f(a) - f(b)), allowance))
    return IncrementReport(tuple(checks))
