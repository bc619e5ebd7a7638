"""Exact continuous piecewise-linear functions and local Lipschitz ratios.

The carrier for every construction: rational breakpoints and values, linear
interpolation in between, clamp-to-constant outside the domain (all the
functions we build are constant off their active window).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .intervals import Interval, IntervalSet, RationalLike, rat


class PiecewiseLinear:
    """Continuous piecewise-linear function with exact rational data."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence[RationalLike], values: Sequence[RationalLike]):
        bps = tuple(rat(b) for b in breakpoints)
        vals = tuple(rat(v) for v in values)
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals

    # -- basics -------------------------------------------------------------

    @property
    def domain(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @classmethod
    def constant(cls, c: RationalLike, domain: Interval) -> "PiecewiseLinear":
        return cls([domain.lo, domain.hi], [c, c])

    @classmethod
    def from_points(cls, points: Iterable[tuple[RationalLike, RationalLike]]) -> "PiecewiseLinear":
        pts = sorted((rat(x), rat(y)) for x, y in points)
        return cls([p[0] for p in pts], [p[1] for p in pts])

    def __call__(self, x: RationalLike) -> Fraction:
        x = rat(x)
        bps = self.breakpoints
        if x <= bps[0]:
            return self.values[0]
        if x >= bps[-1]:
            return self.values[-1]
        i = bisect_right(bps, x) - 1
        x0, x1 = bps[i], bps[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (x - x0) / (x1 - x0)

    def slopes(self) -> tuple[Fraction, ...]:
        out = []
        for i in range(len(self.breakpoints) - 1):
            dx = self.breakpoints[i + 1] - self.breakpoints[i]
            out.append((self.values[i + 1] - self.values[i]) / dx)
        return tuple(out)

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
        keep_b = [bps[0]]
        keep_v = [vals[0]]
        for i in range(1, len(bps) - 1):
            dx0 = bps[i] - keep_b[-1]
            dx1 = bps[i + 1] - bps[i]
            s0 = (vals[i] - keep_v[-1]) / dx0
            s1 = (vals[i + 1] - vals[i]) / dx1
            if s0 != s1:
                keep_b.append(bps[i])
                keep_v.append(vals[i])
        keep_b.append(bps[-1])
        keep_v.append(vals[-1])
        return PiecewiseLinear(keep_b, keep_v)

    # -- algebra ------------------------------------------------------------

    def _merged_breakpoints(self, other: "PiecewiseLinear") -> list[Fraction]:
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        merged = sorted(set(self.breakpoints) | set(other.breakpoints))
        return merged

    def add(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        bps = self._merged_breakpoints(other)
        return PiecewiseLinear(bps, [self(x) + other(x) for x in bps])

    def sub(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return self.add(other.scale(-1))

    def scale(self, c: RationalLike) -> "PiecewiseLinear":
        c = rat(c)
        return PiecewiseLinear(self.breakpoints, [c * v for v in self.values])

    def shift(self, c: RationalLike) -> "PiecewiseLinear":
        c = rat(c)
        return PiecewiseLinear(self.breakpoints, [v + c for v in self.values])

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
        inner = [b for b in self.breakpoints if lo < b < hi]
        bps = [lo] + inner + [hi]
        return PiecewiseLinear(bps, [self(x) for x in bps])

    def concat(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        if self.domain.hi != other.domain.lo:
            raise ValueError("domains are not adjacent")
        if self.values[-1] != other.values[0]:
            raise ValueError("concat would be discontinuous")
        bps = self.breakpoints + other.breakpoints[1:]
        vals = self.values + other.values[1:]
        return PiecewiseLinear(bps, vals)

    def sup_norm(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)

    def le(self, other: "PiecewiseLinear") -> bool:
        """Exact pointwise self <= other (checked at the breakpoint union)."""
        return all(self(x) <= other(x) for x in self._merged_breakpoints(other))

    def breakpoints_in(self, lo: Fraction, hi: Fraction) -> list[Fraction]:
        i = bisect_left(self.breakpoints, lo)
        j = bisect_right(self.breakpoints, hi)
        return list(self.breakpoints[i:j])


def _with_crossings(f: PiecewiseLinear, g: PiecewiseLinear) -> list[Fraction]:
    """Breakpoint union plus every point where f - g changes sign."""
    bps = f._merged_breakpoints(g)
    out: list[Fraction] = []
    for a, b in zip(bps, bps[1:]):
        out.append(a)
        da = f(a) - g(a)
        db = f(b) - g(b)
        if (da > 0 > db) or (da < 0 < db):
            t = da / (da - db)
            out.append(a + t * (b - a))
    out.append(bps[-1])
    return out


def pl_min(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    xs = _with_crossings(f, g)
    return PiecewiseLinear(xs, [min(f(x), g(x)) for x in xs]).simplify()


def pl_max(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    xs = _with_crossings(f, g)
    return PiecewiseLinear(xs, [max(f(x), g(x)) for x in xs]).simplify()


def monotone_runs(f: PiecewiseLinear, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Maximal intervals of [lo, hi] on which f is monotone (zero slopes
    extend the current run)."""
    xs = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
    runs: list[tuple[Fraction, Fraction]] = []
    start = xs[0]
    direction = 0
    for a, b in zip(xs, xs[1:]):
        s = f(b) - f(a)
        sgn = 0 if s == 0 else (1 if s > 0 else -1)
        if sgn != 0 and direction != 0 and sgn != direction:
            runs.append((start, a))
            start = a
            direction = sgn
        elif sgn != 0 and direction == 0:
            direction = sgn
    runs.append((start, xs[-1]))
    return runs


@dataclass(frozen=True)
class SlopeProfile:
    """Per-segment slopes of a piecewise-linear function."""

    segments: tuple[Interval, ...]
    slopes: tuple[Fraction, ...]

    @classmethod
    def of(cls, f: PiecewiseLinear) -> "SlopeProfile":
        segs = tuple(
            Interval(a, b) for a, b in zip(f.breakpoints, f.breakpoints[1:])
        )
        return cls(segs, f.slopes())

    def max_abs_slope(self) -> Fraction:
        return max((abs(s) for s in self.slopes), default=Fraction(0))


# -- integral builders ------------------------------------------------------


def build_signed_integral(
    plus: IntervalSet,
    minus: IntervalSet,
    basepoint: RationalLike,
    window: Interval,
    scale: RationalLike = 1,
) -> PiecewiseLinear:
    """f(x) = scale * ∫_base^x (1_plus - 1_minus), exactly, on the window."""
    basepoint = rat(basepoint)
    scale = rat(scale)
    if not window.contains(basepoint):
        raise ValueError("basepoint outside window")
    cut = set([window.lo, window.hi, basepoint])
    for s in (plus, minus):
        for e in s.clip(window).endpoints():
            cut.add(e)
    bps = sorted(cut)

    def seg_slope(a: Fraction, b: Fraction) -> Fraction:
        mid = (a + b) / 2
        if plus.contains(mid):
            return scale
        if minus.contains(mid):
            return -scale
        return Fraction(0)

    idx = bps.index(basepoint)
    vals: dict[int, Fraction] = {idx: Fraction(0)}
    run = Fraction(0)
    for i in range(idx, len(bps) - 1):
        run += seg_slope(bps[i], bps[i + 1]) * (bps[i + 1] - bps[i])
        vals[i + 1] = run
    run = Fraction(0)
    for i in range(idx, 0, -1):
        run -= seg_slope(bps[i - 1], bps[i]) * (bps[i] - bps[i - 1])
        vals[i - 1] = run
    return PiecewiseLinear(bps, [vals[i] for i in range(len(bps))]).simplify()


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


def ball_exits_domain(f: PiecewiseLinear, x: RationalLike, r: RationalLike) -> bool:
    """Clamp flag for reports: [x-r, x+r] not contained in the domain."""
    x, r = rat(x), rat(r)
    return x - r < f.domain.lo or x + r > f.domain.hi


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


def slopes_within_indicator(
    f: PiecewiseLinear, E: IntervalSet, cap: Fraction = Fraction(1)
) -> bool:
    """Segment-level sufficient condition for the universal increment bound:
    every segment has |slope| <= cap and nonzero slope only inside E."""
    for seg, s in zip(SlopeProfile.of(f).segments, f.slopes()):
        if s == 0:
            continue
        if abs(s) > cap:
            return False
        if E.mass(seg.lo, seg.hi) != seg.length:
            return False
    return True
