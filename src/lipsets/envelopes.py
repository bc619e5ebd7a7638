"""Envelope and vicinity types plus the two refinement lemmas.

envelope_refine replaces a monotone function by a (1-δ)-slope zigzag with the
same block increments, strictly inside an envelope; envelope_flatten rebuilds
a function so that it is exactly flat on a closed set H while keeping its
endpoint values and a (1-δ) contraction against φ.  Both operate on an active
compact segment and leave the function untouched (hence already flat where it
needs to be) outside it; both verify their preconditions exactly and raise
with an exact witness instead of assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, IntervalSet, RationalLike, rat
from .constructions import balance_point
from .pcw import (
    PiecewiseLinear,
    build_phi,
    first_sloped_segment,
    merged_breakpoints,
    monotone_runs,
    pl_min,
)


class PreconditionError(ValueError):
    """A verified precondition failed; .witness carries the exact data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Envelope:
    """Pointwise bounds (lower, upper) around a function.

    Strict inequality is required only on the active segment of a refine or
    flatten call; elsewhere lower = f = upper is legal (the collars of the
    staged construction pin the function there).
    """

    lower: PiecewiseLinear
    upper: PiecewiseLinear

    def __post_init__(self):
        if self.lower.domain != self.upper.domain:
            raise ValueError("envelope bounds must share a domain")
        if not self.lower.le(self.upper):
            raise ValueError("envelope lower bound exceeds upper bound")

    @property
    def domain(self) -> Interval:
        return self.lower.domain

    def admits(self, f: PiecewiseLinear) -> bool:
        return self.lower.le(f) and f.le(self.upper)

    def min_margin_on(self, f: PiecewiseLinear, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact min over [lo, hi] of min(f - lower, upper - f)."""
        low = (f - self.lower).restrict(lo, hi)
        up = (self.upper - f).restrict(lo, hi)
        return min(low.min_value(), up.min_value())


@dataclass(frozen=True)
class Vicinity:
    """Tube of functions around a center: {g : |g - center| <= radius}."""

    center: PiecewiseLinear
    radius: PiecewiseLinear

    def __post_init__(self):
        if self.center.domain != self.radius.domain:
            raise ValueError("center and radius must share a domain")
        if self.radius.min_value() < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, g: PiecewiseLinear) -> bool:
        """|g - c| <= r, checked as g - c <= r and c - g <= r."""
        diff = g - self.center
        return diff.le(self.radius) and diff.scale(-1).le(self.radius)

    def envelope(self) -> Envelope:
        return Envelope(self.center - self.radius, self.center + self.radius)

    def is_inside(self, other: "Vicinity") -> bool:
        """Sufficient exact check for {g : |g-c| <= r} ⊆ {g : |g-c'| <= r'}:
        |c - c'| + r <= r', checked as r + (c - c') <= r' and r - (c - c') <= r'."""
        diff = self.center - other.center
        return (self.radius + diff).le(other.radius) and (self.radius - diff).le(other.radius)


def verify_contraction(
    f: PiecewiseLinear, phi: PiecewiseLinear, factor: Fraction
) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Exact check of |f(x)-f(y)| <= factor*|φ(x)-φ(y)| for all x, y.

    Equivalent (φ nondecreasing) to the per-segment slope condition on the
    breakpoint union.  Returns None when it holds, else a witness segment
    (a, b, |Δf|, factor*Δφ)."""
    xs = merged_breakpoints(f, phi)  # domains may differ
    fs, ps = f.at(xs), phi.at(xs)
    for k in range(1, len(xs)):
        df = abs(fs[k] - fs[k - 1])
        dphi = ps[k] - ps[k - 1]
        if dphi < 0:
            raise ValueError("phi must be nondecreasing")
        if df > factor * dphi:
            return (xs[k - 1], xs[k], df, factor * dphi)
    return None


def _auto_segment(f: PiecewiseLinear, env: Envelope) -> tuple[Fraction, Fraction]:
    lo, hi = f.domain.lo, f.domain.hi
    length = hi - lo
    for k in [64, 32, 16, 8, 4, 3]:
        c, d = lo + length / k, hi - length / k
        if c < d and env.min_margin_on(f, c, d) > 0:
            return c, d
    raise PreconditionError("no active segment with strict envelope margins")


@dataclass(frozen=True)
class RefineResult:
    function: PiecewiseLinear
    segment: tuple[Fraction, Fraction]
    division_points: tuple[Fraction, ...]  # c_0, c_1, ..., c_{2n}
    epsilon: Fraction
    delta: Fraction
    margin: Fraction  # γ of the uniform-continuity bound
    blocks: int


def _adaptive_block_bounds(
    margin: PiecewiseLinear,
    c: Fraction,
    d: Fraction,
    extra_slope: Fraction = Fraction(0),
    slope_bound: Optional[Fraction] = None,
) -> list[Fraction]:
    """Block boundaries sized by the local margin.

    Each block [p, q] satisfies (q - p)(2 + L + s) <= margin(p), where L
    bounds the margin's own slopes and s the function's; that keeps a
    zigzag or ramp of amplitude <= 2(q - p) strictly inside the margin over
    the whole block (the margin loses at most L(q - p) across it)."""
    L = (
        slope_bound
        if slope_bound is not None
        else max([abs(s) for s in margin.slopes()] + [Fraction(0)])
    )
    denom = 2 * (2 + L + extra_slope)  # halved steps leave room to merge slivers
    out = [c]
    p = c
    guard = 0
    while p < d:
        step = margin(p) / denom
        if step <= 0:
            raise PreconditionError("margin vanished inside the active segment")
        q = min(d, p + step)
        if d - q < step / 2:
            q = d
        out.append(q)
        p = q
        guard += 1
        if guard > 2_000_000:
            raise PreconditionError("adaptive division did not terminate")
    return out


def envelope_refine(
    f: PiecewiseLinear,
    env: Envelope,
    E: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: Optional[tuple[RationalLike, RationalLike]] = None,
    phi: Optional[PiecewiseLinear] = None,
    division: str = "uniform",
    require_monotone: bool = True,
) -> RefineResult:
    """Zigzag refinement of f inside an envelope.

    On the active segment [c, d] the result g satisfies g(c) = f(c),
    g(d) = f(d), g = K ± (1-δ)φ on each of 2n monotone pieces, and the
    interior division points solve the exact balance equation
    (1-δ)(|E∩[c_{2i-2},c_{2i-1}]| - |E∩[c_{2i-1},c_{2i}]|) = f(c_{2i}) - f(c_{2i-2}).
    Outside the segment g = f.

    division="uniform" divides [c, d] into n equal blocks with
    (d-c)/n < γ/(3L) (γ the minimal margin, L a slope bound); "adaptive"
    sizes blocks by the local margin instead, which the staged builder needs
    when the margin varies over orders of magnitude.  Both finish with the
    same exact checks.

    Monotonicity of f on [c, d] is the lemma's hypothesis; with
    require_monotone (the default) it is verified once the segment is
    resolved, and a violation raises PreconditionError whose witness is
    three breakpoints a < m < b with f(m) - f(a) and f(b) - f(m) of strictly
    opposite signs.  Zero slopes are allowed, and off [c, d] the result is f
    itself, so monotonicity there plays no part.  The construction itself
    uses only the increment precondition, which is always verified; the
    staged builder refines zigzag stage functions and passes
    require_monotone=False.
    """
    eps, delta = rat(epsilon), rat(delta)
    if not (0 < delta < eps <= 1):
        raise ValueError("need 0 < delta < epsilon <= 1")
    lo, hi = f.domain.lo, f.domain.hi
    if env.domain != f.domain:
        raise ValueError("envelope domain mismatch")
    if not env.admits(f):
        raise PreconditionError("f is not inside the envelope")
    if phi is None:
        phi = build_phi(E, lo, f.domain)
    witness = verify_contraction(f, phi, 1 - eps)
    if witness is not None:
        raise PreconditionError(
            "increment precondition |Δf| <= (1-ε)|Δφ| fails", witness
        )
    if segment is None:
        c, d = _auto_segment(f, env)
    else:
        c, d = rat(segment[0]), rat(segment[1])
        if not (lo < c < d < hi):
            raise ValueError("segment must be strictly inside the domain")
    if require_monotone:
        runs = monotone_runs(f, c, d)
        if len(runs) > 1:
            (a, m), (_, b) = runs[0], runs[1]
            raise PreconditionError(
                "f is not monotone on the active segment", (a, m, b)
            )
    gamma = env.min_margin_on(f, c, d)
    if gamma <= 0:
        raise PreconditionError("envelope is not strict on the segment")
    if division == "uniform":
        L = max(
            [Fraction(1)]
            + [abs(s) for s in env.lower.slopes()]
            + [abs(s) for s in env.upper.slopes()]
        )
        n = int((3 * L * (d - c)) // gamma) + 1
        step = (d - c) / n
        evens = [c + i * step for i in range(n + 1)]
    elif division == "adaptive":
        margin = pl_min(f - env.lower, env.upper - f)
        evens = _adaptive_block_bounds(margin, c, d)
        n = len(evens) - 1
    else:
        raise ValueError("division must be 'uniform' or 'adaptive'")

    division: list[Fraction] = [evens[0]]
    xs: list[Fraction] = [c]
    vs: list[Fraction] = [f(c)]

    def extend(a: Fraction, b: Fraction, sign: int):
        base_x, base_v = xs[-1], vs[-1]
        pts = [p for p in phi.breakpoints_in(a, b) if a < p < b] + [b]
        for p in sorted(set(pts)):
            xs.append(p)
            vs.append(base_v + sign * (1 - delta) * (phi(p) - phi(a)))

    for a, b in zip(evens, evens[1:]):
        target = f(b) - f(a)
        mid = balance_point(E, a, b, target, delta)
        division.extend([mid, b])
        extend(a, mid, +1)
        extend(mid, b, -1)

    zig = PiecewiseLinear(xs, vs)
    assert zig(d) == f(d), "telescoping failure"
    g = f.splice([zig])
    if env.min_margin_on(g, c, d) <= 0:
        raise PreconditionError("refined function escapes the envelope")
    return RefineResult(g, (c, d), tuple(division), eps, delta, gamma, n)


@dataclass(frozen=True)
class FlattenComponent:
    lo: Fraction
    hi: Fraction
    mass: Fraction
    rise: Fraction
    ramp_lo: Optional[Fraction]
    ramp_hi: Optional[Fraction]


@dataclass(frozen=True)
class FlattenResult:
    function: PiecewiseLinear
    segment: tuple[Fraction, Fraction]
    gamma_scale: Fraction
    components: tuple[FlattenComponent, ...]
    selected_mass: Fraction
    required_mass: Fraction  # (1-ε)|E∩[c,d]| certified < (1-δ)*selected
    epsilon: Fraction
    delta: Fraction


def envelope_flatten(
    f: PiecewiseLinear,
    env: Envelope,
    E: IntervalSet,
    H: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: Optional[tuple[RationalLike, RationalLike]] = None,
    phi: Optional[PiecewiseLinear] = None,
) -> FlattenResult:
    """Rebuild f with slope exactly 0 on H, same endpoint values, and the
    (1-δ) contraction |g(x)-g(y)| <= (1-δ)|φ(x)-φ(y)|.

    The active segment is cut into cells on which f is linear with
    oscillation at most half the envelope margin; within each cell the
    E-mass of the intervals contiguous to H (all of them, so the selected
    mass equals the cell total and (1-δ)·selected > (1-ε)·total is
    certified) is re-ramped so that g matches f at every cell boundary and
    stays inside the envelope.  H-parts outside the segment must already be
    flat for f.
    """
    eps, delta = rat(epsilon), rat(delta)
    if not (0 < delta < eps <= 1):
        raise ValueError("need 0 < delta < epsilon <= 1")
    lo, hi = f.domain.lo, f.domain.hi
    if env.domain != f.domain:
        raise ValueError("envelope domain mismatch")
    if H.intersect(E).measure() != 0:
        raise PreconditionError("H meets E with positive measure",
                               H.intersect(E))
    if not env.admits(f):
        raise PreconditionError("f is not inside the envelope")
    if phi is None:
        phi = build_phi(E, lo, f.domain)
    witness = verify_contraction(f, phi, 1 - eps)
    if witness is not None:
        raise PreconditionError(
            "increment precondition |Δf| <= (1-ε)|Δφ| fails", witness
        )
    if segment is None:
        c, d = _auto_segment(f, env)
    else:
        c, d = rat(segment[0]), rat(segment[1])
        if not (lo <= c < d <= hi):
            raise ValueError("segment must lie inside the domain")

    # H outside the active segment: f must already be flat there
    outside = H.clip(f.domain).intersect(
        IntervalSet([Interval(c, d)]).complement_within(f.domain)
    )
    seg = first_sloped_segment(f, outside)
    if seg is not None:
        raise PreconditionError(
            "f is not flat on an H-part outside the active segment", seg
        )

    seg_iv = Interval(c, d)
    total = E.mass(c, d)
    if H.clip(seg_iv).is_empty:
        # nothing to flatten: the identity path is permitted
        return FlattenResult(f, (c, d), Fraction(0), (), total,
                             (1 - eps) * total, eps, delta)

    gamma_seg = env.min_margin_on(f, c, d)
    if gamma_seg <= 0:
        raise PreconditionError("envelope is not strict on the segment")

    # cells: f linear on each, short enough for the ramp (amplitude <= the
    # cell's f-oscillation) to stay inside the locally available margin
    margin = pl_min(f - env.lower, env.upper - f)
    m_slope = max([abs(s) for s in margin.slopes()] + [Fraction(0)])
    bounds = sorted({c, d} | {b for b in f.breakpoints if c < b < d})
    cells: list[tuple[Fraction, Fraction]] = []
    for p, q in zip(bounds, bounds[1:]):
        slope = abs(f(q) - f(p)) / (q - p)
        sub = _adaptive_block_bounds(
            margin, p, q, extra_slope=slope, slope_bound=m_slope
        )
        cells.extend(zip(sub, sub[1:]))

    comps: list[FlattenComponent] = []
    xs: list[Fraction] = [c]
    vs: list[Fraction] = [f(c)]

    def flat_until(p: Fraction):
        if p > xs[-1]:
            xs.append(p)
            vs.append(vs[-1])

    for p, q in cells:
        cell_iv = Interval(p, q)
        cell_mass = E.mass(p, q)
        rise_cell = f(q) - f(p)
        if cell_mass == 0:
            if rise_cell != 0:
                raise PreconditionError(
                    "zero E-mass but f is not constant on a cell", (p, q)
                )
            flat_until(q)
            continue
        scale = rise_cell / cell_mass  # |scale| <= 1-ε < 1-δ by contraction
        sign = 1 if scale >= 0 else -1
        h_in = H.clip(cell_iv)
        contiguous = (
            h_in.complement_within(cell_iv)
            if not h_in.is_empty
            else IntervalSet([cell_iv])
        )
        for comp in contiguous:
            mass = E.mass(comp.lo, comp.hi)
            rise = scale * mass
            if mass == 0 or rise == 0:
                comps.append(
                    FlattenComponent(comp.lo, comp.hi, mass, Fraction(0), None, None)
                )
                continue
            # the ramp [u, v] leaves E-mass eta flat at each end of comp
            eta = (mass - abs(rise) / (1 - delta)) / 2
            u = E.locate(E.cumulative(comp.lo) + eta)
            v = E.locate(E.cumulative(comp.hi) - eta, rightmost=True)
            assert u < v
            flat_until(u)
            for point in [z for z in phi.breakpoints_in(u, v) if u < z < v] + [v]:
                prev = xs[-1]
                base = vs[-1]
                xs.append(point)
                vs.append(base + sign * (1 - delta) * (phi(point) - phi(prev)))
            flat_until(comp.hi)
            comps.append(FlattenComponent(comp.lo, comp.hi, mass, rise, u, v))
        flat_until(q)
        assert vs[-1] == f(q), "cell endpoint mismatch"

    g = f.splice([PiecewiseLinear(xs, vs)])
    post = verify_contraction(g, phi, 1 - delta)
    if post is not None:
        raise AssertionError(f"flatten violated its own contraction: {post}")
    if env.min_margin_on(g, c, d) <= 0:
        raise PreconditionError("flattened function escapes the envelope")
    gamma_scale = (f(d) - f(c)) / total if total else Fraction(0)
    return FlattenResult(
        g,
        (c, d),
        gamma_scale,
        tuple(comps),
        total,
        (1 - eps) * total,
        eps,
        delta,
    )
