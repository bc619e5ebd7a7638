"""The tube type plus the two refinement lemmas.

An `Envelope(center, radius)` is the tube {g : |g - center| <= radius}; one
type serves the lemmas, the staged builder and its vicinity chain.  Every
tube test compares values on the merged grid of the functions involved.
The staged builder uses only envelope_refine: each stage is already flat
where the next must be, so envelope_flatten is the standalone lemma.

envelope_refine replaces the tube's center f, a monotone function, by a
(1-δ)-slope zigzag with the same block increments, strictly inside the tube;
envelope_flatten rebuilds f so that it is exactly flat on a closed set H
while keeping its endpoint values and a (1-δ) contraction against the
cumulative measure Φ(x) = |E ∩ (-∞, x]|.  Both operate on an active compact
segment and leave the function untouched (hence already flat where it needs
to be) outside it; both verify their preconditions exactly and raise with an
exact witness instead of assuming them.  The preconditions they share
(0 < δ < ε <= 1 and the increment bound |Δf| <= (1-ε)|E ∩ Δ|) form one
frame, `_lemma_frame`; each lemma adds only its own checks.  f lies in its
own tube, and the margin the lemmas fit their blocks into is the radius.
Both read Φ from E's own mass index, and both build their new pieces with
`pcw.ramp_to`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, IntervalSet, RationalLike, rat
from .constructions import balance_point
from .pcw import PiecewiseLinear, common_domain, first_sloped_segment, merged_breakpoints
from .pcw import monotone_runs, ramp_to


class PreconditionError(ValueError):
    """A verified precondition failed; .witness carries the exact data."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Envelope:
    """Tube of functions around a center: {g : |g - center| <= radius}.

    Strict inequality is required only on the active segment of a refine or
    flatten call; elsewhere radius = 0 is legal (the collars of the staged
    construction pin the function there).
    """

    center: PiecewiseLinear
    radius: PiecewiseLinear

    def __post_init__(self):
        if self.center.domain != self.radius.domain:
            raise ValueError("center and radius must share a domain")
        if self.radius.min_value() < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, g: PiecewiseLinear) -> bool:
        """|g - c| <= r at the grid points: exact, as |g - c| - r is convex between them."""
        gs, cs, rs = _grid_values((g, self.center, self.radius), *common_domain(g, self.center))
        return all(abs(a - b) <= r for a, b, r in zip(gs, cs, rs))

    def is_inside(self, other: "Envelope") -> bool:
        """Sufficient exact check for {g : |g-c| <= r} ⊆ {g : |g-c'| <= r'}:
        |c - c'| + r <= r' at the grid points: exact, as it is convex between them."""
        fs = (self.center, self.radius, other.center, other.radius)
        cs, rs, cs2, rs2 = _grid_values(fs, *common_domain(self.center, other.center))
        return all(abs(a - b) + r <= r2 for a, r, b, r2 in zip(cs, rs, cs2, rs2))

    def min_margin_on(self, g: PiecewiseLinear, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact min over [lo, hi] of r - |g - c|, which is concave between
        grid points, so its min is at one."""
        gs, cs, rs = _grid_values((g, self.center, self.radius), lo, hi)
        return min(r - abs(a - b) for a, b, r in zip(gs, cs, rs))


def _grid_values(fs: tuple[PiecewiseLinear, ...], lo: RationalLike, hi: RationalLike):
    """Each of fs at merged_breakpoints(fs, lo, hi); ValueError unless lo < hi in every domain."""
    lo, hi = rat(lo), rat(hi)
    if not all(f.domain.lo <= lo < hi <= f.domain.hi for f in fs):
        raise ValueError("window outside domain")
    xs = merged_breakpoints(fs, lo, hi)
    return [f.at(xs) for f in fs]


def verify_contraction(
    f: PiecewiseLinear, E: IntervalSet, factor: Fraction
) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Exact check of |f(x)-f(y)| <= factor*|E ∩ [x, y]| for all x <= y.

    Equivalent to the same bound on each segment between consecutive points
    of f's breakpoints and E's endpoints in f's domain (f is linear there
    and E has constant density 0 or 1; f is constant off its domain).
    Returns None when it holds, else a witness segment
    (a, b, |Δf|, factor*|E ∩ [a, b]|).  One walk reads E's masses: the
    marks of `E.masses_from` are grid points, and E covers all or none of
    the span between two of them."""
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    xs = merged_breakpoints((f,), lo, hi, extra=E.endpoints_in(lo, hi))
    fs = f.at(xs)
    marks = iter(E.masses_from(lo, hi))
    p1, m1 = lo, Fraction(0)
    for k in range(1, len(xs)):
        if xs[k - 1] == p1:  # a mark: E covers all or none of the span to the next
            (p0, m0), (p1, m1) = (p1, m1), next(marks)
        df = abs(fs[k] - fs[k - 1])
        allowed = factor * (xs[k] - xs[k - 1]) if m1 - m0 == p1 - p0 else Fraction(0)
        if df > allowed:
            return (xs[k - 1], xs[k], df, allowed)
    return None


def _lemma_frame(
    tube: Envelope,
    E: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: tuple[RationalLike, RationalLike],
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Verify the preconditions refine and flatten share (see the module
    docstring; the increment bound raises with its exact witness) and return
    (ε, δ, c, d) for the segment [c, d].  Each lemma checks where the
    segment may lie."""
    eps, delta = rat(epsilon), rat(delta)
    if not (0 < delta < eps <= 1):
        raise ValueError("need 0 < delta < epsilon <= 1")
    witness = verify_contraction(tube.center, E, 1 - eps)
    if witness is not None:
        raise PreconditionError(
            "increment precondition |Δf| <= (1-ε)|E ∩ Δ| fails", witness
        )
    return eps, delta, rat(segment[0]), rat(segment[1])


@dataclass(frozen=True)
class RefineResult:
    function: PiecewiseLinear
    segment: tuple[Fraction, Fraction]
    division_points: tuple[Fraction, ...]  # c_0, c_1, ..., c_{2n}
    epsilon: Fraction
    delta: Fraction
    margin: Fraction  # min of the tube's radius on the segment
    blocks: int


def _adaptive_block_bounds(
    margin: PiecewiseLinear,
    c: Fraction,
    d: Fraction,
    L: Fraction,
    extra_slope: Fraction = Fraction(0),
) -> list[Fraction]:
    """Block boundaries sized by the local margin, snapped to dyadic grids.

    Each block [p, q] satisfies (q - p)(2 + L + s) <= margin(p), where L
    is the margin's largest absolute slope and s bounds the function's; that
    keeps a zigzag or ramp of amplitude <= 2(q - p) strictly inside the
    margin over the whole block (the margin loses at most L(q - p) across
    it).  With step = margin(p) / (2(2 + L + s)), half that bound, q is the
    largest point of the grid 2^-m Z at or below p + step, where
    m = 3 + bit_length(⌊1/step⌋) makes 2^-m < step/8.
    Every block end but d thus has a denominator of at most 2^m, and
    (7/8)·step < q - p <= step; the last block, which absorbs a sliver
    shorter than step/2, has q - p < (3/2)·step.

    A margin that is not positive on all of [c, d] raises PreconditionError
    with the first point where it is least as witness.  A positive minimum
    μ bounds every step below by μ/denom, so the loop ends."""
    on_segment = margin.restrict(c, d)
    least = on_segment.min_value()
    if least <= 0:
        raise PreconditionError("margin vanished inside the active segment",
                                on_segment.breakpoints[on_segment.values.index(least)])
    denom = 2 * (2 + L + extra_slope)  # halved steps leave room to merge slivers
    out = [c]
    p = c
    while p < d:
        step = margin(p) / denom
        scale = 2 ** (3 + (step.denominator // step.numerator).bit_length())
        q = min(d, Fraction(math.floor((p + step) * scale), scale))
        if d - q < step / 2:
            q = d
        out.append(q)
        p = q
    return out


def envelope_refine(
    tube: Envelope,
    E: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: tuple[RationalLike, RationalLike],
    require_monotone: bool = True,
) -> RefineResult:
    """Zigzag refinement of the tube's center f strictly inside the tube.

    On the active segment [c, d] the result g satisfies g(c) = f(c),
    g(d) = f(d), g = K ± (1-δ)Φ on each of 2n monotone pieces, and the
    interior division points solve the exact balance equation
    (1-δ)(|E∩[c_{2i-2},c_{2i-1}]| - |E∩[c_{2i-1},c_{2i}]|) = f(c_{2i}) - f(c_{2i-2}).
    Outside the segment g = f.

    Blocks are sized by the local radius, which the staged builder needs
    when it varies over orders of magnitude.  With
    step = radius(p)/(2(2 + L)), L the radius's largest absolute slope, a
    block starting at p ends at the largest point at or below p + step of
    the dyadic grid 2^-m Z with 2^-m < step/8, so its length lies in
    ((7/8)·step, step] (the last one absorbs a sliver and stays below
    (3/2)·step) and its end carries no denominator of the radius
    (`_adaptive_block_bounds`).  The result is checked exactly to lie
    strictly inside the tube on [c, d].

    Monotonicity of f on [c, d] is the lemma's hypothesis; with
    require_monotone (the default) it is verified, and a violation raises
    PreconditionError whose witness is three breakpoints a < m < b with
    f(m) - f(a) and f(b) - f(m) of strictly opposite signs.  Zero slopes are
    allowed, and off [c, d] the result is f itself, so monotonicity there
    plays no part.  The construction itself uses only the increment
    precondition, which is always verified; the staged builder refines
    zigzag stage functions and passes require_monotone=False.
    """
    f, radius = tube.center, tube.radius
    eps, delta, c, d = _lemma_frame(tube, E, epsilon, delta, segment)
    if not (f.domain.lo < c < d < f.domain.hi):
        raise ValueError("segment must be strictly inside the domain")
    if require_monotone:
        runs = monotone_runs(f, c, d)
        if len(runs) > 1:
            (a, m), (_, b) = runs[0], runs[1]
            raise PreconditionError(
                "f is not monotone on the active segment", (a, m, b)
            )
    gamma = radius.restrict(c, d).min_value()
    if gamma <= 0:
        raise PreconditionError("envelope is not strict on the segment")
    evens = _adaptive_block_bounds(radius, c, d, max(map(abs, radius.slopes())))
    f_evens = f.at(evens)

    division: list[Fraction] = [c]
    xs: list[Fraction] = [c]
    vs: list[Fraction] = [f_evens[0]]
    for a, b, fa, fb in zip(evens, evens[1:], f_evens, f_evens[1:]):
        mid = balance_point(E, a, b, fb - fa, delta)
        division.extend([mid, b])
        ramp_to(xs, vs, E, 1 - delta, mid)
        ramp_to(xs, vs, E, delta - 1, b)

    assert vs[-1] == f_evens[-1], "telescoping failure"
    g = f.splice([PiecewiseLinear(xs, vs)])
    if tube.min_margin_on(g, c, d) <= 0:
        raise PreconditionError("refined function escapes the envelope")
    return RefineResult(g, (c, d), tuple(division), eps, delta, gamma, len(evens) - 1)


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
    tube: Envelope,
    E: IntervalSet,
    H: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: tuple[RationalLike, RationalLike],
) -> FlattenResult:
    """Rebuild the tube's center f with slope exactly 0 on H, same endpoint
    values, and the (1-δ) contraction |g(x)-g(y)| <= (1-δ)|E ∩ [x, y]|.

    The active segment is cut into cells on which f is linear with
    oscillation at most half the tube's radius; within each cell the
    E-mass of the intervals contiguous to H (all of them, so the selected
    mass equals the cell total and (1-δ)·selected > (1-ε)·total is
    certified) is re-ramped so that g matches f at every cell boundary and
    stays inside the tube.  H-parts outside the segment must already be
    flat for f.
    """
    f, radius = tube.center, tube.radius
    eps, delta, c, d = _lemma_frame(tube, E, epsilon, delta, segment)
    if not (f.domain.lo <= c < d <= f.domain.hi):
        raise ValueError("segment must lie inside the domain")
    if H.intersect(E).measure() != 0:
        raise PreconditionError("H meets E with positive measure",
                               H.intersect(E))

    # H outside the active segment: f must already be flat there
    outside = H.clip(f.domain).intersect(
        IntervalSet([Interval(c, d)]).complement_within(f.domain)
    )
    seg = first_sloped_segment(f, outside)
    if seg is not None:
        raise PreconditionError(
            "f is not flat on an H-part outside the active segment", seg
        )

    total = E.mass(c, d)
    if H.clip(Interval(c, d)).is_empty:
        # nothing to flatten: the identity path is permitted
        return FlattenResult(f, (c, d), Fraction(0), (), total,
                             (1 - eps) * total, eps, delta)

    if radius.restrict(c, d).min_value() <= 0:
        raise PreconditionError("envelope is not strict on the segment")

    # cells: f linear on each, short enough for the ramp (amplitude <= the
    # cell's f-oscillation) to stay inside the locally available radius
    r_slope = max(map(abs, radius.slopes()))
    bounds = merged_breakpoints((f,), c, d)
    f_bounds = f.at(bounds)
    ends = [c]
    for p, q, fp, fq in zip(bounds, bounds[1:], f_bounds, f_bounds[1:]):
        slope = abs(fq - fp) / (q - p)
        ends.extend(_adaptive_block_bounds(radius, p, q, r_slope, extra_slope=slope)[1:])
    f_ends = f.at(ends)

    comps: list[FlattenComponent] = []
    xs: list[Fraction] = [c]
    vs: list[Fraction] = [f_ends[0]]

    def flat_until(p: Fraction):
        if p > xs[-1]:
            xs.append(p)
            vs.append(vs[-1])

    for p, q, fp, fq in zip(ends, ends[1:], f_ends, f_ends[1:]):
        cell_mass = E.mass(p, q)
        rise_cell = fq - fp
        if cell_mass == 0:
            if rise_cell != 0:
                raise PreconditionError(
                    "zero E-mass but f is not constant on a cell", (p, q)
                )
            flat_until(q)
            continue
        scale = rise_cell / cell_mass  # |scale| <= 1-ε < 1-δ by contraction
        ramp_slope = (1 - delta) if scale >= 0 else (delta - 1)
        for comp in H.complement_within(Interval(p, q)):  # clips H to the cell
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
            ramp_to(xs, vs, E, ramp_slope, v)
            flat_until(comp.hi)
            comps.append(FlattenComponent(comp.lo, comp.hi, mass, rise, u, v))
        flat_until(q)
        assert vs[-1] == fq, "cell endpoint mismatch"

    g = f.splice([PiecewiseLinear(xs, vs)])
    post = verify_contraction(g, E, 1 - delta)
    if post is not None:
        raise AssertionError(f"flatten violated its own contraction: {post}")
    if tube.min_margin_on(g, c, d) <= 0:
        raise PreconditionError("flattened function escapes the envelope")
    gamma_scale = (f_ends[-1] - f_ends[0]) / total if total else Fraction(0)
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
