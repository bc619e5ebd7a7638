"""The tube type plus the two refinement lemmas.

An `Envelope(center, radius)` is the tube {g : |g - center| <= radius}; one
type serves the lemmas, the staged builder and its vicinity chain.  Every
tube test compares values on the merged grid (`pcw.grid_values`), and the
increment bound walks f's sloped segments (`pcw.sloped_segments`).
The staged builder uses only envelope_refine: each stage is already flat
where the next must be, so envelope_flatten is the standalone lemma.

envelope_refine replaces the tube's center f, monotone or not, by a
(1-δ)-slope zigzag with the same block increments, strictly inside the tube,
reading the cumulative measure Φ(x) = |E ∩ (-∞, x]| from E's own mass index
and building its pieces with `pcw.ramp_to`.  envelope_flatten asks for a
function flat on a closed set H with |H ∩ E| = 0, with f's endpoint values
and the (1-δ) contraction, and f itself is one: for x <= y in a component J
of H, |f(x) - f(y)| <= (1-ε)|E ∩ [x, y]| <= (1-ε)|E ∩ J| = 0.  So flatten
verifies its hypotheses and returns f.

Both lemmas act on an active compact segment, verify their preconditions
exactly and raise with an exact witness instead of assuming them.  The
preconditions they share (0 < δ < ε <= 1 and the increment bound
|Δf| <= (1-ε)|E ∩ Δ|) form one frame, `_lemma_frame`, and both require
the tube to be strict on the segment (`_least_radius`); each lemma adds
only its own checks.  f lies in its own tube, and the margin refine fits
its blocks into is the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import IntervalSet, RationalLike, rat
from .constructions import balance_point
from .pcw import PiecewiseLinear, grid_values, ramp_to, sloped_segments


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
        _, (gs, cs, rs) = grid_values((g, self.center, self.radius))
        return all(abs(a - b) <= r for a, b, r in zip(gs, cs, rs))

    def is_inside(self, other: "Envelope") -> bool:
        """Sufficient exact check for {g : |g-c| <= r} ⊆ {g : |g-c'| <= r'}:
        |c - c'| + r <= r' at the grid points: exact, as it is convex between them."""
        fs = (self.center, self.radius, other.center, other.radius)
        _, (cs, rs, cs2, rs2) = grid_values(fs)
        return all(abs(a - b) + r <= r2 for a, r, b, r2 in zip(cs, rs, cs2, rs2))

    def min_margin_on(self, g: PiecewiseLinear, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact min over [lo, hi] of r - |g - c|, which is concave between
        grid points, so its min is at one."""
        _, (gs, cs, rs) = grid_values((g, self.center, self.radius), lo, hi)
        return min(r - abs(a - b) for a, b, r in zip(gs, cs, rs))


def verify_contraction(
    f: PiecewiseLinear, E: IntervalSet, factor: Fraction
) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Exact check of |f(x)-f(y)| <= factor*|E ∩ [x, y]| for all x <= y.

    Equivalent to the same bound on each segment [a, b] of f, which is
    linear there and constant off its domain.  A flat segment passes; a
    sloped one passes exactly when a component J of E covers it and
    |f(b) - f(a)| <= factor·(b - a), as f moves across any part of [a, b]
    outside E (`pcw.sloped_segments`).  Returns None when the bound holds,
    else the first failing span (p, q, |Δf|, factor*|E ∩ [p, q]|) between
    f's breakpoints and E's endpoints: the first failing segment is cut there.
    ValueError on a negative factor, for which flat segments could fail."""
    if factor < 0:
        raise ValueError("factor must be nonnegative")
    for a, b, fa, fb, J in sloped_segments(f, E):
        if J is not None and J.lo <= a and b <= J.hi and abs(fb - fa) <= factor * (b - a):
            continue
        xs = [a, *E.endpoints_in(a, b), b]
        for p, q in zip(xs, xs[1:]):
            if p < q:
                df = abs(f(q) - f(p))
                allowed = factor * (q - p) if E.mass(p, q) == q - p else Fraction(0)
                if df > allowed:
                    return (p, q, df, allowed)
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


def _least_radius(radius: PiecewiseLinear, c: Fraction, d: Fraction) -> Fraction:
    """The least radius on [c, d], which both lemmas need positive; else
    PreconditionError with the first point where the radius is least."""
    xs, (rs,) = grid_values((radius,), c, d)
    least = min(rs)
    if least <= 0:
        raise PreconditionError("envelope is not strict on the segment", xs[rs.index(least)])
    return least


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
    margin: PiecewiseLinear, c: Fraction, d: Fraction, L: Fraction
) -> list[Fraction]:
    """Block boundaries sized by the local margin, snapped to dyadic grids.

    Each block [p, q] satisfies (q - p)(2 + L) <= margin(p), where L is the
    margin's largest absolute slope; that keeps a zigzag of amplitude
    <= 2(q - p) strictly inside the margin over the whole block (the margin
    loses at most L(q - p) across it).  With step = margin(p) / (2(2 + L)),
    half that bound, q is the largest point of the grid 2^-m Z at or below
    p + step, where m = 3 + bit_length(⌊1/step⌋) makes 2^-m < step/8.
    Every block end but d thus has a denominator of at most 2^m, and
    (7/8)·step < q - p <= step; the last block, which absorbs a sliver
    shorter than step/2, has q - p < (3/2)·step.

    The caller has checked that the margin is positive on [c, d]
    (`_least_radius`): a positive minimum μ bounds every step below by
    μ/denom, so the loop ends."""
    denom = 2 * (2 + L)  # halved steps leave room to merge slivers
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

    f need not be monotone: the verified increment bound makes every
    block's balance equation solvable (`balance_point`).
    """
    f, radius = tube.center, tube.radius
    eps, delta, c, d = _lemma_frame(tube, E, epsilon, delta, segment)
    if not (f.domain.lo < c < d < f.domain.hi):
        raise ValueError("segment must be strictly inside the domain")
    gamma = _least_radius(radius, c, d)
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
class FlattenResult:
    function: PiecewiseLinear
    segment: tuple[Fraction, Fraction]
    epsilon: Fraction
    delta: Fraction
    # always empty, as flatten rebuilds nothing; kept because the benchmark's
    # tracer counts len(components)
    components: tuple = ()


def envelope_flatten(
    tube: Envelope,
    E: IntervalSet,
    H: IntervalSet,
    epsilon: RationalLike,
    delta: RationalLike,
    segment: tuple[RationalLike, RationalLike],
) -> FlattenResult:
    """A function with slope exactly 0 on H, the tube's center f off the
    active segment [c, d] and at its ends, strictly inside the tube on it,
    with the (1-δ) contraction |g(x)-g(y)| <= (1-δ)|E ∩ [x, y]|: f itself.

    The lemma's hypotheses make f such a function, and all of them are
    verified here.  The increment bound |Δf| <= (1-ε)|E ∩ Δ| holds on all
    of f's domain (`_lemma_frame`) and |H ∩ E| = 0, so for x <= y in a
    component J of H, |f(x) - f(y)| <= (1-ε)|E ∩ [x, y]| <= (1-ε)|E ∩ J| = 0:
    f is flat on H, inside the segment and out of it, and 1-ε < 1-δ.
    A positive measure of H ∩ E raises PreconditionError with H ∩ E as
    witness, and a radius that is not positive somewhere on [c, d] raises it
    with the first point where the radius is least (`_least_radius`).
    """
    f = tube.center
    eps, delta, c, d = _lemma_frame(tube, E, epsilon, delta, segment)
    if not (f.domain.lo <= c < d <= f.domain.hi):
        raise ValueError("segment must lie inside the domain")
    meet = H.intersect(E)
    if meet.measure() != 0:
        raise PreconditionError("H meets E with positive measure", meet)
    _least_radius(tube.radius, c, d)
    return FlattenResult(f, (c, d), eps, delta)
