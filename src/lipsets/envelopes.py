"""The tube type plus the two refinement lemmas.

An `Envelope(center, radius)` is the tube {g : |g - center| <= radius}; one
type serves the lemmas, the staged builder and its vicinity chain.  Every
tube test (`contains`, `is_inside`, `min_margin_on`) and the least radius
(`_least_radius`) compare integers on the merged grid (`pcw.integer_grid`),
and the increment bound (`verify_contraction`) compares f's integer
increments with E's integer masses on one scale; only a failing segment is
cut in Fractions for its witness.  The staged builder uses only
envelope_refine: each stage is already flat where the next must be, so
envelope_flatten is the standalone lemma.

envelope_refine replaces the tube's center f, monotone or not, by a
(1-δ)-slope zigzag with the same block increments, strictly inside the tube.
Its exact steps are integer: the block ends (`_adaptive_block_bounds`), and
one walk over the blocks (`_zigzag`) that solves each block's balance
equation on E's mass index (`constructions.balance_on`, reading the
cumulative measure Φ(x) = |E ∩ (-∞, x]| with `IntervalSet.phi_on` and its
inverse `IntervalSet.locate_on`) and makes one Fraction per zigzag point.
envelope_flatten asks for a function flat on a closed set H with
|H ∩ E| = 0, with f's endpoint values and the (1-δ) contraction, and f
itself is one: for x <= y in a component J of H,
|f(x) - f(y)| <= (1-ε)|E ∩ [x, y]| <= (1-ε)|E ∩ J| = 0.  So flatten
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

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .intervals import IntervalSet, RationalLike, on_scale, own_scale, rat
from .constructions import balance_on
from .pcw import PiecewiseLinear, integer_grid, rescaled


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
        _, _, _, _, (gs, cs, rs) = integer_grid((g, self.center, self.radius))
        return all(abs(a - b) <= r for a, b, r in zip(gs, cs, rs))

    def is_inside(self, other: "Envelope") -> bool:
        """Sufficient exact check for {g : |g-c| <= r} ⊆ {g : |g-c'| <= r'}:
        |c - c'| + r <= r' at the grid points: exact, as it is convex between them."""
        fs = (self.center, self.radius, other.center, other.radius)
        _, _, _, _, (cs, rs, cs2, rs2) = integer_grid(fs)
        return all(abs(a - b) + r <= r2 for a, r, b, r2 in zip(cs, rs, cs2, rs2))

    def min_margin_on(self, g: PiecewiseLinear, lo: Fraction, hi: Fraction) -> Fraction:
        """Exact min over [lo, hi] of r - |g - c|, which is concave between
        grid points, so its min is at one."""
        _, _, _, W, (gs, cs, rs) = integer_grid((g, self.center, self.radius), lo, hi)
        return Fraction(min(r - abs(a - b) for a, b, r in zip(gs, cs, rs)), W)


def verify_contraction(
    f: PiecewiseLinear, E: IntervalSet, factor: Fraction
) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Exact check of |f(x)-f(y)| <= factor*|E ∩ [x, y]| for all x <= y.

    Equivalent to the same bound on each segment [a, b] of f, which is
    linear there and constant off its domain.  A flat segment passes; a
    sloped one passes exactly when E covers it, |E ∩ [a, b]| = b - a, and
    |f(b) - f(a)| <= factor·(b - a), as f moves across any part of [a, b]
    outside E.  Both are integer comparisons: breakpoints X on
    S = lcm(D_E, their denominators), f's index moved to S
    (`PiecewiseLinear._scaled`), values V on W = lcm(their denominators),
    each read once, and with factor = p/q a sloped segment passes when
    Φ_S(X1) - Φ_S(X0) = ΔX (`IntervalSet.phi_on`) and q·S·|ΔV| <= p·W·ΔX.
    Returns None when the bound holds, else the first failing span
    (p, q, |Δf|, factor*|E ∩ [p, q]|) between f's breakpoints and E's
    endpoints: the first failing segment is cut there in Fractions.
    ValueError on a negative factor, for which flat segments could fail."""
    if factor < 0:
        raise ValueError("factor must be nonnegative")
    bps = f.breakpoints
    index = f._scaled()
    S = lcm(E.mass_scale, index[0])
    X, (W, V) = rescaled(index, S), own_scale(f.values)
    allow, per = factor.numerator * W, factor.denominator * S
    phi = E.phi_on
    for k in range(len(X) - 1):
        dv = V[k + 1] - V[k]
        if not dv:
            continue
        x0, x1 = X[k], X[k + 1]
        if per * abs(dv) <= allow * (x1 - x0) and phi(S, x1) - phi(S, x0) == x1 - x0:
            continue
        a, b = bps[k], bps[k + 1]
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
    grid, point, _, W, (rs,) = integer_grid((radius,), c, d)
    least = min(rs)
    if least <= 0:
        raise PreconditionError("envelope is not strict on the segment",
                                point[grid[rs.index(least)]])
    return Fraction(least, W)


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

    In integers: walking forward over the margin's segments, margin(p) is
    read on the segment that holds p, as c0 + s·p with its intercept c0 and
    slope s found once per segment, in an unreduced integer fraction;
    step is the unreduced sn/sd, q = k/2^m with
    k = ⌊(p + step)·2^m⌋, and q >= d or d - q < step/2, which both end the
    walk at d, is the one cross-multiplied test
    2·sd·(d·2^m - k) < sn·2^m.  Only block ends become Fractions.

    The caller has checked that c < d and that the margin is positive on
    [c, d] (`_least_radius`): a positive minimum μ bounds every step below
    by μ/(2(2 + L)), so the walk ends."""
    bps, vals = margin.breakpoints, margin.values
    Ld = L.denominator
    denom = 2 * (2 * Ld + L.numerator)  # 2(2 + L)·Ld: halved steps leave room to merge slivers
    dn, dd = d.numerator, d.denominator
    out = [c]
    p, i, seg = c, max(1, margin._position(c, False)), 0
    while True:
        while bps[i] < p:  # bps[i - 1] <= p <= bps[i]
            i += 1
        if i != seg:  # the margin is c0 + s·x on [bps[i - 1], bps[i]]
            seg = i
            s = (vals[i] - vals[i - 1]) / (bps[i] - bps[i - 1])
            c0 = vals[i - 1] - s * bps[i - 1]
            cn, cd, gn, gd = c0.numerator, c0.denominator, s.numerator, s.denominator
        pn, pd = p.numerator, p.denominator
        # step = margin(p)/(2(2 + L)) = sn/sd
        sn, sd = (cn * gd * pd + gn * cd * pn) * Ld, cd * gd * pd * denom
        scale = 1 << (3 + (sd // sn).bit_length())
        k = (pn * sd + sn * pd) * scale // (pd * sd)
        if 2 * sd * (dn * scale - k * dd) < sn * scale * dd:
            out.append(d)
            return out
        p = Fraction(k, scale)
        out.append(p)


def _zigzag(
    E: IntervalSet, evens: list[Fraction], f_evens: list[Fraction], delta: Fraction
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(division, xs, vs): the division points c_0, c_1, ..., c_2n and the
    zigzag's breakpoints and values over the blocks [a, b] between evens,
    where f takes f_evens, in one walk over the blocks.

    Each block is solved on integers (`constructions.balance_on`): on its
    scale S = lcm(D_E, den a, den b), with the target f(b) - f(a) and
    1 - δ as unreduced pairs, the balance point t = u/T has Φ(t) = Y/T.
    The zigzag rises with slope (1-δ) on E from (a, f(a)) to t and falls
    back to (b, f(b)); so every point p of [a, b] takes
    f(a) + (1-δ)(min(Φ(p), 2Φ(t) - Φ(p)) - Φ(a)), one Fraction from
    integers on T.  The points are t and E's endpoints strictly inside
    (a, b) (`IntervalSet.ends_on`), each once, then b, which takes f(b)
    itself: the balance equation makes the fall end there exactly."""
    kn, kd = delta.denominator - delta.numerator, delta.denominator  # 1 - δ = kn/kd
    D = E.mass_scale
    division, xs, vs = [evens[0]], [evens[0]], [f_evens[0]]
    for a, b, fa, fb in zip(evens, evens[1:], f_evens, f_evens[1:]):
        S = lcm(D, a.denominator, b.denominator)
        ua, ub = on_scale(a, S), on_scale(b, S)
        fn, fd = fa.numerator, fa.denominator
        T, u, y, base = balance_on(E, S, ua, ub, fb.numerator * fd - fn * fb.denominator,
                                   fd * fb.denominator, kn, kd)
        mid = Fraction(u, T)
        w = T // S
        top, den, rise = fn * kd * T, fd * kd * T, fd * kn
        inner = E.ends_on(T, ua * w + 1, ub * w - 1)
        for p in sorted({u, *inner}) if inner else (u,):
            P = y if p == u else E.phi_on(T, p)
            xs.append(mid if p == u else Fraction(p, T))
            vs.append(Fraction(top + rise * (min(P, 2 * y - P) - base), den))
        xs.append(b)
        vs.append(fb)
        division += (mid, b)
    return division, xs, vs


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
    (`_adaptive_block_bounds`, on integers).  One integer walk over the
    blocks solves every balance equation and builds the zigzag
    (`_zigzag`).  The result is checked exactly to lie strictly inside the
    tube on [c, d] (`Envelope.min_margin_on`, on `pcw.integer_grid`).

    f need not be monotone: the verified increment bound makes every
    block's balance equation solvable.
    """
    f, radius = tube.center, tube.radius
    eps, delta, c, d = _lemma_frame(tube, E, epsilon, delta, segment)
    if not (f.domain.lo < c < d < f.domain.hi):
        raise ValueError("segment must be strictly inside the domain")
    gamma = _least_radius(radius, c, d)
    evens = _adaptive_block_bounds(radius, c, d, max(map(abs, radius.slopes())))
    division, xs, vs = _zigzag(E, evens, [f(x) for x in evens], delta)
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
