"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: sets with dyadic
endpoints are handled as bitmasks over a 2^-m grid, densities and level-set
membership are minimized over dense radius grids.

The `ref_*` functions at the end are the slow paths that the one-sweep
piecewise-linear algebra replaced: they evaluate a function one point at a
time through its `__call__` and glue with `restrict` and `concat`.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def to_cells(pairs, window, m):
    """Bitmask of the set over the window at resolution 2^-m.

    Pairs must lie inside the window with endpoints on the grid k/2^m
    (anything outside would be dropped silently); cell i covers
    [window_lo + i/2^m, window_lo + (i+1)/2^m].
    """
    lo, hi = window
    scale = 2 ** m
    n = (hi - lo) * scale
    assert n == int(n), "window must be grid-aligned"
    n = int(n)
    cells = 0
    for a, b in pairs:
        assert lo <= a <= b <= hi, f"pair ({a}, {b}) lies outside the window"
        ia = (a - lo) * scale
        ib = (b - lo) * scale
        assert ia == int(ia) and ib == int(ib), "endpoints must be grid-aligned"
        for i in range(max(0, int(ia)), min(n, int(ib))):
            cells |= 1 << i
    return cells, n


def cells_measure(cells, m):
    return Fraction(bin(cells).count("1"), 2 ** m)


def cells_union(c1, c2):
    return c1 | c2


def cells_intersect(c1, c2):
    return c1 & c2


def cells_complement(cells, n):
    return ~cells & ((1 << n) - 1)


def brute_one_sided_measure(pairs, x, r, side):
    """|E ∩ (x-r, x)| or |E ∩ (x, x+r)| by direct interval clipping."""
    if side == "left":
        lo, hi = x - r, x
    else:
        lo, hi = x, x + r
    total = Fraction(0)
    for a, b in pairs:
        c, d = max(a, lo), min(b, hi)
        if c < d:
            total += d - c
    return total


def brute_max_ratio(pairs, x, r):
    left = brute_one_sided_measure(pairs, x, r, "left") / r
    right = brute_one_sided_measure(pairs, x, r, "right") / r
    return max(left, right)


def brute_level_membership(pairs, x, gamma, delta, m=14):
    """Grid oracle for x ∈ E^{γ,δ}: minimize the max one-sided ratio over
    radii k/2^m in (0, δ].  Weaker than the exact test (misses off-grid
    minima) but never wrongly rejects a member at its own resolution."""
    step = Fraction(1, 2 ** m)
    k = 1
    worst = None
    while k * step <= delta:
        ratio = brute_max_ratio(pairs, x, k * step)
        if worst is None or ratio < worst:
            worst = ratio
        k += 1
    if worst is None:
        worst = brute_max_ratio(pairs, x, delta)
    return worst >= gamma, worst


def brute_m_ratio(f_eval, x, r, samples=512):
    """Grid lower bound for sup |f(x)-f(y)|/r over |y-x| <= r."""
    fx = f_eval(x)
    best = Fraction(0)
    for i in range(samples + 1):
        y = x - r + Fraction(2 * i, samples) * r
        v = abs(f_eval(y) - fx)
        if v > best:
            best = v
    return best / r


# -- slow paths of the piecewise-linear algebra --------------------------------


def ref_union(f, g):
    return sorted(set(f.breakpoints) | set(g.breakpoints))


def ref_crossings(f, g):
    """The breakpoint union plus every point where f - g changes sign."""
    xs = ref_union(f, g)
    out = []
    for a, b in zip(xs, xs[1:]):
        out.append(a)
        da, db = f(a) - g(a), f(b) - g(b)
        if da * db < 0:
            out.append(a + da / (da - db) * (b - a))
    out.append(xs[-1])
    return out


def ref_combine(f, g, op):
    """op(f, g) on the breakpoint union, one __call__ per point."""
    xs = ref_union(f, g)
    return type(f)(xs, [op(f(x), g(x)) for x in xs])


def ref_le(f, g):
    return all(f(x) <= g(x) for x in ref_union(f, g))


def ref_pick(f, g, choose):
    """choose(f, g) at the breakpoints and crossings, simplified."""
    xs = ref_crossings(f, g)
    return type(f)(xs, [choose(f(x), g(x)) for x in xs]).simplify()


def ref_contraction_witness(f, phi, factor):
    """First segment of the breakpoint union with |Δf| > factor·Δφ, as
    (a, b, |Δf|, factor·Δφ), or None; f and φ may have different domains."""
    xs = ref_union(f, phi)
    for a, b in zip(xs, xs[1:]):
        df, dphi = abs(f(b) - f(a)), phi(b) - phi(a)
        if df > factor * dphi:
            return (a, b, df, factor * dphi)
    return None


def ref_splice(f, pieces):
    """Each piece put in place one at a time by restrict and concat."""
    for piece in pieces:
        lo, hi = piece.breakpoints[0], piece.breakpoints[-1]
        out = piece
        if f.breakpoints[0] < lo:
            out = f.restrict(f.breakpoints[0], lo).concat(out)
        if hi < f.breakpoints[-1]:
            out = out.concat(f.restrict(hi, f.breakpoints[-1]))
        f = out
    return f.simplify()


def ref_first_sloped_segment(f, pairs):
    """(a, b) of the first segment where f moves between a and the segment's
    midpoint and the intervals in pairs cover positive length, or None."""
    for a, b in zip(f.breakpoints, f.breakpoints[1:]):
        if f((a + b) / 2) == f(a):
            continue
        if any(min(hi, b) > max(lo, a) for lo, hi in pairs):
            return (a, b)
    return None


def ref_vicinity_contains(center, radius, g):
    """|g - c| <= r with |g - c| built as max(g - c, c - g)."""
    diff = ref_combine(g, center, operator.sub)
    return ref_le(ref_pick(diff, diff.scale(-1), max), radius)


def ref_vicinity_is_inside(inner, outer):
    """|c - c'| + r <= r' with |c - c'| built as max(c - c', c' - c)."""
    diff = ref_combine(inner.center, outer.center, operator.sub)
    abs_diff = ref_pick(diff, diff.scale(-1), max)
    return ref_le(ref_combine(abs_diff, inner.radius, operator.add), outer.radius)
