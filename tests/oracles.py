"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms: sets with dyadic
endpoints are handled as bitmasks over a 2^-m grid, densities and level-set
membership are minimized over dense radius grids.

The `ref_*` functions at the end are the slow paths that the one-sweep
piecewise-linear algebra replaced: they evaluate a function one point at a
time through its `__call__` and glue with `restrict` and `concat`, or
read E's cumulative measure with one bisect per point, or compare a tube
through intermediate functions built on the breakpoint union.

`ref_cumulative`, `ref_mass`, `ref_contains`, `ref_locate`,
`ref_masses_from`, `ref_endpoints_in` and `ref_clip` are the readers of E's
mass index without the float filter: each builds the endpoint and
prefix-sum lists from E's components and bisects them on Fractions only.
`ref_at`, `ref_merged_breakpoints` and `ref_simplify` are the sweep, the
evaluation grid and `simplify` without float keys: they order points by
Fraction comparisons only and interpolate on every segment.

`ref_weak_report` is the weak density check with one public ratio call per
candidate radius instead of one reader of the sided masses.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
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


# -- exact-bisect readers of the mass index ------------------------------------


def ref_index(E):
    """(ends, cum): E's endpoints lo_0, hi_0, lo_1, ... and cum[j], the
    total length of its first j components."""
    ends = [e for iv in E for e in (iv.lo, iv.hi)]
    cum = [Fraction(0)]
    for iv in E:
        cum.append(cum[-1] + (iv.hi - iv.lo))
    return ends, cum


def _ref_phi(ends, cum, i, x):
    """Φ(x) for x whose bisect position among the endpoints is i."""
    if i & 1:
        return cum[i >> 1] + (x - ends[i - 1])
    return cum[i >> 1]


def ref_cumulative(E, x):
    ends, cum = ref_index(E)
    return _ref_phi(ends, cum, bisect_right(ends, x), x)


def ref_mass(E, a, b):
    if a > b:
        raise ValueError(f"mass window with a > b: [{a}, {b}]")
    return ref_cumulative(E, b) - ref_cumulative(E, a)


def ref_contains(E, x):
    ends, _ = ref_index(E)
    i = bisect_left(ends, x)
    return i & 1 == 1 or (i < len(ends) and ends[i] == x)


def ref_locate(E, m):
    ends, cum = ref_index(E)
    if not 0 < m <= cum[-1]:
        raise ValueError(f"no leftmost t with Φ(t) = {m}")
    j = bisect_left(cum, m) - 1
    return ends[2 * j] + (m - cum[j])


def ref_masses_from(E, x0, b):
    ends, cum = ref_index(E)
    i = bisect_right(ends, x0)
    base = _ref_phi(ends, cum, i, x0)
    out = []
    last = x0
    while i < len(ends) and ends[i] < b:
        p = ends[i]
        if p != last:
            out.append((p, cum[(i + 1) >> 1] - base))
            last = p
        i += 1
    out.append((b, _ref_phi(ends, cum, i, b) - base))
    return out


def ref_endpoints_in(E, lo, hi):
    ends, _ = ref_index(E)
    return ends[bisect_left(ends, lo):bisect_right(ends, hi)]


def ref_clip(E, a, b):
    """The (lo, hi) pairs of E ∩ [a, b] with lo < hi, for a < b."""
    ends, _ = ref_index(E)
    first = bisect_right(ends, a) // 2
    stop = (bisect_left(ends, b) + 1) // 2
    pairs = [(max(iv.lo, a), min(iv.hi, b)) for iv in E.intervals[first:stop]]
    return [(lo, hi) for lo, hi in pairs if lo < hi]


# -- exact-only sweep, grid and simplify ----------------------------------------


def ref_at(f, xs):
    """f at nondecreasing xs in one forward pass, comparing Fractions only;
    ValueError when xs steps back past a breakpoint."""
    bps, vals = f.breakpoints, f.values
    out = []
    i = 1
    for x in xs:
        if x <= bps[0]:
            out.append(vals[0])
        elif x >= bps[-1]:
            out.append(vals[-1])
        else:
            while bps[i] < x:
                i += 1
            if x <= bps[i - 1]:
                raise ValueError("xs must be nondecreasing")
            x0, x1, v0, v1 = bps[i - 1], bps[i], vals[i - 1], vals[i]
            out.append(v1 if x == x1 else v0 + (v1 - v0) * (x - x0) / (x1 - x0))
    return out


def ref_merged_breakpoints(fs, lo, hi, extra=()):
    """lo, the distinct breakpoints of fs and points of extra strictly inside
    (lo, hi), and hi, by a sort of Fractions."""
    inner = sorted({b for f in fs for b in f.breakpoints} | set(extra))
    return [lo, *(b for b in inner if lo < b < hi), hi]


def ref_simplify(f):
    """f without the interior breakpoints where the slope does not change,
    with two divisions per breakpoint."""
    bps, vals = f.breakpoints, f.values
    keep_b, keep_v = [bps[0]], [vals[0]]
    for i in range(1, len(bps) - 1):
        s0 = (vals[i] - keep_v[-1]) / (bps[i] - keep_b[-1])
        s1 = (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
        if s0 != s1:
            keep_b.append(bps[i])
            keep_v.append(vals[i])
    keep_b.append(bps[-1])
    keep_v.append(vals[-1])
    return type(f)(keep_b, keep_v)


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


def ref_contraction_by_bisects(f, E, factor):
    """verify_contraction with one bisect of E's mass index per point of
    its grid, the sorted union of f's breakpoints and E's endpoints in f's
    domain: the first segment with |Δf| > factor·|E ∩ Δ|, or None."""
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    xs = sorted({*f.breakpoints, *ref_endpoints_in(E, lo, hi)})
    for a, b in zip(xs, xs[1:]):
        df, allowed = abs(f(b) - f(a)), factor * ref_mass(E, a, b)
        if df > allowed:
            return (a, b, df, allowed)
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


def ref_ramp_to(xs, vs, E, slope, b):
    """The ramp with one Φ bisect per point: v0 + slope·(Φ(p) - Φ(x0)) at
    every endpoint p of E strictly inside (x0, b), each once, then at b."""
    x0, v0 = xs[-1], vs[-1]
    base = E.cumulative(x0)
    for p in E.endpoints_in(x0, b):
        if xs[-1] < p < b:
            xs.append(p)
            vs.append(v0 + slope * (E.cumulative(p) - base))
    xs.append(b)
    vs.append(v0 + slope * (E.cumulative(b) - base))


def ref_min_margin_on(tube, g, lo, hi):
    """min over [lo, hi] of r - |g - c|: each function restricted, |g - c|
    built as max(g - c, c - g), r - |g - c| on the breakpoint union, then a
    min over its breakpoints."""
    g, c, r = (f.restrict(lo, hi) for f in (g, tube.center, tube.radius))
    diff = ref_combine(g, c, operator.sub)
    margin = ref_combine(r, ref_pick(diff, diff.scale(-1), max), operator.sub)
    return min(margin(x) for x in margin.breakpoints)


def ref_band_margin_on(lower, upper, g, lo, hi):
    """min(g - lower, upper - g) over [lo, hi]: each function restricted,
    both differences built on the breakpoint union, then a min per point."""
    g, lower, upper = (f.restrict(lo, hi) for f in (g, lower, upper))
    below = ref_combine(g, lower, operator.sub)
    above = ref_combine(upper, g, operator.sub)
    return min(min(below(x), above(x)) for x in ref_union(below, above))


def ref_between(lower, g, upper):
    """lower <= g <= upper as two pointwise comparisons."""
    return ref_le(lower, g) and ref_le(g, upper)


def ref_positive_zone(f, lo, hi):
    """The longest run of segments of f on [lo, hi] on which f is positive at
    the left end or at the midpoint, each evaluated through __call__."""
    g = f.restrict(lo, hi)
    xs = list(g.breakpoints)
    zones = []
    start = None
    for i, x in enumerate(xs):
        positive_right = (
            i + 1 < len(xs) and (g(x) > 0 or g((x + xs[i + 1]) / 2) > 0)
        )
        if positive_right and start is None:
            start = x
        if not positive_right and start is not None:
            zones.append((start, x))
            start = None
    if start is not None:
        zones.append((start, xs[-1]))
    if not zones:
        return None
    return max(zones, key=lambda z: z[1] - z[0])


def ref_vicinity_contains(center, radius, g):
    """|g - c| <= r with |g - c| built as max(g - c, c - g)."""
    diff = ref_combine(g, center, operator.sub)
    return ref_le(ref_pick(diff, diff.scale(-1), max), radius)


def ref_vicinity_is_inside(inner, outer):
    """|c - c'| + r <= r' with |c - c'| built as max(c - c', c' - c)."""
    diff = ref_combine(inner.center, outer.center, operator.sub)
    abs_diff = ref_pick(diff, diff.scale(-1), max)
    return ref_le(ref_combine(abs_diff, inner.radius, operator.add), outer.radius)


# -- weak density checks, one ratio call per candidate --------------------------


def ref_weak_report(E, x, eps, centered):
    """(verdict, r, ratio, side) of the weak density check at x: the max of
    `one_sided_ratio` left and right (left on ties), or `centered_ratio`, at
    each distance from x to an endpoint of E inside (0, ε) and at ε; the
    first best radius.  None where only r = ε beats 1 - ε (the open end,
    whose witness radius lies inside the last piece)."""
    from lipsets.density import centered_ratio, one_sided_ratio

    def best_of(r):
        if centered:
            return centered_ratio(E, x, r), "both"
        left, right = one_sided_ratio(E, x, r, "left"), one_sided_ratio(E, x, r, "right")
        return (left, "left") if left >= right else (right, "right")

    radii = sorted({abs(e - x) for e in E.endpoints() if 0 < abs(e - x) < eps}) + [eps]
    value, side, r = max(((*best_of(r), r) for r in radii), key=operator.itemgetter(0))
    if value <= 1 - eps:
        return "fails", r, value, side
    return None if r == eps else ("holds", r, value, side)
