"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own algorithms, and import nothing
from it (`test_oracles.py` checks that): sets with dyadic endpoints are
handled as bitmasks over a 2^-m grid, densities and level-set membership
are minimized over dense radius grids.

The `ref_*` functions at the end are the slow paths that the integer
piecewise-linear readers replaced: they evaluate a function one point at a
time through its `__call__` and glue the breakpoint and value tuples of
`restrict`ed pieces themselves, or read E's cumulative measure with one
bisect per point, or compare a tube through intermediate functions built
on the breakpoint union.

`ref_cumulative`, `ref_mass`, `ref_contains`, `ref_locate`,
`ref_endpoints_in` and `ref_clip` are the readers of E's
mass index without its integer scale: each builds the endpoint and
prefix-sum lists from E's components and bisects them on Fractions only.
`ref_intersect` and `ref_distance` use no index at all: they compare
every pair of components of the two sets.
`ref_at`, `ref_merged_breakpoints` and `ref_simplify` are point reads, the
merged grid and `simplify` without integer indexes or scales: they order
points by Fraction comparisons only and interpolate on every segment.
`ref_pl_sum` is the n-ary sum in Fractions: every term read through
`__call__` at each point of `ref_merged_breakpoints`, one Fraction add per
term and point, then `ref_simplify`, which every oracle that simplifies
calls.  `ref_monotone_runs` scans the Fraction values of `restrict`.
`ref_envelope` is the n-ary min or max as pairwise `ref_pick`s, each
adding the crossings of f - g in Fractions, and `ref_cauchy_step` is the
builder's ‖f_n - f_{n-1}‖ as a Fraction max on `ref_merged_breakpoints`.

`ref_balance_point`, `ref_refine_blocks` and `ref_block_bounds` are refine's
steps in Fractions: the balance point as `balance_point` solved it, the
zigzag as one balance point and two `ref_ramp_to` ramps per block, and the
block ends with one Fraction step per block.  The tube checks' slow paths
(`ref_min_margin_on`, `ref_vicinity_contains`, `ref_vicinity_is_inside`,
`ref_contraction_by_bisects`) build intermediate functions or bisect per
point.

`ref_persistence_ok` is the staged build's persistence check as it read
before it compared consecutive stages only: every pair n < m, each
component of F_n read through `restrict` and `__call__`.

`ref_case_split_candidates` is the stage witness case split as it read
before it was written in x's own coordinates: it reflects x, its run and
its neighbour to -x when x sits in the right half of its run.

`ref_weak_report`, `ref_one_sided_rows`, `ref_worst_window_ratio`,
`ref_worst_imbalance` and `ref_sample_points` are the density checks and
the sampling of the condition checks in Fractions: every mass is a
`ref_mass` difference of Fractions and every ratio a Fraction division,
where the library compares integer rows on one scale.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence


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


def ref_intersect(A, B):
    """A ∩ B from the overlaps of positive length of every pair of
    components, through the canonicalizing constructor of A's class."""
    pieces = [type(a)(max(a.lo, b.lo), min(a.hi, b.hi)) for a in A for b in B
              if max(a.lo, b.lo) < min(a.hi, b.hi)]
    return type(A)(pieces)


def ref_distance(A, B):
    """The least gap max(0, later lo - earlier hi) over every pair of
    components; None when either set is empty."""
    gaps = [max(Fraction(0), max(a.lo, b.lo) - min(a.hi, b.hi)) for a in A for b in B]
    return min(gaps) if gaps else None


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


def ref_merged_breakpoints(fs, lo, hi):
    """lo, the distinct breakpoints of fs strictly inside (lo, hi), and hi,
    by a sort of Fractions."""
    inner = sorted({b for f in fs for b in f.breakpoints})
    return [lo, *(b for b in inner if lo < b < hi), hi]


def ref_monotone_runs(f, lo, hi):
    """Maximal intervals of [lo, hi] on which f is monotone, zero slopes
    extending the current run: a scan of the Fraction values of
    f.restrict(lo, hi)."""
    g = f.restrict(lo, hi)
    xs, vs = g.breakpoints, g.values
    runs, start, direction = [], xs[0], 0
    for i in range(len(xs) - 1):
        sgn = (vs[i + 1] > vs[i]) - (vs[i + 1] < vs[i])
        if sgn and direction and sgn != direction:
            runs.append((start, xs[i]))
            start = xs[i]
        direction = sgn or direction
    runs.append((start, xs[-1]))
    return runs


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


def ref_pl_sum(fs):
    """Σ fs on their common domain, simplified, in Fractions: ValueError if
    fs is empty or the domains differ."""
    if not fs:
        raise ValueError("need at least one function")
    lo, hi = fs[0].breakpoints[0], fs[0].breakpoints[-1]
    if any(f.breakpoints[0] != lo or f.breakpoints[-1] != hi for f in fs):
        raise ValueError("domain mismatch")
    xs = ref_merged_breakpoints(fs, lo, hi)
    return ref_simplify(type(fs[0])(xs, [sum(f(x) for f in fs) for x in xs]))


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
    return ref_simplify(type(f)(xs, [choose(f(x), g(x)) for x in xs]))


def ref_envelope(fs, choose):
    """choose (min or max) of fs as pairwise `ref_pick`s in turn; a single
    function simplified."""
    out = ref_simplify(fs[0])
    for g in fs[1:]:
        out = ref_pick(out, g, choose)
    return out


def ref_cauchy_step(f, g):
    """max |f - g| on the merged grid, one Fraction difference per point."""
    xs = ref_merged_breakpoints((f, g), f.breakpoints[0], f.breakpoints[-1])
    return max(abs(f(x) - g(x)) for x in xs)


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
    """Each piece put in place one at a time: the breakpoint and value
    tuples of f restricted left of it, of the piece and of f restricted
    right of it, joined where each seam's point and value agree."""
    for piece in pieces:
        lo, hi = piece.breakpoints[0], piece.breakpoints[-1]
        parts = [piece]
        if f.breakpoints[0] < lo:
            parts.insert(0, f.restrict(f.breakpoints[0], lo))
        if hi < f.breakpoints[-1]:
            parts.append(f.restrict(hi, f.breakpoints[-1]))
        xs, vs = parts[0].breakpoints, parts[0].values
        for g in parts[1:]:
            assert (xs[-1], vs[-1]) == (g.breakpoints[0], g.values[0]), "seam"
            xs, vs = xs + g.breakpoints[1:], vs + g.values[1:]
        f = type(f)(xs, vs)
    return ref_simplify(f)


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


def ref_balance_point(E, r, s, target, delta):
    """`balance_point` in Fractions: the leftmost inverse of Φ at
    Φ(r) + (A + target/(1-δ))/2 with A = |E ∩ [r, s]|, the midpoint of a
    block with no mass; ValueError on an unsolvable target."""
    phi_r = ref_cumulative(E, r)
    A = ref_cumulative(E, s) - phi_r
    tau = target / (1 - delta)
    if A == 0:
        if target != 0:
            raise ValueError("unsolvable target: block carries no E-mass")
        return (r + s) / 2
    if abs(tau) >= A:
        raise ValueError("unsolvable target (precondition violated)")
    return ref_locate(E, phi_r + (A + tau) / 2)


def ref_refine_blocks(E, evens, f_evens, delta):
    """(division, xs, vs) of refine's zigzag as the Fraction loop: per
    block [a, b] a balance point t, then a ramp of slope 1 - δ to t and one
    of slope δ - 1 to b."""
    division, xs, vs = [evens[0]], [evens[0]], [f_evens[0]]
    for a, b, fa, fb in zip(evens, evens[1:], f_evens, f_evens[1:]):
        mid = ref_balance_point(E, a, b, fb - fa, delta)
        division += [mid, b]
        ref_ramp_to(xs, vs, E, 1 - delta, mid)
        ref_ramp_to(xs, vs, E, delta - 1, b)
    assert vs[-1] == f_evens[-1], "telescoping failure"
    return division, xs, vs


def ref_block_bounds(margin, c, d, L):
    """refine's block ends in Fractions: from p, step = margin(p)/(2(2 + L)),
    q the largest point of 2^-m Z at or below p + step with
    m = 3 + bit_length(⌊1/step⌋), capped at d, and d itself when d - q < step/2."""
    denom = 2 * (2 + L)
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


def ref_persistence_ok(result):
    """The staged build's persistence check over every pair of stages:
    f_m = f_n on each component of F_n of positive length for every n < m,
    read through `restrict` and `__call__` at the breakpoints of both
    restrictions, then every tail witness ratio at every later stage."""
    stages, closed = result.stages, result.system.closed_sets
    for n, f_n in enumerate(stages, start=1):
        for f_m in stages[n:]:
            for comp in closed[n - 1]:
                if comp.lo < comp.hi:
                    g, h = f_n.restrict(comp.lo, comp.hi), f_m.restrict(comp.lo, comp.hi)
                    if any(g(x) != h(x) for x in {*g.breakpoints, *h.breakpoints}):
                        return False
        for f_m in stages[n - 1:]:
            for rec in result.diagnostics[n - 1].witnesses:
                if not abs(f_m(rec.x) - f_m(rec.y)) > rec.tail_target * abs(rec.x - rec.y):
                    return False
    return True


def ref_vicinity_contains(center, radius, g):
    """|g - c| <= r with |g - c| built as max(g - c, c - g)."""
    diff = ref_combine(g, center, operator.sub)
    return ref_le(ref_pick(diff, diff.scale(-1), max), radius)


def ref_vicinity_is_inside(inner, outer):
    """|c - c'| + r <= r' with |c - c'| built as max(c - c', c' - c)."""
    diff = ref_combine(inner.center, outer.center, operator.sub)
    abs_diff = ref_pick(diff, diff.scale(-1), max)
    return ref_le(ref_combine(abs_diff, inner.radius, operator.add), outer.radius)


# -- density checks in Fractions -------------------------------------------------


def ref_sided_ratio(E, x, r, side):
    """|E ∩ [x - r, x]|/r, |E ∩ [x, x + r]|/r, or for side "both" the
    centered ratio |E ∩ [x - r, x + r]|/(2r), by `ref_mass`."""
    if side == "left":
        return ref_mass(E, x - r, x) / r
    if side == "right":
        return ref_mass(E, x, x + r) / r
    return ref_mass(E, x - r, x + r) / (2 * r)


def ref_weak_report(E, x, eps, centered):
    """(verdict, r, ratio, side) of the weak density check at x: the max of
    the left and right ratios (left on ties), or the centered ratio, at
    each distance from x to an endpoint of E inside (0, ε) and at ε; the
    first best radius.  None where only r = ε beats 1 - ε (the open end,
    whose witness radius lies inside the last piece)."""

    def best_of(r):
        if centered:
            return ref_sided_ratio(E, x, r, "both"), "both"
        left, right = ref_sided_ratio(E, x, r, "left"), ref_sided_ratio(E, x, r, "right")
        return (left, "left") if left >= right else (right, "right")

    radii = sorted({abs(e - x) for e in E.endpoints() if 0 < abs(e - x) < eps}) + [eps]
    value, side, r = max(((*best_of(r), r) for r in radii), key=operator.itemgetter(0))
    if value <= 1 - eps:
        return "fails", r, value, side
    return None if r == eps else ("holds", r, value, side)


def ref_one_sided_rows(E, x, grid):
    """The rows (r, left ratio, right ratio, their max) of the strongly
    one-sided check at each radius of the grid."""
    rows = []
    for r in grid:
        left, right = ref_sided_ratio(E, x, r, "left"), ref_sided_ratio(E, x, r, "right")
        rows.append((r, left, right, max(left, right)))
    return tuple(rows)


def _ref_window_starts(x, r, *sets):
    lo = x - r
    ends = [e for S in sets for e in ref_endpoints_in(S, lo, x + r)]
    return sorted({lo, x, *(t for t in (*ends, *(e - r for e in ends)) if lo <= t <= x)})


def ref_worst_window_ratio(E, x, r):
    """(|E ∩ [t, t + r]|/r, t) least over the window starts t ∋ x, the
    leftmost on ties."""
    return min(((ref_mass(E, t, t + r) / r, t) for t in _ref_window_starts(x, r, E)),
               key=operator.itemgetter(0))


def ref_worst_imbalance(t, x, r):
    """(||E1 ∩ I| - |E-1 ∩ I||/r, u) greatest over the windows I = [u, u + r]
    ∋ x, the leftmost on ties."""
    return max(((abs(ref_mass(t.e1, u, u + r) - ref_mass(t.em1, u, u + r)) / r, u)
                for u in _ref_window_starts(x, r, t.e1, t.em1)), key=operator.itemgetter(0))


def ref_sample_points(S, window, step):
    """The endpoints of S in [window.lo + step, window.hi - step], plus the
    grid points window.lo + k·step there that lie in S, by stepping the grid
    in Fractions and one membership test per point."""
    lo, hi = window.lo + step, window.hi - step
    pts = {e for e in S.endpoints() if lo <= e <= hi}
    x = window.lo
    while x <= window.hi:
        if lo <= x <= hi and ref_contains(S, x):
            pts.add(x)
        x += step
    return sorted(pts)


def ref_case_split_candidates(
    runs: Sequence[tuple[Fraction, Fraction]],
    x: Fraction,
    delta_n: Fraction,
) -> list[Fraction]:
    """The proof's prescribed witness candidates x ± δ*, x ± 100 δ* with
    δ* = (1/101) min{c - e, d - c, δ_n} from the monotone runs of f on its
    region, around x, mirrored when x sits in the right half of its run."""
    region = (runs[0][0], runs[-1][1])
    idx = next((i for i, (a, b) in enumerate(runs) if a <= x <= b), None)
    if idx is None:
        return []
    a, b = runs[idx]
    mirrored = (x - a) > (b - x)
    if mirrored:
        run_lo, run_hi = -b, -a
        z = -x
        prev_end = -runs[idx + 1][1] if idx + 1 < len(runs) else -region[1]
    else:
        run_lo, run_hi = a, b
        z = x
        prev_end = runs[idx - 1][0] if idx > 0 else region[0]
    if run_lo == (region[0] if not mirrored else -region[1]):
        c = run_lo + (z - run_lo) / 2
    else:
        c = run_lo
    e = prev_end
    parts = [p for p in (c - e, run_hi - c, delta_n) if p > 0]
    if not parts:
        return []
    dstar = min(parts) / 101
    if dstar <= 0:
        return []
    out = [z - dstar, z + dstar, z - 100 * dstar, z + 100 * dstar]
    if mirrored:
        out = [-v for v in out]
    return out
