"""Independent checks of the program's outputs.

Nothing here calls into `lipsets`: outputs are read through their public
attributes (interval endpoints, breakpoints and values, certificate fields)
and every measure, ratio and function value is recomputed by brute-force
clipping and direct linear interpolation, as in `tests/oracles.py`.  Each
check raises `CheckFailed` with the first violation it finds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output violates a property the paper's construction guarantees."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- brute-force primitives ------------------------------------------------------


def pairs_of(S) -> list[tuple[Fraction, Fraction]]:
    return [(iv.lo, iv.hi) for iv in S.intervals]


def clip_measure(pairs, a: Fraction, b: Fraction) -> Fraction:
    """|E ∩ [a, b]| by clipping every interval of E."""
    total = Fraction(0)
    for lo, hi in pairs:
        c, d = max(lo, a), min(hi, b)
        if c < d:
            total += d - c
    return total


def near(pairs, a: Fraction, b: Fraction):
    """The intervals of a sorted, disjoint list that meet [a, b]."""
    his = [hi for _, hi in pairs]
    i = bisect_left(his, a)
    out = []
    while i < len(pairs) and pairs[i][0] <= b:
        out.append(pairs[i])
        i += 1
    return out


def gap_distance(pairs_a, pairs_b) -> Fraction:
    """inf |x - y| over x in A, y in B, by comparing every pair."""
    best = None
    for a0, a1 in pairs_a:
        for b0, b1 in pairs_b:
            d = max(Fraction(0), max(a0, b0) - min(a1, b1))
            if best is None or d < best:
                best = d
    return best


def complement_pairs(pairs, lo: Fraction, hi: Fraction):
    out, cursor = [], lo
    for a, b in pairs:
        if a > cursor:
            out.append((cursor, min(a, hi)))
        cursor = max(cursor, b)
    if cursor < hi:
        out.append((cursor, hi))
    return [(a, b) for a, b in out if a < b]


def inside_one(pairs, a: Fraction, b: Fraction) -> bool:
    """[a, b] lies inside a single interval of the sorted list."""
    i = bisect_right([lo for lo, _ in pairs], a) - 1
    return i >= 0 and pairs[i][0] <= a and b <= pairs[i][1]


class Curve:
    """A piecewise-linear function read from its breakpoints and values."""

    def __init__(self, f):
        self.xs = list(f.breakpoints)
        self.vs = list(f.values)
        require(len(self.xs) == len(self.vs) >= 2, "malformed function")
        require(all(a < b for a, b in zip(self.xs, self.xs[1:])),
                "breakpoints are not strictly increasing")

    def at(self, x: Fraction) -> Fraction:
        xs, vs = self.xs, self.vs
        if x <= xs[0]:
            return vs[0]
        if x >= xs[-1]:
            return vs[-1]
        i = bisect_right(xs, x) - 1
        if xs[i] == x:
            return vs[i]
        return vs[i] + (vs[i + 1] - vs[i]) * (x - xs[i]) / (xs[i + 1] - xs[i])

    def segments(self):
        """(a, b, slope) for every piece."""
        for (a, va), (b, vb) in zip(zip(self.xs, self.vs), zip(self.xs[1:], self.vs[1:])):
            yield a, b, (vb - va) / (b - a)


# -- udt-stages ------------------------------------------------------------------


def check_udt_result(result, target_pairs, gammas, deltas) -> None:
    """The staged build f_1, ..., f_N on the nested system's target set E.

    Every diagnostic flag holds and no witness search failed; the Cauchy
    bound ‖f_n - f_{n-1}‖ <= 2^{1-n}; |Δf_n| <= (1 - 2^{-3n})|E ∩ [a, b]| on
    every segment of the union of f_n's breakpoints and E's endpoints; slope
    exactly 0 on every component of F_n; every witness pair has
    0 < |x - y| <= δ_n and a directly evaluated ratio equal to the recorded
    one and above (1 - 2^{-2n}) γ_n.
    """
    require(len(result.stages) == len(result.diagnostics) >= 1, "stage count mismatch")
    prev = None
    for n, (f, diag) in enumerate(zip(result.stages, result.diagnostics), start=1):
        require(diag.stage == n, f"stage {n}: diagnostics out of order")
        for flag in ("contraction_ok", "flat_on_closed_ok",
                     "radius_zero_on_closed", "radius_within_margin"):
            require(getattr(diag, flag) is True, f"stage {n}: {flag} is not True")
        require(not diag.witness_failures, f"stage {n}: witness failures {diag.witness_failures}")
        g = Curve(f)
        lo, hi = g.xs[0], g.xs[-1]

        # Cauchy step against f_{n-1} (f_0 = 0)
        if prev is None:
            step = max(abs(v) for v in g.vs)
        else:
            require((prev.xs[0], prev.xs[-1]) == (lo, hi), f"stage {n}: domain changed")
            xs = sorted(set(g.xs) | set(prev.xs))
            step = max(abs(g.at(x) - prev.at(x)) for x in xs)
        require(step <= Fraction(2, 2 ** n), f"stage {n}: Cauchy step {step} > 2^(1-n)")

        # contraction against φ on every segment of the breakpoint union
        factor = 1 - Fraction(1, 2 ** (3 * n))
        ends = {e for pair in target_pairs for e in pair if lo < e < hi}
        xs = sorted(set(g.xs) | ends)
        for a, b in zip(xs, xs[1:]):
            rise = abs(g.at(b) - g.at(a))
            allowance = factor * clip_measure(target_pairs, a, b)
            require(rise <= allowance,
                    f"stage {n}: |Δf| = {rise} exceeds {allowance} on [{a}, {b}]")

        # flat on every component of F_n
        for comp in result.system.closed_at(n).intervals:
            p, q = comp.lo, comp.hi
            if p == q:
                continue
            level = g.at(p)
            inner = g.vs[bisect_right(g.xs, p):bisect_left(g.xs, q)]
            require(g.at(q) == level and all(v == level for v in inner),
                    f"stage {n}: slope is not 0 on F_n component [{p}, {q}]")

        # witnesses
        target = (1 - Fraction(1, 2 ** (2 * n))) * gammas[n - 1]
        for rec in diag.witnesses:
            gap = abs(rec.x - rec.y)
            require(0 < gap <= deltas[n - 1],
                    f"stage {n}: witness gap {gap} outside (0, δ_n]")
            ratio = abs(g.at(rec.x) - g.at(rec.y)) / gap
            require(ratio == rec.ratio, f"stage {n}: witness ratio {rec.ratio} != direct {ratio}")
            require(ratio > target, f"stage {n}: witness ratio {ratio} <= target {target}")
        prev = g


# -- density-queries ---------------------------------------------------------------


def one_sided(pairs, x: Fraction, r: Fraction, side: str) -> Fraction:
    if side == "left":
        return clip_measure(pairs, x - r, x) / r
    return clip_measure(pairs, x, x + r) / r


def grid_min_ratio(pairs, x: Fraction, delta: Fraction, step: Fraction) -> Fraction:
    """min over radii k·step in (0, δ] (and δ itself) of the max one-sided ratio.

    A minimum over a subset of (0, δ] bounds the infimum from above, so a
    true member of E^{γ,δ} is never rejected."""
    local = near(pairs, x - delta, x + delta)
    radii = [k * step for k in range(1, int(delta / step) + 1)] + [delta]
    return min(max(one_sided(local, x, r, "left"), one_sided(local, x, r, "right"))
               for r in radii)


def check_membership(cert, pairs, x, gamma, delta, oracle_step) -> None:
    """A `level_set_membership` certificate at x."""
    r = cert.worst_r
    require(0 < r <= delta, f"x={x}: worst_r {r} outside (0, δ]")
    local = near(pairs, x - r, x + r)
    left, right = one_sided(local, x, r, "left"), one_sided(local, x, r, "right")
    require(cert.left_ratio == left and cert.right_ratio == right,
            f"x={x}: one-sided ratios at r={r} differ from brute force")
    require(cert.worst_ratio == max(left, right),
            f"x={x}: ratio {cert.worst_ratio} != brute force {max(left, right)}")
    if cert.member:
        require(cert.worst_ratio >= gamma, f"x={x}: member with ratio below γ")
        require(grid_min_ratio(pairs, x, delta, oracle_step) >= gamma,
                f"x={x}: member rejected by the grid oracle")
    else:
        require(cert.worst_ratio < gamma, f"x={x}: non-member certificate {cert.worst_ratio} >= γ")


def check_level_set(res, pairs, delta, window) -> None:
    """The `level_set` approximation lies inside E and contains every point
    of E whose far component end is at least δ away."""
    for iv in res.approximation.intervals:
        require(inside_one(pairs, iv.lo, iv.hi), f"approximation piece [{iv.lo}, {iv.hi}] leaves E")
    approx = pairs_of(res.approximation)
    for c0, c1 in pairs:
        c0, c1 = max(c0, window.lo), min(c1, window.hi)
        for a, b in ((c0, c1 - delta), (c0 + delta, c1)):
            if a <= b:
                require(inside_one(approx, a, b), f"sure zone [{a}, {b}] is not covered")


def check_weak_report(rep, pairs, x, eps) -> None:
    """A HOLDS report of a weak density check names r in (0, ε) whose
    one-sided ratio, recomputed, exceeds 1 - ε; a FAILS report names a
    radius whose recomputed ratio does not."""
    r = rep.worst_r
    require(r is not None and 0 < r <= eps, f"x={x}: radius {r} outside (0, ε]")
    local = near(pairs, x - r, x + r)
    ratio = max(one_sided(local, x, r, "left"), one_sided(local, x, r, "right"))
    if rep.verdict == "holds":
        require(r < eps, f"x={x}: witness radius {r} is not below ε")
        side = one_sided(local, x, r, rep.side)
        require(rep.ratio == side, f"x={x}: ratio {rep.ratio} != brute force {side}")
        require(side > 1 - eps, f"x={x}: HOLDS ratio {side} <= 1 - ε")
    else:
        require(rep.ratio == ratio, f"x={x}: ratio {rep.ratio} != brute force {ratio}")
        require(ratio <= 1 - eps, f"x={x}: FAILS report with ratio {ratio} > 1 - ε")


def check_center_report(rep, pairs, x, eps) -> None:
    """A HOLDS report of the centered weak density check."""
    if rep.verdict != "holds":
        return
    r = rep.worst_r
    require(0 < r < eps, f"x={x}: witness radius {r} outside (0, ε)")
    ratio = clip_measure(pairs, x - r, x + r) / (2 * r)
    require(rep.ratio == ratio, f"x={x}: centered ratio {rep.ratio} != brute force {ratio}")
    require(ratio > 1 - eps, f"x={x}: HOLDS ratio {ratio} <= 1 - ε")


def check_one_sided_rows(rep, pairs, x, tolerance) -> None:
    """Every row (r, left, right, max) of the strong one-sided check."""
    worst = None
    for r, left, right, m in rep.details:
        local = near(pairs, x - r, x + r)
        require(left == one_sided(local, x, r, "left") and right == one_sided(local, x, r, "right"),
                f"x={x}: one-sided ratios at r={r} differ from brute force")
        require(m == max(left, right), f"x={x}: row max is wrong at r={r}")
        worst = m if worst is None else min(worst, m)
    require(rep.ratio == worst, f"x={x}: reported worst ratio {rep.ratio} != {worst}")
    require((rep.verdict == "holds-at-scale") == (worst >= 1 - tolerance),
            f"x={x}: verdict {rep.verdict} disagrees with worst ratio {worst}")


def check_window_rows(rep, pairs, x, tolerance) -> None:
    """A HOLDS-AT-SCALE report of the worst-window density check."""
    if rep.verdict != "holds-at-scale":
        return
    for r, ratio, t in rep.details:
        require(t <= x <= t + r, f"x={x}: window [{t}, {t + r}] misses x")
        direct = clip_measure(pairs, t, t + r) / r
        require(ratio == direct, f"x={x}: window ratio {ratio} != brute force {direct}")
        require(ratio >= 1 - tolerance, f"x={x}: HOLDS ratio {ratio} < 1 - tolerance")


# -- lip1-builds ---------------------------------------------------------------------


def check_slopes_on(g: Curve, pairs, what: str) -> None:
    """Slopes in {-1, 0, 1}, nonzero only on segments inside E."""
    for a, b, s in g.segments():
        require(s in (-1, 0, 1), f"{what}: slope {s} on [{a}, {b}]")
        if s:
            require(clip_measure(near(pairs, a, b), a, b) == b - a,
                    f"{what}: nonzero slope on [{a}, {b}] outside E")


def check_small_lip(f, pairs, eps, window) -> None:
    """The small-lip sawtooth: 0 <= f <= ε, slopes in {-1, 0, 1} and nonzero
    only inside E, and f = 0 on the ε-grid and at the window ends."""
    g = Curve(f)
    require((g.xs[0], g.xs[-1]) == (window.lo, window.hi), "sawtooth domain is not the window")
    require(all(0 <= v <= eps for v in g.vs), "sawtooth leaves [0, ε]")
    check_slopes_on(g, pairs, "sawtooth")
    k = -(-window.lo // eps)
    grid = [window.lo, window.hi]
    while k * eps <= window.hi:
        grid.append(k * eps)
        k += 1
    for x in grid:
        require(g.at(x) == 0, f"sawtooth is {g.at(x)} at grid point {x}")


def check_lip1_sum(res, parts_pairs, window) -> None:
    """The lip-1 sum: each part's ε_n = 2^{-n} min{1, d(E_n, earlier)}
    recomputed, 0 <= f <= Σ ε_n, slopes in {-1, 0, 1} and nonzero only
    inside the union of the parts, f = 0 at the window ends."""
    require(len(res.parts) == len(parts_pairs), "part count mismatch")
    earlier: list = []
    total_eps = Fraction(0)
    for n, (part, diag) in enumerate(zip(parts_pairs, res.parts), start=1):
        if n == 1:
            eps = Fraction(1)
        else:
            dist = gap_distance(part, earlier)
            eps = Fraction(1, 2 ** n) * min(Fraction(1), dist)
        if eps == 0:
            require(diag.skipped, f"part {n}: at distance 0 but not skipped")
        else:
            require(not diag.skipped and diag.epsilon == eps,
                    f"part {n}: ε {diag.epsilon} != recomputed {eps}")
            total_eps += eps
        earlier = sorted(earlier + list(part))
    g = Curve(res.function)
    require((g.xs[0], g.xs[-1]) == (window.lo, window.hi), "sum domain is not the window")
    require(all(0 <= v <= total_eps for v in g.vs), "sum leaves [0, Σ ε_n]")
    require(g.vs[0] == 0 and g.vs[-1] == 0, "sum does not vanish at the window ends")
    check_slopes_on(g, earlier, "lip-1 sum")


def check_monotone_report(rep, pairs, window, resolution) -> None:
    """Every HOLDS certificate of `check_monotone_conditions`, recomputed."""
    comp = complement_pairs(pairs, window.lo, window.hi)
    for x, r in rep.on_set:
        if rep.mode == "Lip1":
            if r.verdict == "holds":
                check_weak_report(r, pairs, x, resolution)
        else:
            check_one_sided_rows(r, pairs, x, resolution)
    for x, r in rep.on_complement:
        if rep.mode == "Lip1":
            check_window_rows(r, comp, x, resolution)
        else:
            check_center_report(r, comp, x, resolution)


def check_ternary_report(rep, e1_pairs, em1_pairs, resolution) -> None:
    """Every HOLDS certificate of condition 1 of `check_ternary`, recomputed
    against the part it names."""
    for x, label, r in rep.weakly_dense_entries:
        if r.verdict != "holds":
            continue
        require(label in ("E1", "E-1"), f"x={x}: HOLDS certificate labelled {label}")
        check_weak_report(r, e1_pairs if label == "E1" else em1_pairs, x, resolution)


def slope_parts(f):
    """(E1, E0, E-1) pairs where the sawtooth has slope +1, 0 and -1."""
    parts = {1: [], 0: [], -1: []}
    for a, b, s in Curve(f).segments():
        run = parts[int(s)]
        if run and run[-1][1] == a:
            run[-1] = (run[-1][0], b)
        else:
            run.append((a, b))
    return parts[1], parts[0], parts[-1]
