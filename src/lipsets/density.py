"""Exact density ratios, two-parameter level sets, and density-type checks.

For an interval set E and a fixed point x, r ↦ |(x-r,x) ∩ E| is piecewise
linear in r with kinks at the distances from x to endpoints of E; on each
linear piece c + b·r the ratio c/r + b is monotone.  Every decision below
reduces to evaluating exact ratios at those finitely many candidate radii
(plus the rational crossings of the two one-sided ratio curves), so
quantified statements over r ∈ (0, δ] are decided exactly.

The density checks run on integer cores.  A core takes one integer scale
S, which D_E (`IntervalSet.mass_scale`) and the denominators of x and of
every radius divide, and the point as its integer u = x·S; it reads E's
cumulative measure with `IntervalSet.phi_on` and its endpoints with
`IntervalSet.ends_on`.  Each core reads Φ(x) once per point, finds the
endpoints near x once, for the largest radius, compares rows by
cross-multiplying integers and decides holds-at-scale on integers; only
the values a report carries become Fractions.  The cores are
`_weak_report` (with `_sided_max` or `_centered`), `_one_sided_rows` and
`_window_rows` (read by `_grid_report`).
`constructions.check_monotone_conditions` and `constructions.check_ternary`
call them directly with one S for all their sample points; the public
per-point checks (`check_weakly_dense_at`, `check_weakly_center_dense_at`,
`check_strongly_one_sided_dense_at`, `check_strongly_dense_at`,
`worst_window_ratio`) compute their own S and u and call the same cores.

`_integer_rows` is the one reader of E's masses left and right of a
point: it reads Φ(x) once per query, and then Φ(x - r) and Φ(x + r) per
radius.  The public ratios read one row through it (`_row`), and
`_ratio_candidates`, behind level-set membership, reads all its rows
through one reader on one scale.  A weak check whose best ratio is
attained only at the open end r = ε solves its radius exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence

from .intervals import Interval, IntervalSet, RationalLike, on_scale, rat

LEFT = "left"
RIGHT = "right"
BOTH = "both"


def _integer_rows(E: IntervalSet, scale: int, u: int):
    """R ↦ (R, left, right) with left = S·|E ∩ [x - R/S, x]| and right =
    S·|E ∩ [x, x + R/S]|, integers on the scale S, which D_E divides, for
    x = u/S.  Φ(x) is read here once, and each call reads Φ(x - r) and
    Φ(x + r) once each."""
    phi_x = E.phi_on(scale, u)

    def row(R: int) -> tuple[int, int, int]:
        return R, phi_x - E.phi_on(scale, u - R), E.phi_on(scale, u + R) - phi_x

    return row


def _row(E: IntervalSet, x: RationalLike, r: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """(r, |E ∩ [x - r, x]|, |E ∩ [x, x + r]|) for r > 0: one `_integer_rows`
    row on the scale lcm(D_E, den x, den r), as Fractions."""
    x, r = rat(x), rat(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    scale = lcm(E.mass_scale, x.denominator, r.denominator)
    _, left, right = _integer_rows(E, scale, on_scale(x, scale))(on_scale(r, scale))
    return r, Fraction(left, scale), Fraction(right, scale)


def _sided_max(row) -> tuple:
    """(num, den, side): the larger one-sided ratio num/den of a row and its
    side, left on ties."""
    r, left, right = row
    return (left, r, LEFT) if left >= right else (right, r, RIGHT)


def _centered(row) -> tuple:
    """(num, den, BOTH): the centered ratio num/den of a row."""
    r, left, right = row
    return left + right, 2 * r, BOTH


def one_sided_measure(E: IntervalSet, x: RationalLike, r: RationalLike, side: str) -> Fraction:
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be left/right, got {side!r}")
    _, left, right = _row(E, x, r)
    return left if side == LEFT else right


def one_sided_ratio(E: IntervalSet, x: RationalLike, r: RationalLike, side: str) -> Fraction:
    return one_sided_measure(E, x, r, side) / rat(r)


def max_ratio(E: IntervalSet, x: RationalLike, r: RationalLike) -> Fraction:
    """The larger one-sided ratio max(|E ∩ [x - r, x]|, |E ∩ [x, x + r]|)/r."""
    r, left, right = _row(E, x, r)
    return max(left, right) / r


def centered_ratio(E: IntervalSet, x: RationalLike, r: RationalLike) -> Fraction:
    num, den, _ = _centered(_row(E, x, r))
    return num / den


# -- candidate radii ---------------------------------------------------------


def _endpoint_distances(E: IntervalSet, u: int, b: int, scale: int) -> list[int]:
    """The distances d with 0 < d < b from u to E's endpoints, sorted, all
    integers on a scale that D_E divides."""
    return sorted({d for d in (abs(e - u) for e in E.ends_on(scale, u - b, u + b)) if 0 < d < b})


def _ratio_candidates(
    E: IntervalSet, x: Fraction, delta: Fraction
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(r, left mass, right mass), ascending in r, at the radii where
    inf/sup of max(left,right)/r over (0, δ] can occur: piece endpoints plus
    in-piece crossings of the two one-sided curves.  The piece endpoints are
    read through one `_integer_rows` on S = lcm(D_E, den x, den δ) and made
    Fractions over S; no endpoint of E lies strictly between two of them, so
    a crossing's masses come from the affine masses already in hand."""
    scale = lcm(E.mass_scale, x.denominator, delta.denominator)
    u, R = on_scale(x, scale), on_scale(delta, scale)
    row_at = _integer_rows(E, scale, u)
    rows = [(Fraction(r, scale), Fraction(left, scale), Fraction(right, scale))
            for r, left, right in map(row_at, _endpoint_distances(E, u, R, scale) + [R])]
    out = rows[:1]
    for (r_a, left_a, right_a), (r_b, left_b, right_b) in zip(rows, rows[1:]):
        # both masses are affine in r on [r_a, r_b]; left = right at most once
        bl = (left_b - left_a) / (r_b - r_a)
        br = (right_b - right_a) / (r_b - r_a)
        if bl != br:
            cross = ((left_a - bl * r_a) - (right_a - br * r_a)) / (br - bl)
            if r_a < cross < r_b:
                out.append((cross, left_a + bl * (cross - r_a), right_a + br * (cross - r_a)))
        out.append((r_b, left_b, right_b))
    return out


# -- level-set membership -----------------------------------------------------


@dataclass(frozen=True)
class MembershipCertificate:
    member: bool
    worst_r: Fraction
    worst_ratio: Fraction
    left_ratio: Fraction
    right_ratio: Fraction


def level_set_membership(
    E: IntervalSet, x: RationalLike, gamma: RationalLike, delta: RationalLike
) -> MembershipCertificate:
    """Exact decision of x ∈ E^{γ,δ} with the minimizing radius as certificate.

    On the first piece (0, d_min) both one-sided ratios are constant (0 or 1),
    so the infimum over (0, δ] is attained at one of the candidate radii.
    """
    x, gamma, delta = rat(x), rat(gamma), rat(delta)
    if gamma <= 0 or delta <= 0:
        raise ValueError("gamma and delta must be positive")
    r, left, right = min(_ratio_candidates(E, x, delta),  # the first on ties
                         key=lambda row: max(row[1], row[2]) / row[0])
    left, right = left / r, right / r
    m = max(left, right)
    return MembershipCertificate(m >= gamma, r, m, left, right)


@dataclass(frozen=True)
class LevelSetResult:
    approximation: IntervalSet
    margin: Fraction
    gamma: Fraction
    delta: Fraction
    window: Interval


def level_set(
    E: IntervalSet,
    gamma: RationalLike,
    delta: RationalLike,
    window: Interval,
    resolution: RationalLike,
) -> LevelSetResult:
    """Reconstruct E^{γ,δ} ∩ window within the reported margin.

    Structure used: no ratio exceeds 1, so for γ > 1 the set is empty (with
    margin 0).  Points off E are never members (their small-radius ratio
    is 0), so E^{γ,δ} ⊆ E, and for γ ≤ 1 a point whose distance to the far
    end of its component is ≥ δ is always a member (that side's ratio is 1
    at every r ≤ δ).  Only the remaining middle zone of a component [c0, c1],
    [max(c0, c1-δ), min(c1, c0+δ)], is sampled, at spacing ≤ resolution,
    with exact membership tests; it is one nondegenerate interval, empty
    once c1 - c0 ≥ 2δ.  Each maximal run of members is one piece (a point
    for a run of one).  The margin is the largest sampled cell, 0 when no
    sampling was needed.
    """
    gamma, delta, resolution = rat(gamma), rat(delta), rat(resolution)
    if gamma <= 0 or delta <= 0:
        raise ValueError("gamma and delta must be positive")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if window.is_degenerate:
        raise ValueError("degenerate window")
    if gamma > 1:
        return LevelSetResult(IntervalSet.empty(), Fraction(0), gamma, delta, window)
    pieces: list[Interval] = []
    margin = Fraction(0)
    for comp in E.clip(window):
        lo, hi = max(comp.lo, comp.hi - delta), min(comp.hi, comp.lo + delta)
        if lo >= hi:
            pieces.append(comp)
            continue
        # right-stretch >= delta on [c0, lo]; left-stretch on [hi, c1]
        if comp.lo < lo:
            pieces.append(Interval(comp.lo, lo))
        if hi < comp.hi:
            pieces.append(Interval(hi, comp.hi))
        n_cells = max(1, -(-(hi - lo) // resolution))
        step = (hi - lo) / n_cells
        grid = [lo + i * step for i in range(n_cells + 1)]
        margin = max(margin, step)
        for member, run in groupby(grid, lambda p: level_set_membership(E, p, gamma, delta).member):
            if member:
                members = list(run)
                pieces.append(Interval(members[0], members[-1]))
    approx = IntervalSet(pieces, allow_degenerate=True)
    return LevelSetResult(approx, margin, gamma, delta, window)


# -- density reports ----------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"
HOLDS_AT_SCALE = "holds-at-scale"


@dataclass(frozen=True)
class DensityReport:
    point: Fraction
    verdict: str
    worst_r: Optional[Fraction] = None
    ratio: Optional[Fraction] = None
    side: Optional[str] = None
    details: tuple = ()

    def to_json(self) -> dict:
        return {
            "point": str(self.point),
            "verdict": self.verdict,
            "worst_r": None if self.worst_r is None else str(self.worst_r),
            "ratio": None if self.ratio is None else str(self.ratio),
            "side": self.side,
        }


def _open_end_radius(lo_row, end_row, side: str, threshold: int, scale: int) -> Fraction:
    """A radius in (lo, ε) whose ratio on `side` (BOTH: centered) exceeds
    the threshold/scale, as it does at ε, with no candidate radius in
    (lo, ε); rows are integers on the scale.  There the masses are affine in
    r, so g(r) = scale·|E ∩ I_r| - threshold·|I_r| is too: g > 0 midway
    between ε and lo, or the root of g if g(lo) < 0."""

    def g(row):
        r, left, right = row
        if side == BOTH:
            return scale * (left + right) - 2 * threshold * r
        return scale * (left if side == LEFT else right) - threshold * r

    lo, eps = lo_row[0], end_row[0]
    g_lo, g_eps = g(lo_row), g(end_row)
    if g_lo < 0:  # midway between ε and the root (ε·g_lo - lo·g_ε)/(g_lo - g_ε)
        d = g_lo - g_eps
        return Fraction(eps * g_lo - lo * g_eps + eps * d, 2 * scale * d)
    return Fraction(lo + eps, 2 * scale)


def _weak_report(E, x, scale, u, R, best_of) -> DensityReport:
    """Is there r ∈ (0, ε) with best_of(row) = (num, den, side) and ratio
    num/den > 1 - ε?  The core of the weak checks: x = u/scale and
    ε = R/scale on a scale that D_E divides.

    Between candidate radii the ratio is c/r + b, so its sup over (0, ε] is
    attained at a candidate.  Holds at the first best row, or, when the sup
    is attained only at r = ε, at the exact radius of _open_end_radius on the
    last piece; fails at the first best row otherwise.  Ratios of different
    rows are compared by cross-multiplying.
    """
    row_at = _integer_rows(E, scale, u)
    rows = [row_at(d) for d in _endpoint_distances(E, u, R, scale) + [R]]
    best = None
    for row in rows:
        num, den, side = best_of(row)
        if best is None or num * best[1] > best[0] * den:
            best = num, den, side, row
    num, den, side, row = best
    threshold = scale - R  # 1 - ε = threshold/scale
    if num * scale <= threshold * den:
        return DensityReport(x, FAILS, Fraction(row[0], scale), Fraction(num, den), side)
    if row[0] == R:
        lo_row = rows[-2] if len(rows) > 1 else (0, 0, 0)
        r = _open_end_radius(lo_row, row, side, threshold, scale)
        scale = lcm(scale, r.denominator)
        row = _integer_rows(E, scale, on_scale(x, scale))(on_scale(r, scale))
        num, den, side = best_of(row)
    return DensityReport(x, HOLDS, Fraction(row[0], scale), Fraction(num, den), side)


def _weak_at(E, x, epsilon, best_of) -> DensityReport:
    """The weak check at one point, on S = lcm(D_E, den x, den ε)."""
    x, eps = rat(x), rat(epsilon)
    if not (0 < eps < 1):
        raise ValueError("epsilon must be in (0,1)")
    scale = lcm(E.mass_scale, x.denominator, eps.denominator)
    return _weak_report(E, x, scale, on_scale(x, scale), on_scale(eps, scale), best_of)


def check_weakly_dense_at(E: IntervalSet, x: RationalLike, epsilon: RationalLike) -> DensityReport:
    """Is there r ∈ (0, ε) with max one-sided ratio > 1 - ε?  Exact."""
    return _weak_at(E, x, epsilon, _sided_max)


def check_weakly_center_dense_at(
    E: IntervalSet, x: RationalLike, epsilon: RationalLike
) -> DensityReport:
    """Same as check_weakly_dense_at but for intervals centered at x."""
    return _weak_at(E, x, epsilon, _centered)


def grid_on(grid: Sequence[Fraction], scale: int) -> list[int]:
    """The radii of a grid as integers on a scale that their denominators
    divide; ValueError unless nonempty, positive and strictly descending."""
    if not grid:
        raise ValueError("grid must be nonempty")
    Rs = [on_scale(r, scale) for r in grid]
    if min(Rs) <= 0:
        raise ValueError("grid must be positive")
    if any(a <= b for a, b in zip(Rs, Rs[1:])):
        raise ValueError("grid must be strictly descending")
    return Rs


def _grid_report(x, grid, Rs, tolerance: Fraction, rows) -> DensityReport:
    """The report on rows (row, mass, ratio) along a strictly descending
    grid, radius r = R/S, with ratio the Fraction mass/R that the row
    carries.  Holds-at-scale when the worst ratio is >= 1 - tolerance,
    decided on integers; the worst radius (the first on ties) is reported
    with its row's ratio."""
    worst = 0
    for i in range(1, len(Rs)):
        if rows[i][1] * Rs[worst] < rows[worst][1] * Rs[i]:
            worst = i
    _, mass, ratio = rows[worst]
    tn, td = tolerance.numerator, tolerance.denominator
    verdict = HOLDS_AT_SCALE if mass * td >= (td - tn) * Rs[worst] else FAILS
    return DensityReport(x, verdict, grid[worst], ratio, None, tuple(row for row, _, _ in rows))


def _grid_at(E, x, r_grid, tolerance, rows_of) -> DensityReport:
    """A grid check at one point, on S = lcm(D_E, den x, the radii's
    denominators)."""
    x, tol = rat(x), rat(tolerance)
    if not (0 <= tol < 1):
        raise ValueError("tolerance must be in [0,1)")
    grid = [rat(r) for r in r_grid]
    scale = lcm(E.mass_scale, x.denominator, *(r.denominator for r in grid))
    Rs = grid_on(grid, scale)
    return _grid_report(x, grid, Rs, tol, rows_of(E, scale, on_scale(x, scale), grid, Rs))


def _one_sided_rows(E, scale, u, grid, Rs) -> list:
    """((r, left ratio, right ratio, their max), the larger mass, that max)
    at each radius r = R/scale; Φ(x) is read once."""
    row_at = _integer_rows(E, scale, u)
    out = []
    for r, R in zip(grid, Rs):
        _, left, right = row_at(R)
        lf, rf = Fraction(left, R), Fraction(right, R)
        m = lf if left >= right else rf
        out.append(((r, lf, rf, m), max(left, right), m))
    return out


def check_strongly_one_sided_dense_at(
    E: IntervalSet,
    x: RationalLike,
    r_grid: Sequence[RationalLike],
    tolerance: RationalLike = Fraction(1, 16),
) -> DensityReport:
    """Exact max one-sided ratios along a finite descending grid of radii.

    A finite-scale check, not a limit claim: the verdict is holds-at-scale
    when every grid radius achieves ratio >= 1 - tolerance.
    """
    return _grid_at(E, x, r_grid, tolerance, _one_sided_rows)


def worst_window_ratio(E: IntervalSet, x: RationalLike, r: RationalLike) -> tuple[Fraction, Fraction]:
    """min over windows I ∋ x with |I| = r of |E ∩ I|/|I|; returns (ratio, left end).

    |E ∩ [t, t+r]| is piecewise linear in t, so the min is at a kink."""
    x, r = rat(x), rat(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    scale = lcm(E.mass_scale, x.denominator, r.denominator)
    [((_, ratio, t), _, _)] = _window_rows(E, scale, on_scale(x, scale), [r], [on_scale(r, scale)])
    return ratio, t


def _window_rows(E, scale, u, grid, Rs) -> list:
    """((r, ratio, t), mass, ratio) at each radius r = R/scale of a
    descending grid: the least mass of E in a window [t, t + r] ∋ x, the
    leftmost such t and the ratio mass/r.  The endpoints near x are found
    once, for the largest radius."""
    ends = E.ends_on(scale, u - Rs[0], u + Rs[0])
    out = []
    for r, R in zip(grid, Rs):
        mass, t = min(((E.phi_on(scale, t + R) - E.phi_on(scale, t), t)
                       for t in window_starts(u, R, ends)), key=itemgetter(0))
        ratio = Fraction(mass, R)
        out.append(((r, ratio, Fraction(t, scale)), mass, ratio))
    return out


def window_starts(u: int, R: int, ends: Sequence[int]) -> list[int]:
    """Sorted left ends t ∈ [u - R, u] where masses in [t, t + R] ∋ u can
    kink: u - R, u, and e, e - R for each endpoint e in [u - R, u + R].
    ends holds at least those endpoints (others are filtered out), all
    integers on one scale."""
    lo = u - R
    return sorted({lo, u, *(t for e in ends for t in (e, e - R) if lo <= t <= u)})


def check_strongly_dense_at(
    E: IntervalSet,
    x: RationalLike,
    r_grid: Sequence[RationalLike],
    tolerance: RationalLike = Fraction(1, 16),
) -> DensityReport:
    """Worst-window density at each radius of a strictly descending grid
    (Lebesgue density at scale)."""
    return _grid_at(E, x, r_grid, tolerance, _window_rows)


# -- UDT witnesses -------------------------------------------------------------


@dataclass(frozen=True)
class UDTWitness:
    """Finite prefix of sequences γ_n ↗ 1, δ_n ↘ 0."""

    gammas: tuple[Fraction, ...]
    deltas: tuple[Fraction, ...]

    def __post_init__(self):
        gs = tuple(rat(g) for g in self.gammas)
        ds = tuple(rat(d) for d in self.deltas)
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "deltas", ds)
        if len(gs) != len(ds) or not gs:
            raise ValueError("need equally long, nonempty gamma/delta prefixes")
        if any(not (0 < g < 1) for g in gs):
            raise ValueError("gammas must lie in (0,1)")
        if any(d <= 0 for d in ds):
            raise ValueError("deltas must be positive")
        if any(a >= b for a, b in zip(gs, gs[1:])):
            raise ValueError("gammas must strictly increase")
        if any(a <= b for a, b in zip(ds, ds[1:])):
            raise ValueError("deltas must strictly decrease")

    @property
    def depth(self) -> int:
        return len(self.gammas)

    def to_json(self) -> dict:
        return {
            "gammas": [str(g) for g in self.gammas],
            "deltas": [str(d) for d in self.deltas],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UDTWitness":
        return cls(tuple(obj["gammas"]), tuple(obj["deltas"]))


def merge_udt_witnesses(ws: Sequence[UDTWitness]) -> UDTWitness:
    """Diagonalize finitely many witnesses into one dominating them all.

    Output prefix (γ_n, δ_n) satisfies γ_n < γ_{m,n} and δ_n < δ_{m,n} for
    every input m and every n of the common prefix (n_m = 0 works here)
    when there are two or more; a single witness is returned as is.
    """
    if not ws:
        raise ValueError("empty witness list")
    if len(ws) == 1:
        return ws[0]
    depth = min(w.depth for w in ws)
    g = [min(w.gammas[n] for w in ws) for n in range(depth)]
    d = [min(w.deltas[n] for w in ws) for n in range(depth)]
    gammas = [g[0] / 2] + [(g[n - 1] + g[n]) / 2 for n in range(1, depth)]
    deltas = [(d[n] + d[n + 1]) / 2 for n in range(depth - 1)] + [d[-1] / 2]
    return UDTWitness(tuple(gammas), tuple(deltas))


def witness_dominates(merged: UDTWitness, w: UDTWitness) -> bool:
    depth = min(merged.depth, w.depth)
    return all(
        merged.gammas[n] < w.gammas[n] and merged.deltas[n] < w.deltas[n]
        for n in range(depth)
    )


def suggest_udt_witness(E: IntervalSet, depth: int) -> UDTWitness:
    """Greedy witness for a finite interval union.

    Any x ∈ E has a one-sided run of length ≥ half its component, so
    δ_n ≤ (min component length)/2 validates every point for every γ < 1.
    Heuristic per the spec's open question; callers should re-validate via
    level_set_membership.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if E.is_empty:
        raise ValueError("no witness for the empty set")
    lengths = [iv.length for iv in E if not iv.is_degenerate]
    if not lengths:
        raise ValueError(f"no witness for {E}: every component is a single point")
    min_len = min(lengths)
    gammas = [1 - Fraction(1, 2 ** (n + 1)) for n in range(depth)]
    deltas = [min_len / 2 ** (n + 1) for n in range(depth)]
    return UDTWitness(tuple(gammas), tuple(deltas))


# -- Prop. 5.x(iv) example ------------------------------------------------------


@dataclass(frozen=True)
class DyadicBlocksExample:
    """Truncation of ∪_n [2^n - 2^{n-2}, 2^n] plus its closure (adds {0})."""

    truncated: IntervalSet
    closure: IntervalSet
    depth: int

    @staticmethod
    def block(n: int) -> Interval:
        top = Fraction(2) ** n
        return Interval(top - top / 4, top)

    @classmethod
    def build(cls, depth: int) -> "DyadicBlocksExample":
        if depth < 1:
            raise ValueError("depth must be >= 1")
        blocks = [cls.block(n) for n in range(-depth, depth + 1)]
        truncated = IntervalSet(blocks)
        closure = truncated.union(
            IntervalSet([Interval.point(0)], allow_degenerate=True)
        )
        return cls(truncated, closure, depth)

    @staticmethod
    def right_measure_infinite(r: RationalLike) -> Fraction:
        """|E∞ ∩ (0, r)| in closed form (the geometric tail summed exactly)."""
        r = rat(r)
        if r <= 0:
            return Fraction(0)
        k = 0
        while Fraction(2) ** k < r:
            k += 1
        while Fraction(2) ** (k - 1) >= r:
            k -= 1
        # now 2^{k-1} < r <= 2^k; blocks below level k sum to 2^{k-2}
        full = Fraction(2) ** (k - 2)
        bottom = 3 * Fraction(2) ** (k - 2)
        partial = max(Fraction(0), r - bottom)
        return full + partial

    @classmethod
    def right_density_infinite(cls, r: RationalLike) -> Fraction:
        r = rat(r)
        return cls.right_measure_infinite(r) / r

    @staticmethod
    def critical_radius(n: int) -> Fraction:
        return Fraction(2) ** n - Fraction(2) ** (n - 2)
