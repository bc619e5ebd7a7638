"""Constructive procedures: monotone builders, ternary decompositions,
balance points, the small-lip sawtooth, and the lip-1 sum.

All builders return exact piecewise-linear functions whose slopes encode the
defining integrals; the companion check_* operations produce finite-scale
reports with exact certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import itemgetter, lt
from typing import Iterator, NamedTuple, Optional, Sequence

from .intervals import Interval, IntervalSet, RationalLike, on_scale, rat
from .density import (
    DensityReport,
    HOLDS,
    HOLDS_AT_SCALE,
    _centered,
    _grid_report,
    _one_sided_rows,
    _sided_max,
    _weak_report,
    _window_rows,
    grid_on,
    window_starts,
)
from .pcw import (
    ZERO,
    PiecewiseLinear,
    build_phi,
    build_signed_integral,
    first_sloped_segment,
    geometric_grid,
    pl_sum,
)


# -- monotone builders ---------------------------------------------------------


def build_monotone_lip1(E: IntervalSet, window: Interval) -> PiecewiseLinear:
    """φ(x) = ∫ 1_E from the window's left edge: slope 1 on E, 0 off E."""
    return build_phi(E, window.lo, window)


@dataclass(frozen=True)
class MonotoneConditionsReport:
    mode: str
    on_set: tuple[tuple[Fraction, DensityReport], ...]
    on_complement: tuple[tuple[Fraction, DensityReport], ...]

    @property
    def all_hold(self) -> bool:
        return not self.failures

    @property
    def failures(self):
        good = (HOLDS, HOLDS_AT_SCALE)
        return tuple(
            (x, rep)
            for x, rep in self.on_set + self.on_complement
            if rep.verdict not in good
        )


def _sample_points(S: IntervalSet, window: Interval, step: Fraction, scale: int) -> list[int]:
    """Interval endpoints of S plus the points window.lo + k·step of S, all
    within the window, as sorted integers on the scale.

    Points within one step of the window boundary are skipped: densities
    there reflect the truncation, not the represented set.  D_S and the
    denominators of the window's ends and of the step must divide the
    scale; each component contributes the grid points it covers.
    """
    w, k = on_scale(window.lo, scale), on_scale(step, scale)
    lo, hi = w + k, on_scale(window.hi, scale) - k
    pts = set(S.ends_on(scale, lo, hi))
    for iv in S:
        a, b = max(on_scale(iv.lo, scale), lo), min(on_scale(iv.hi, scale), hi)
        pts.update(range(w - (w - a) // k * k, b + 1, k))  # the first grid point >= a
    return sorted(pts)


def check_monotone_conditions(
    E: IntervalSet,
    mode: str,
    window: Interval,
    resolution: RationalLike,
) -> MonotoneConditionsReport:
    """Finite-scale check of the monotone Lip 1 / lip 1 characterizations.

    Lip1 mode: E weakly dense at sampled points of E, and E^c strongly dense
    at sampled points of E^c.  lip1 mode: E strongly one-sided dense on E,
    E^c weakly center dense on E^c.  The complement is taken closed, so its
    samples include E's boundary; certificates are exact either way.

    Every point is sampled and checked on one integer scale S, the lcm of
    D_E, the denominators of the window's ends and that of the smallest
    grid radius (which the resolution's divides).  The density cores are
    called with S and the point's integer u = x·S; each report equals that
    of the public per-point check at x.
    """
    res = rat(resolution)
    if not (0 < res < 1):
        raise ValueError("resolution must be in (0,1)")
    if mode not in ("Lip1", "lip1"):
        raise ValueError("mode must be 'Lip1' or 'lip1'")
    comp = E.complement_within(window)
    grid = geometric_grid(res, Fraction(1, 2), 4)
    scale = lcm(E.mass_scale, window.lo.denominator, window.hi.denominator, grid[-1].denominator)
    Rs = grid_on(grid, scale)

    def checked(S: IntervalSet, check) -> tuple:
        out = []
        for u in _sample_points(S, window, res, scale):
            x = Fraction(u, scale)
            out.append((x, check(x, u)))
        return tuple(out)

    if mode == "Lip1":
        on_set = checked(E.clip(window), lambda x, u: _weak_report(
            E, x, scale, u, Rs[0], _sided_max))
        on_comp = checked(comp, lambda x, u: _grid_report(
            x, grid, Rs, res, _window_rows(comp, scale, u, grid, Rs)))
    else:
        on_set = checked(E.clip(window), lambda x, u: _grid_report(
            x, grid, Rs, res, _one_sided_rows(E, scale, u, grid, Rs)))
        on_comp = checked(comp, lambda x, u: _weak_report(
            comp, x, scale, u, Rs[0], _centered))
    return MonotoneConditionsReport(mode, on_set, on_comp)


# -- ternary decompositions ------------------------------------------------------


@dataclass(frozen=True)
class TernaryDecomposition:
    """Partition of the window into E1 (slope +1), E0 (flat), Em1 (slope -1)."""

    e1: IntervalSet
    e0: IntervalSet
    em1: IntervalSet
    window: Interval

    def __post_init__(self):
        parts = [self.e1, self.e0, self.em1]
        for i in range(3):
            for j in range(i + 1, 3):
                if parts[i].intersect(parts[j]).measure() != 0:
                    raise ValueError("ternary parts overlap with positive measure")
        total = parts[0].union(parts[1]).union(parts[2]).clip(self.window)
        if total != IntervalSet([self.window]):
            raise ValueError("ternary parts do not cover the window")

    def to_json(self) -> dict:
        return {
            "e1": self.e1.to_json(),
            "e0": self.e0.to_json(),
            "em1": self.em1.to_json(),
            "window": [str(self.window.lo), str(self.window.hi)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TernaryDecomposition":
        return cls(
            IntervalSet.from_json(obj["e1"]),
            IntervalSet.from_json(obj["e0"]),
            IntervalSet.from_json(obj["em1"]),
            Interval(rat(obj["window"][0]), rat(obj["window"][1])),
        )


def build_ternary_integral(
    t: TernaryDecomposition, basepoint: RationalLike = 0
) -> PiecewiseLinear:
    """f(x) = ∫_base^x (1_{E1} - 1_{E-1}): slopes +1 / 0 / -1 exactly."""
    return build_signed_integral(t.e1, t.em1, basepoint, t.window)


def worst_imbalance(
    t: TernaryDecomposition, x: RationalLike, r: RationalLike
) -> tuple[Fraction, Fraction]:
    """max over windows I ∋ x, |I| = r of ||E1∩I| - |E-1∩I||/|I|.

    The signed mass of [u, u+r] is piecewise linear in u, so the max |·| is
    attained at a kink; returns (ratio, window left end).  Both sets are
    read on one integer scale, and the windows compare integer masses."""
    x, r = rat(x), rat(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    scale = lcm(t.e1.mass_scale, t.em1.mass_scale, x.denominator, r.denominator)
    R = on_scale(r, scale)
    (worst, u), = _imbalance_rows(t, scale, on_scale(x, scale), [R])
    return Fraction(worst, R), Fraction(u, scale)


def _imbalance_rows(t: TernaryDecomposition, scale: int, v: int, Rs: Sequence[int]) -> list:
    """(imbalance, u) at each R of a descending list: the greatest
    ||E1 ∩ I| - |E-1 ∩ I|| over windows I = [u, u + R] ∋ v, and the leftmost
    such u, all integers on a scale that D_E1 and D_E-1 divide.  The
    endpoints near v are found once, for the largest R."""
    e1, em1 = t.e1, t.em1
    ends = e1.ends_on(scale, v - Rs[0], v + Rs[0]) + em1.ends_on(scale, v - Rs[0], v + Rs[0])
    out = []
    for R in Rs:
        out.append(max(((abs(e1.phi_on(scale, u + R) - e1.phi_on(scale, u)
                             - em1.phi_on(scale, u + R) + em1.phi_on(scale, u)), u)
                        for u in window_starts(v, R, ends)), key=itemgetter(0)))
    return out


@dataclass(frozen=True)
class TernaryReport:
    weakly_dense_entries: tuple[tuple[Fraction, str, DensityReport], ...]
    balance_entries: tuple[tuple[Fraction, tuple[tuple[Fraction, Fraction], ...]], ...]
    tolerance: Fraction

    @property
    def condition1_holds(self) -> bool:
        return all(rep.verdict == HOLDS for _, _, rep in self.weakly_dense_entries)

    @property
    def condition2_holds_at_scale(self) -> bool:
        # judged at the smallest sampled radius; below it the limit statement
        # is inconclusive, not certified
        return all(rows[-1][1] <= self.tolerance for _, rows in self.balance_entries)

    @property
    def all_hold(self) -> bool:
        return self.condition1_holds and self.condition2_holds_at_scale


def check_ternary(
    t: TernaryDecomposition,
    E: IntervalSet,
    resolution: RationalLike,
) -> TernaryReport:
    """Condition 1 at sampled x ∈ E (E1 or E-1 weakly dense); condition 2 at
    sampled x ∉ E (imbalance ratios over shrinking windows, held to the
    resolution as the report's tolerance).

    Every point is sampled and checked on one integer scale S, the lcm of
    D_E, D_E1, D_E-1, the denominators of the window's ends and that of the
    smallest radius; the weak core and the imbalance rows take S and the
    point's integer u = x·S, and each entry equals that of
    `check_weakly_dense_at` and `worst_imbalance` at x.
    """
    res = rat(resolution)
    if not (0 < res < 1):
        raise ValueError("resolution must be in (0,1)")
    w = t.window
    radii = geometric_grid(res, Fraction(1, 2), 5)
    scale = lcm(E.mass_scale, t.e1.mass_scale, t.em1.mass_scale,
                w.lo.denominator, w.hi.denominator, radii[-1].denominator)
    Rs = grid_on(radii, scale)
    cond1 = []
    for u in _sample_points(E.clip(w), w, res, scale):
        x = Fraction(u, scale)
        rep1 = _weak_report(t.e1, x, scale, u, Rs[0], _sided_max)
        if rep1.verdict == HOLDS:
            cond1.append((x, "E1", rep1))
            continue
        rep2 = _weak_report(t.em1, x, scale, u, Rs[0], _sided_max)
        cond1.append((x, "E-1" if rep2.verdict == HOLDS else "neither",
                      rep2 if rep2.verdict == HOLDS else rep1))
    cond2 = []
    for u in _sample_points(E.complement_within(w), w, res, scale):
        x = Fraction(u, scale)
        if E.contains(x):
            continue  # closed-collapse boundary point: x ∈ E is not quantified
        rows = _imbalance_rows(t, scale, u, Rs)
        cond2.append((x, tuple((r, Fraction(m, R)) for r, R, (m, _) in zip(radii, Rs, rows))))
    return TernaryReport(tuple(cond1), tuple(cond2), res)


def normalize_ternary(t: TernaryDecomposition, E: IntervalSet) -> TernaryDecomposition:
    """Move everything outside E into the flat part: F1 = E \\ E-1,
    F-1 = E-1 ∩ E, F0 = E^c, so F1 ⊔ F-1 = E exactly."""
    w = t.window
    f_m1 = t.em1.intersect(E).clip(w)
    f_1 = E.clip(w).intersect(f_m1.complement_within(w))
    f_0 = E.complement_within(w)
    return TernaryDecomposition(f_1, f_0, f_m1, w)


def remark_ternary_example(n_max: int, window: Interval) -> TernaryDecomposition:
    """Truncated decomposition for E = (0, ∞): E-1 = ∪(1/(2n+1), 1/(2n)],
    E1 = ∪(1/(2n), 1/(2n-1)] ∪ (1, ∞).  The left-over stub (0, 1/(2n_max+1)]
    is assigned to E0 so the window is covered exactly."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not (window.lo < 0 < 1 < window.hi):
        raise ValueError("window must contain [0, 1] strictly")
    em1 = IntervalSet.from_pairs(
        [(Fraction(1, 2 * n + 1), Fraction(1, 2 * n)) for n in range(1, n_max + 1)]
    )
    e1_pairs = [(Fraction(1, 2 * n), Fraction(1, 2 * n - 1)) for n in range(1, n_max + 1)]
    e1 = IntervalSet.from_pairs(e1_pairs + [(1, window.hi)])
    e0 = IntervalSet.from_pairs([(window.lo, Fraction(1, 2 * n_max + 1))])
    return TernaryDecomposition(e1, e0, em1, window)


# -- balance points ---------------------------------------------------------------


def balance_point(
    E: IntervalSet,
    r: RationalLike,
    s: RationalLike,
    target: RationalLike,
    delta: RationalLike,
) -> Fraction:
    """Exact t ∈ (r, s) with (1-δ)(|E∩[r,t]| - |E∩[t,s]|) = target.

    With A = |E∩[r,s]| the equation reads 2|E∩[r,t]| - A = target/(1-δ),
    so t is the leftmost inverse of the cumulative measure at
    Φ(r) + (A + target/(1-δ))/2; the leftmost solution is returned on flat
    ties.  With zero E-mass the only admissible target is 0 and the
    midpoint is returned (the integral is flat there anyway).  The one-block
    form of `balance_on`, which solves on integers.
    """
    r, s, target, delta = rat(r), rat(s), rat(target), rat(delta)
    if not r < s:
        raise ValueError("need r < s")
    if not 0 <= delta < 1:
        raise ValueError("delta must be in [0,1)")
    S = lcm(E.mass_scale, r.denominator, s.denominator)
    T, u, _, _ = balance_on(E, S, on_scale(r, S), on_scale(s, S),
                            target.numerator, target.denominator,
                            delta.denominator - delta.numerator, delta.denominator)
    return Fraction(u, T)


def balance_on(
    E: IntervalSet, S: int, ua: int, ub: int, tn: int, td: int, kn: int, kd: int
) -> tuple[int, int, int, int]:
    """The balance point of the block [a, b] = [ua/S, ub/S] on integers, for
    a scale S that D_E divides, the target tn/td and 1 - δ = kn/kd > 0, the
    pairs unreduced (td, kd > 0).

    On T = 2·S·td·kn the balance mass Φ(a) + (A + tn·kd/(td·kn))/2, with
    A = Φ(b) - Φ(a), is the integer Y = 2·td·kn·Φ_S(a) + td·kn·A_S + kd·S·tn,
    where Φ_S = S·Φ (`IntervalSet.phi_on`), and t is its leftmost inverse
    (`IntervalSet.locate_on`).  Returns (T, u, Y, base): t = u/T,
    Φ(t) = Y/T and Φ(a) = base/T.  A block with no mass takes
    t = (a + b)/2 and needs target 0; ValueError on an unsolvable target,
    |tn|·kd·S >= A_S·td·kn."""
    P = E.phi_on(S, ua)
    A = E.phi_on(S, ub) - P
    w = 2 * td * kn  # T / S
    T, base = S * w, P * w
    if A == 0:
        if tn:
            raise ValueError("unsolvable target: block carries no E-mass")
        return T, (ua + ub) * td * kn, base, base
    if abs(tn) * kd * S >= A * td * kn:
        raise ValueError("unsolvable target (precondition violated)")
    y = base + td * kn * A + kd * S * tn
    return T, E.locate_on(T, y), y, base


# -- the small-lip sawtooth ---------------------------------------------------------


class SmallLipBlock(NamedTuple):
    lo: Fraction
    hi: Fraction
    balance: Fraction
    left_mass: Fraction
    right_mass: Fraction


def _sawtooth_scale(
    E: IntervalSet, eps: Fraction, window: Interval
) -> tuple[IntervalSet, int, int, int, int]:
    """(E ∩ window, D, ε·D, window.lo·D, window.hi·D) for the scale D = 2·lcm
    of the denominators of ε, of the window's ends and of E's endpoints in
    the window.  Every block edge, window end and endpoint is then an
    integer on the scale, and so is half of every block's mass: the factor
    2 makes the halves integers."""
    clipped = E.clip(window)
    scale = 2 * lcm(eps.denominator, window.lo.denominator, window.hi.denominator,
                    *(x.denominator for iv in clipped for x in (iv.lo, iv.hi)))
    return (clipped, scale, on_scale(eps, scale),
            on_scale(window.lo, scale), on_scale(window.hi, scale))


def _pieces_by_block(
    clipped: IntervalSet, step: int, scale: int
) -> Iterator[tuple[int, list[tuple[int, int, Optional[Fraction], Optional[Fraction]]]]]:
    """For each ε-block k = [k·step, (k+1)·step] that a component of
    `clipped` overlaps with positive length, in order: (k, pieces).  The
    pieces are those components clipped to the block, as (lo, hi, lo_end,
    hi_end) with lo and hi integers on the scale, and lo_end (hi_end) the
    component's own endpoint where the piece ends there, None where it ends
    on a block edge.  One forward walk over the components."""
    k_open, pieces = None, []
    for iv in clipped:
        lo, hi = on_scale(iv.lo, scale), on_scale(iv.hi, scale)
        for k in range(lo // step, -(-hi // step)):
            if k != k_open:
                if pieces:
                    yield k_open, pieces
                k_open, pieces = k, []
            a = k * step
            b = a + step
            pieces.append((lo if lo > a else a, hi if hi < b else b,
                           iv.lo if lo >= a else None, iv.hi if hi <= b else None))
    if pieces:
        yield k_open, pieces


def small_lip_blocks(
    E: IntervalSet, epsilon: RationalLike, window: Interval
) -> list[SmallLipBlock]:
    """The ε-grid blocks of the window that carry E-mass, in order, with
    their exact balance points.

    Block k is [kε, (k+1)ε] ∩ window; a component [lo, hi] of E inside the
    window overlaps blocks floor(lo/ε) to ceil(hi/ε) - 1 with positive
    length, and no other block has mass.  A block [a, b] with mass
    A = |E ∩ [a, b]| balances at `balance_point(E, a, b, 0, 0)`, the
    leftmost t with |E ∩ [a, t]| = A/2, so its left and right masses are
    both A/2.

    Everything is computed on one integer scale D (`_sawtooth_scale`): one
    forward walk over E ∩ window and the ε-grid together
    (`_pieces_by_block`) sums each block's pieces and finds t as the leftmost
    point where the running piece mass reaches A/2.  That is O(n + blocks)
    integer operations for n components, on integers of about D's bit
    length, so the cost grows with the bit length of the lcm.  A block's
    ends and t become Fractions once; a block end shared with the previous
    block, and a t on a component's end, reuse that Fraction.  Each
    distinct A/2 becomes a Fraction once, through a dict, and serves as both
    masses of every block that carries it: every full block carries ε/2.
    A block is a `SmallLipBlock`, a NamedTuple, so it compares equal to the
    plain tuple of its five fields.
    """
    eps = rat(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    clipped, scale, step, w_lo, w_hi = _sawtooth_scale(E, eps, window)
    blocks = []
    masses = {}  # A/2 on the scale -> its Fraction
    b = hi = None  # the previous block's right edge, as integer and Fraction
    for k, pieces in _pieces_by_block(clipped, step, scale):
        a = k * step
        lo = window.lo if a <= w_lo else hi if a == b else Fraction(a, scale)
        b = a + step
        hi = window.hi if b >= w_hi else Fraction(b, scale)
        half = sum(q - p for p, q, _, _ in pieces) >> 1
        rest = half
        for p, q, _, q_end in pieces:
            if q - p >= rest:
                break
            rest -= q - p
        # t < b, since the right half carries mass: t == q is a component's end
        t = p + rest
        mass = masses[half] if half in masses else masses.setdefault(half, Fraction(half, scale))
        blocks.append(SmallLipBlock(lo, hi, q_end if t == q else Fraction(t, scale), mass, mass))
    return blocks


def build_small_lip(
    E: IntervalSet, epsilon: RationalLike, window: Interval
) -> PiecewiseLinear:
    """The sawtooth f = ∫(1_{E+} - 1_{E-}) over ε-grid blocks.

    0 <= f <= ε exactly; slope +1 on the first half of each block's E-mass,
    -1 on the second half, 0 off E; f vanishes at block boundaries.

    The blocks come from one call of `small_lip_blocks`; a second walk over
    the same pieces on the same integer scale D integrates the slopes and
    emits a point only where the slope (-1, 0 or +1) changes, so the
    function is already simplified.  The cost is O(n + blocks) integer
    operations, and grows with the bit length of D as that of
    `small_lip_blocks` does.  Each point is kept as an integer X on D and
    its value as an integer V on D.  A point on a component's end, a block's
    end or its balance point reuses that Fraction, and each distinct value
    becomes a Fraction once.  The function is handed the index (S, X) its
    constructor would build (`PiecewiseLinear._position`): with
    g = gcd(D, *X), S = D/g and the points X/g.  The constructor's
    strict-increase check is one comparison over X.
    """
    blocks = small_lip_blocks(E, epsilon, window)
    clipped, scale, step, w_lo, w_hi = _sawtooth_scale(E, rat(epsilon), window)
    xs: list[Fraction] = []
    X: list[int] = []
    V: list[int] = []
    # the pending point: the walk has reached `end` (the Fraction end_x) with
    # value v.  The slope changes at every piece's start: a piece starts on
    # slope ±1 after a gap, or on +1 right after the last block's -1
    end, end_x, v = w_lo, window.lo, 0
    for blk, (_, pieces) in zip(blocks, _pieces_by_block(clipped, step, scale)):
        t = on_scale(blk.balance, scale)
        for p, q, p_end, q_end in pieces:
            if p != end:  # a gap: the walk turns flat at end
                xs.append(end_x)
                X.append(end)
                V.append(v)
            xs.append(blk.lo if p_end is None else p_end)
            X.append(p)
            V.append(v)
            if p < t < q:
                xs.append(blk.balance)
                X.append(t)
                V.append(v + t - p)
                v += 2 * t - p - q
            else:
                v += q - p if p < t else p - q
            end, end_x = q, blk.hi if q_end is None else q_end
    if end != w_hi:
        xs.append(end_x)
        X.append(end)
        V.append(0)
    xs.append(window.hi)
    X.append(w_hi)
    V.append(0)
    if not all(map(lt, X, islice(X, 1, None))):
        raise ValueError("breakpoints must be strictly increasing")
    value = {0: ZERO}  # a sawtooth of thousands of points has a few distinct values
    vs = tuple(value[u] if u in value else value.setdefault(u, Fraction(u, scale)) for u in V)
    g = gcd(scale, *X)
    return PiecewiseLinear._trusted(tuple(xs), vs, (scale // g, [x // g for x in X] if g > 1 else X))


# -- the lip-1 sum -------------------------------------------------------------------


@dataclass(frozen=True)
class Lip1Part:
    index: int
    epsilon: Optional[Fraction]
    distance: Optional[Fraction]
    sup_norm: Fraction
    constant_off_part: bool
    skipped: bool


@dataclass(frozen=True)
class Lip1SumResult:
    function: PiecewiseLinear
    parts: tuple[Lip1Part, ...]
    window: Interval

    @property
    def skipped_parts(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.parts if p.skipped)


def build_lip1_sum(parts: Sequence[IntervalSet], window: Interval) -> Lip1SumResult:
    """f = Σ f_n with f_n the small-lip sawtooth of part n at the exact bound
    ε_n = 2^{-n} min{1, d_n} (ε_1 = 1), d_n = d(E_n, ∪_{k<n} E_k) the least
    distance to one earlier part (0 if E_n or every earlier part is empty).

    Parts must be pairwise disjoint up to endpoints.  A part at distance 0
    from the earlier ones forces ε_n = 0 and is skipped with a warning
    entry in the diagnostics.  The f_n are summed once, by `pcw.pl_sum`.
    """
    if not parts:
        raise ValueError("need at least one part")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if parts[i].intersect(parts[j]).measure() != 0:
                raise ValueError(f"parts {i+1} and {j+1} overlap with positive measure")
    terms: list[PiecewiseLinear] = []
    diags: list[Lip1Part] = []
    for n, part in enumerate(parts, start=1):
        if n == 1:
            eps: Optional[Fraction] = Fraction(1)
            dist: Optional[Fraction] = None
        else:
            dist = min((d for d in map(part.distance, parts[:n - 1]) if d is not None),
                       default=ZERO)
            eps = Fraction(1, 2 ** n) * min(Fraction(1), dist) if dist > 0 else Fraction(0)
        if not eps:
            diags.append(Lip1Part(n, None, dist, Fraction(0), True, True))
        else:
            f_n = build_small_lip(part, eps, window)
            terms.append(f_n)
            constant_off = first_sloped_segment(f_n, part.complement_within(f_n.domain)) is None
            diags.append(Lip1Part(n, eps, dist, f_n.sup_norm(), constant_off, False))
    return Lip1SumResult(pl_sum(terms), tuple(diags), window)


def split_into_bounded_shards(S: IntervalSet, max_len: RationalLike) -> list[IntervalSet]:
    """Group consecutive components into shards whose hulls are <= max_len.

    Helper for the lip-1 sum precondition that parts beyond the first be
    bounded: shards of an oversized part can be fed in as separate parts.
    """
    max_len = rat(max_len)
    if max_len <= 0:
        raise ValueError("max_len must be positive")
    shards: list[list[Interval]] = []
    current: list[Interval] = []
    for iv in S:
        if iv.length > max_len:
            raise ValueError(f"component {iv} is longer than max_len")
        if current and iv.hi - current[0].lo > max_len:
            shards.append(current)
            current = []
        current.append(iv)
    if current:
        shards.append(current)
    return [IntervalSet(sh) for sh in shards]
