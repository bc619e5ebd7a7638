"""Finite-stage builder for the density-type-to-Lipschitz construction.

Given an increasing chain of closed sets F_1 ⊆ ... ⊆ F_N (complements G_n),
a target interval set standing in for E = ∩ G_n, and a witness prefix
(γ_n ↗ 1, δ_n ↘ 0), the builder produces stage functions f_1, ..., f_N with

  (i)    slope exactly 0 on F_n,
  (ii)   f_m = f_n exactly on F_n for m >= n,
  (iii)  |f_n(x)-f_n(y)| <= (1 - 2^-3n)|E ∩ [x, y]| exactly,
  (iv)   witness pairs (x, y) with |x-y| <= δ_n and ratio > (1-2^-2n)γ_n at
         sampled points of the level set inside the active regions,
  (v)    a piecewise-linear vicinity radius r_n <= min{2^-n, quadratic-margin
         minorant} with r_n = 0 on F_n and r_n small against every witness
         pair, giving U_{n+1} ⊆ U_n and the Cauchy bound ‖f_{n+1}-f_n‖ <= 2^-n,
  (vi)   later stages keep witness ratios above (1-2^-n)γ_n.

Each stage makes one move: it re-zigzags f_{n-1} (f_0 = 0) within the tube
around it whose radius is the margin (envelope_refine).  No stage flattens:
E misses F_n and (iii) bounds the increments of f_{n-1} by E's mass, so
f_{n-1} already has slope 0 on F_n, which the builder checks exactly.  The
vicinity U_n is the tube Envelope(f_n, r_n), which also gives U_{n+1} ⊆ U_n.
Quadratic margins d(x, F_n)^2 are replaced by exact piecewise-linear tangent
minorants, tangent at the ends and the midpoint of the active segment
[c, d].  Such a minorant is 0 on [p, (p + c)/2] next to each region end p
that touches F, and since r_{n+1} <= r_n/3 that zone stays 0 at every later
stage.  There every g in U_N equals f_N, whose slope on E is 0 or
±(1 - 2^-3k) < 1: that part of E is frozen.  Its share |E ∩ {r_N = 0}|/|E|
in the default-collar builds on `fat_cantor_system` is 0.0625, 0.125, 0.182
and 0.235 for 1 to 4 stages.  A piecewise-linear stage function
keeps an exactly flat collar next to each F_n endpoint, so witnesses are
sampled from the recorded active segments, SAMPLES_PER_STAGE per stage,
each keeping its region.  `persistence_ok` checks (ii) on consecutive
stages; the nesting of the F_n extends it to every pair.

A stage runs in phases: the flatness precondition, the region phase
(`_refine_regions`: cap, margins, refine), the witness phase
(`_stage_witnesses`: sampling, search), the radius and the diagnostics.
Stage n + 1's precondition walks f_n on F_{n+1} ⊇ F_n and raises on a slope
there, so only the last stage walks f_n on F_n for its diagnostic.

Refine blocks end on dyadic grids: a block [p, q] whose local margin allows
q - p <= 2·step ends at the largest point of the grid 2^-m Z at or below
p + step, with 2^-m < step/8, so (7/8)·step < q - p <= step (the last block
of a segment absorbs a sliver and stays below (3/2)·step).  Block ends then
carry no denominator of the margin, and the denominators of the stage
functions do not compound from stage to stage.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, sub
from typing import Optional, Sequence

from .intervals import Interval, IntervalSet, RationalLike, rat
from .density import UDTWitness, level_set_membership
from .envelopes import (
    Envelope,
    PreconditionError,
    envelope_refine,
    verify_contraction,
)
from .pcw import PiecewiseLinear, first_sloped_segment, integer_grid
from .pcw import monotone_runs, pl_min

SAMPLES_PER_STAGE = 8  # level-set points per stage for the witness search
SAMPLE_SEED = 0  # each build draws them from its own random.Random(SAMPLE_SEED)


class WitnessSearchError(RuntimeError):
    """Raised when a sampled level-set point has no stage witness, or (point
    None) when a stage samples no level-set point at all: the input system
    does not realize its claimed witness at that scale."""

    def __init__(self, stage, point, best_ratio, target):
        super().__init__(
            f"stage {stage}: no level-set point sampled" if point is None else
            f"stage {stage}: no witness at x={point}: best ratio {best_ratio} "
            f"<= target {target}"
        )
        self.stage = stage
        self.point = point
        self.best_ratio = best_ratio
        self.target = target


@dataclass(frozen=True)
class NestedClosedSystem:
    """F_1 ⊆ F_2 ⊆ ... inside a window, plus the target set standing in
    for E at the available depth; every complement component must meet the
    target."""

    closed_sets: tuple[IntervalSet, ...]
    window: Interval
    target: IntervalSet

    def __post_init__(self):
        for n, F in enumerate(self.closed_sets, start=1):
            if not all(map(self.window.contains, F.endpoints())):
                raise ValueError(f"closed set F_{n} leaves the window {self.window}")
        # each component of F_{n-1} lies in F_n: a point is a member, an
        # interval has full mass (F_n is closed, its gaps have positive length)
        for n, (prev, F) in enumerate(zip(self.closed_sets, self.closed_sets[1:]), start=2):
            if not all(F.contains(iv.lo) if iv.is_degenerate else F.mass(iv.lo, iv.hi) == iv.length
                       for iv in prev):
                raise ValueError(f"nesting violated at stage {n}")
        for comp in self.complement(len(self.closed_sets)):
            if self.target.mass(comp.lo, comp.hi) == 0:
                raise ValueError(f"complement component {comp} misses the target")

    @property
    def depth(self) -> int:
        return len(self.closed_sets)

    def closed_at(self, n: int) -> IntervalSet:
        """F_n for 0 <= n <= depth, F_0 being empty; ValueError otherwise."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"no closed set F_{n}: n must lie in 0..{self.depth}")
        return self.closed_sets[n - 1] if n else IntervalSet.empty()

    def complement(self, n: int) -> IntervalSet:
        """G_n within the window (closed collapse), for 0 <= n <= depth."""
        return self.closed_at(n).complement_within(self.window)

    def to_json(self) -> dict:
        return {
            "closed_sets": [F.to_json() for F in self.closed_sets],
            "window": [str(self.window.lo), str(self.window.hi)],
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "NestedClosedSystem":
        return cls(
            tuple(IntervalSet.from_json(o) for o in obj["closed_sets"]),
            Interval(rat(obj["window"][0]), rat(obj["window"][1])),
            IntervalSet.from_json(obj["target"]),
        )


def fat_cantor_system(levels: int) -> NestedClosedSystem:
    """Fat-Cantor-style nested system on [0, 1]: level n removes the middle
    4^-n fraction of every kept piece, so the removed closed sets F_n
    increase while the kept set retains positive measure."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    window = Interval(Fraction(0), Fraction(1))
    kept = [window]
    removed: list[Interval] = []
    chain: list[IntervalSet] = []
    for n in range(1, levels + 1):
        frac = Fraction(1, 4 ** n)
        new_kept: list[Interval] = []
        for piece in kept:
            gap = piece.length * frac
            mid = piece.midpoint
            lo, hi = mid - gap / 2, mid + gap / 2
            removed.append(Interval(lo, hi))
            new_kept.append(Interval(piece.lo, lo))
            new_kept.append(Interval(hi, piece.hi))
        kept = new_kept
        chain.append(IntervalSet(list(removed)))
    target = chain[-1].complement_within(window)
    return NestedClosedSystem(tuple(chain), window, target)


# -- margin minorants ------------------------------------------------------------


def quadratic_margin(
    region: Interval,
    segment: tuple[Fraction, Fraction],
    left_is_f: bool,
    right_is_f: bool,
    cap: PiecewiseLinear,
) -> PiecewiseLinear:
    """Piecewise-linear minorant of min(d(x, p)^2, cap) over the
    F-adjacent region ends p, clamped at 0; cap is a nonnegative function
    on the region.  It is zero at those ends and positive on the segment
    where cap is.

    Tangent lines of the parabola lie below it, so the max of finitely many
    tangents is an exact minorant.  The tangents are taken at t = c, m, d,
    the segment's ends and midpoint, and each end p gets one function
    max(0, T_c, T_m, T_d) with T_t(x) = (t - p)(2x - t - p), written down
    directly: it is linear between a, b, the knees (c + m)/2 and (m + d)/2,
    where one tangent overtakes the next, and its root, (c + a)/2 at the
    left end or (d + b)/2 at the right, on p's side of which it is 0.  The
    cap and those functions meet in one n-ary `pl_min` on
    `pcw.integer_grid`; as cap >= 0, the min needs no clamp.
    """
    a, b = region.lo, region.hi
    c, d = segment
    ts = (c, (c + d) / 2, d)
    knees = [(s + t) / 2 for s, t in zip(ts, ts[1:])]
    ends = []
    for p, root, touches_f in ((a, (c + a) / 2, left_is_f), (b, (d + b) / 2, right_is_f)):
        if touches_f:
            xs = sorted({a, b, root, *knees})
            ends.append(PiecewiseLinear(
                xs, [max(0, *((t - p) * (2 * x - t - p) for t in ts)) for x in xs]))
    return pl_min(cap, *ends)


def _sup_distance(f: PiecewiseLinear, g: PiecewiseLinear) -> Fraction:
    """‖f - g‖ on their common domain, read on the grid `sub` would use,
    in integers on W (`pcw.integer_grid`), without building f - g."""
    _, _, _, W, (fs, gs) = integer_grid((f, g))
    return Fraction(max(map(abs, map(sub, fs, gs))), W)


def _positive_zone(f: PiecewiseLinear) -> Optional[tuple[Fraction, Fraction]]:
    """Longest run of segments [x_i, x_{i+1}] of f with v_i > 0 or v_i + v_{i+1} > 0."""
    xs, vs = f.breakpoints, f.values
    zones: list[tuple[Fraction, Fraction]] = []
    start: Optional[Fraction] = None
    for i, x in enumerate(xs):
        if i + 1 < len(xs) and (vs[i] > 0 or vs[i] + vs[i + 1] > 0):
            if start is None:
                start = x
        elif start is not None:
            zones.append((start, x))
            start = None
    return max(zones, key=lambda z: z[1] - z[0], default=None)


# -- stage records ---------------------------------------------------------------


@dataclass(frozen=True)
class WitnessRecord:
    stage: int
    x: Fraction
    y: Fraction
    ratio: Fraction
    stage_target: Fraction  # (1 - 2^-2n) γ_n
    tail_target: Fraction  # (1 - 2^-n) γ_n


@dataclass(frozen=True)
class StageDiagnostics:
    stage: int
    contraction_factor: Fraction
    contraction_ok: bool
    flat_on_closed_ok: bool
    active_segments: tuple[tuple[Fraction, Fraction], ...]
    witnesses: tuple[WitnessRecord, ...]
    witness_failures: tuple[tuple[Fraction, Fraction], ...]  # (x, best ratio)
    cauchy_step: Fraction  # ‖f_n - f_{n-1}‖
    radius_sup: Fraction
    radius_zero_on_closed: bool
    radius_within_margin: bool
    min_witness_gap: Optional[Fraction]


@dataclass(frozen=True)
class UdtBuildResult:
    system: NestedClosedSystem
    witness: UDTWitness
    stages: tuple[PiecewiseLinear, ...]
    radii: tuple[PiecewiseLinear, ...]
    diagnostics: tuple[StageDiagnostics, ...]

    def vicinity(self, n: int) -> Envelope:
        """U_n = Envelope(f_n, r_n) for 1 <= n <= N; ValueError otherwise."""
        if not 1 <= n <= len(self.stages):
            raise ValueError(f"no vicinity U_{n}: n must lie in 1..{len(self.stages)}")
        return Envelope(self.stages[n - 1], self.radii[n - 1])

    def persistence_ok(self) -> bool:
        """(ii) f_m = f_n on F_n for m >= n and (vi) tail witness ratios.

        (ii) is checked as f_{k+1} = f_k on F_k for k < N: F_n ⊆ F_k for
        n <= k (`NestedClosedSystem` checks it), which gives every n < m.
        Both are linear between the points of their merged grid on a
        component of F_k: they agree there as integers (`pcw.integer_grid`)."""
        for n, (f_n, f_next) in enumerate(zip(self.stages, self.stages[1:]), start=1):
            for comp in self.system.closed_at(n):
                if not comp.is_degenerate:
                    _, _, _, _, (a, b) = integer_grid((f_next, f_n), comp.lo, comp.hi)
                    if a != b:
                        return False
        for n, diag in enumerate(self.diagnostics, start=1):
            for f_m in self.stages[n - 1:]:
                for rec in diag.witnesses:
                    gap = abs(rec.x - rec.y)
                    if not abs(f_m(rec.x) - f_m(rec.y)) > rec.tail_target * gap:
                        return False
        return True

    def vicinity_chain_ok(self) -> bool:
        """(v)/(vii): f_m ∈ U_n for m >= n and U_{n+1} ⊆ U_n.

        Only U_{n+1} ⊆ U_n is checked, by `is_inside`; f_m ∈ U_n follows.
        f_m ∈ U_m, as |f_m - f_m| = 0 <= r_m and building U_m raises on a
        negative radius.  And is_inside gives |c_{k+1} - c_k| + r_{k+1} <= r_k,
        so |g - c_{k+1}| <= r_{k+1} implies |g - c_k| <= r_k by the triangle
        inequality: U_m ⊆ U_{m-1} ⊆ ... ⊆ U_n, and f_m ∈ U_n by induction."""
        tubes = [self.vicinity(n) for n in range(1, len(self.stages) + 1)]
        return all(inner.is_inside(outer) for outer, inner in zip(tubes, tubes[1:]))


# -- witness search ----------------------------------------------------------------


def _case_split_candidates(
    runs: Sequence[tuple[Fraction, Fraction]],
    x: Fraction,
    delta_n: Fraction,
) -> list[Fraction]:
    """The proof's prescribed witness candidates x ± δ*, x ± 100 δ* with
    δ* = (1/101) min{e - c, c - a, δ_n}, over its positive terms, from the
    monotone runs of f on its region.  When x is nearer the right end b of
    its run [a, b], c = b (b - (b - x)/2 on the last run) and e is the next
    run's end (the region's on the last run); nearer a, the same mirrored."""
    lo, hi = runs[0][0], runs[-1][1]
    idx = bisect_left(runs, x, key=itemgetter(1))  # the first run ending at or after x
    if idx == len(runs) or runs[idx][0] > x:
        return []
    a, b = runs[idx]
    if x - a > b - x:
        c = b - (b - x) / 2 if b == hi else b
        e = runs[idx + 1][1] if idx + 1 < len(runs) else hi
        parts = (e - c, c - a, delta_n)
    else:
        c = a + (x - a) / 2 if a == lo else a
        e = runs[idx - 1][0] if idx > 0 else lo
        parts = (c - e, b - c, delta_n)
    dstar = min(p for p in parts if p > 0) / 101  # δ_n > 0 (`UDTWitness`)
    return [x - dstar, x + dstar, x - 100 * dstar, x + 100 * dstar]


def stage_witness_search(
    f: PiecewiseLinear,
    E: IntervalSet,
    x: Fraction,
    delta_n: Fraction,
    runs: Sequence[tuple[Fraction, Fraction]],
    target: Fraction,
) -> tuple[Optional[Fraction], Fraction]:
    """Witness y with |f(x)-f(y)|/|x-y| > target, 0 < |x-y| <= δ_n, y in the
    region: the hull of runs, the monotone runs of f on it
    (`pcw.monotone_runs`).

    The proof's case-split candidates are tried first (max ratio, ties to
    the smaller |x-y|); if none beats the target, fall back to the exact
    maximizer over all breakpoint/endpoint candidates (the sup over y is
    attained there for piecewise-linear f)."""
    lo = max(runs[0][0], x - delta_n)
    hi = min(runs[-1][1], x + delta_n)

    def best_of(cands):
        # max keeps the first of equal keys, so ties go to the smaller y
        fx = f(x)
        gaps = [(y, abs(y - x)) for y in sorted(set(cands)) if y != x and lo <= y <= hi]
        ratio, _, y = max(((abs(f(y) - fx) / gap, -gap, y) for y, gap in gaps),
                          key=itemgetter(0, 1), default=(0, 0, None))
        return (y, ratio) if ratio > 0 else (None, Fraction(0))

    y, ratio = best_of(_case_split_candidates(runs, x, delta_n))
    if y is not None and ratio > target:
        return y, ratio
    return best_of([lo, hi, *f.breakpoints_in(lo, hi), *E.endpoints_in(lo, hi)])


def _stage_witnesses(
    E: IntervalSet, n: int, gamma_n: Fraction, delta_n: Fraction, f_n: PiecewiseLinear,
    active: Sequence[tuple[Interval, tuple[Fraction, Fraction]]], rng: random.Random,
) -> tuple[list[WitnessRecord], list[tuple[Fraction, Fraction]]]:
    """Stage n's witness phase, (iv): up to SAMPLES_PER_STAGE points x of
    E^{γ_n,δ_n} drawn by rng from the active (region, segment) pairs, each
    searched in ascending order on the monotone runs of f_n on its region.
    Returns the witness records and the (x, best ratio) failures."""
    comps: list[tuple[Interval, Interval]] = []  # (component of E, its region)
    for region, (lo, hi) in active:
        comps.extend((comp, region) for comp in E.clip(Interval(lo, hi)))
    if not comps:
        return [], []
    cum_weights = list(accumulate(float(comp.length) for comp, _ in comps))
    points: list[tuple[Fraction, Interval]] = []
    seen = set()
    tries = 0
    denom = 64
    while len(points) < SAMPLES_PER_STAGE and tries < 40 * SAMPLES_PER_STAGE:
        tries += 1
        comp, region = rng.choices(comps, cum_weights=cum_weights)[0]
        k = rng.randint(0, denom)
        x = comp.lo + comp.length * Fraction(k, denom)
        if x in seen:
            continue
        seen.add(x)
        if level_set_membership(E, x, gamma_n, delta_n).member:
            points.append((x, region))

    stage_target = (1 - Fraction(1, 2 ** (2 * n))) * gamma_n
    tail_target = (1 - Fraction(1, 2 ** n)) * gamma_n
    witnesses: list[WitnessRecord] = []
    failures: list[tuple[Fraction, Fraction]] = []
    runs_of: dict[Interval, list[tuple[Fraction, Fraction]]] = {}
    for x, region in sorted(points, key=itemgetter(0)):
        if region not in runs_of:
            runs_of[region] = monotone_runs(f_n, region.lo, region.hi)
        y, ratio = stage_witness_search(f_n, E, x, delta_n, runs_of[region], stage_target)
        if y is not None and ratio > stage_target:
            witnesses.append(WitnessRecord(n, x, y, ratio, stage_target, tail_target))
        else:
            failures.append((x, ratio))
    return witnesses, failures


# -- the builder ----------------------------------------------------------------------


def _refine_regions(
    system: NestedClosedSystem, n: int, f_prev: PiecewiseLinear, r_third: PiecewiseLinear,
    collar: Fraction,
) -> tuple[PiecewiseLinear, PiecewiseLinear, list[tuple[Interval, tuple[Fraction, Fraction]]]]:
    """Stage n's region phase.  In each complement region of F_n: the
    quadratic margin under the cap r_{n-1}/3 on the cap's collared positive
    zone [c, d], and, where E has mass on [c, d], f_{n-1} refined in that
    tube (ε = 2^-3(n-1), certified by stage n-1, and δ = 2^-3n).  The cap
    budgets a second move that no stage makes.  Returns f_n and the margin,
    each spliced once (the margin is 0 off the regions), and the active
    (region, segment) pairs."""
    E, window = system.target, system.window
    eps_contract = Fraction(1, 2 ** (3 * (n - 1)))
    delta_stage = Fraction(1, 2 ** (3 * n))
    margin_parts: list[PiecewiseLinear] = []
    refined: list[PiecewiseLinear] = []
    active: list[tuple[Interval, tuple[Fraction, Fraction]]] = []
    for region in system.complement(n):
        cap = r_third.restrict(region.lo, region.hi)
        zone = _positive_zone(cap)
        if zone is None:
            continue
        zlen = zone[1] - zone[0]
        c0, d0 = zone[0] + zlen * collar, zone[1] - zlen * collar
        qmargin = quadratic_margin(region, (c0, d0), left_is_f=region.lo != window.lo,
                                   right_is_f=region.hi != window.hi, cap=cap)
        margin_parts.append(qmargin)
        if E.mass(c0, d0) == 0:
            continue
        tube = Envelope(f_prev.restrict(region.lo, region.hi), qmargin)
        res = envelope_refine(tube, E, eps_contract, delta_stage, segment=(c0, d0))
        refined.append(res.function)
        active.append((region, (c0, d0)))
    margin = PiecewiseLinear.constant(0, window).splice(margin_parts)
    return f_prev.splice(refined), margin, active


def build_udt_lip1(
    system: NestedClosedSystem,
    witness: UDTWitness,
    stages: int,
    collar: RationalLike = Fraction(1, 8),
    strict: bool = True,
) -> UdtBuildResult:
    """Run the staged construction for the given number of stages.

    Stage n checks f_{n-1} flat on F_n, runs the region phase
    (`_refine_regions`) and the witness phase (`_stage_witnesses`, sampling
    from one random.Random(SAMPLE_SEED) per build), and builds the radius
    r_n and the stage's diagnostics.  Stage 1 is stage n with f_0 = 0 and
    r_0/3 = 1.  With strict, a sampled point without a witness, or a stage
    that samples no level-set point, raises WitnessSearchError; otherwise
    the point is recorded in witness_failures.

    Only the last stage walks f_n on F_n for `flat_on_closed_ok`: for
    n < stages, stage n + 1's precondition walks f_n on F_{n+1} ⊇ F_n, where
    a slope on F_n shows too, and raises PreconditionError before stage n's
    diagnostics are returned.
    """
    if stages < 1 or stages > system.depth:
        raise ValueError("stages must be between 1 and the system depth")
    if witness.depth < stages:
        raise ValueError("witness exhausted: need a prefix of length >= stages")
    collar = rat(collar)
    if not 0 < collar < Fraction(1, 2):
        raise ValueError("collar must lie in (0, 1/2)")
    E = system.target
    window = system.window
    rng = random.Random(SAMPLE_SEED)

    f_prev = PiecewiseLinear.constant(0, window)
    r_third = PiecewiseLinear.constant(1, window)  # r_{n-1}/3, the tube's radius cap
    stage_fns: list[PiecewiseLinear] = []
    radii: list[PiecewiseLinear] = []
    diags: list[StageDiagnostics] = []

    for n in range(1, stages + 1):
        gamma_n, delta_n = witness.gammas[n - 1], witness.deltas[n - 1]
        F_n = system.closed_at(n)
        sloped = first_sloped_segment(f_prev, F_n)
        if sloped is not None:
            raise PreconditionError(f"stage {n}: f_{n - 1} is not flat on F_{n}", sloped)

        f_n, margin, active = _refine_regions(system, n, f_prev, r_third, collar)
        witnesses, failures = _stage_witnesses(E, n, gamma_n, delta_n, f_n, active, rng)
        if strict and (failures or not witnesses):
            x, ratio = failures[0] if failures else (None, Fraction(0))
            raise WitnessSearchError(n, x, ratio, (1 - Fraction(1, 2 ** (2 * n))) * gamma_n)

        # (v): witness caps are local V-notches, so the radius only
        # collapses near the protected pairs.  A recorded ratio beats
        # (1 - 2^-2n)γ_n, so ratio - tail_target > (2^-n - 2^-2n)γ_n
        # >= 2^-2n·γ_n for n >= 1: the cap (ratio - tail_target)·gap/2
        # never binds below γ_n·gap/2^(2n+1)
        notches = [_v_notch(window, min(rec.x, rec.y), max(rec.x, rec.y),
                            gamma_n * abs(rec.x - rec.y) / 2 ** (2 * n + 1))
                   for rec in witnesses]
        r_n = pl_min(margin, PiecewiseLinear.constant(Fraction(1, 2 ** n), window), *notches)

        # r_n is continuous: 0 on a component J of F_n when flat on J and 0 at J.lo
        factor = 1 - Fraction(1, 2 ** (3 * n))
        diags.append(StageDiagnostics(
            stage=n,
            contraction_factor=factor,
            contraction_ok=verify_contraction(f_n, E, factor) is None,
            flat_on_closed_ok=n < stages or first_sloped_segment(f_n, F_n) is None,
            active_segments=tuple(segment for _, segment in active),
            witnesses=tuple(witnesses),
            witness_failures=tuple(failures),
            cauchy_step=_sup_distance(f_n, f_prev),
            radius_sup=r_n.sup_norm(),
            radius_zero_on_closed=first_sloped_segment(r_n, F_n) is None and not any(
                r_n(J.lo) for J in F_n if not J.is_degenerate),
            radius_within_margin=r_n.le(margin),
            min_witness_gap=min((abs(rec.x - rec.y) for rec in witnesses), default=None),
        ))
        stage_fns.append(f_n)
        radii.append(r_n)
        f_prev, r_third = f_n, r_n.scale(Fraction(1, 3))

    return UdtBuildResult(system, witness, tuple(stage_fns), tuple(radii), tuple(diags))


def _v_notch(window: Interval, lo: Fraction, hi: Fraction, cap: Fraction) -> PiecewiseLinear:
    """Piecewise-linear function equal to cap on [lo, hi], rising with unit
    slope away from it; used to pin the radius near a witness pair."""
    # window.lo <= lo < hi <= window.hi: a witness pair lies in the window with x != y
    xs = [window.lo]
    vs = [cap + lo - window.lo]
    for x, v in ((lo, cap), (hi, cap), (window.hi, cap + window.hi - hi)):
        if x > xs[-1]:
            xs.append(x)
            vs.append(v)
    return PiecewiseLinear(xs, vs)
