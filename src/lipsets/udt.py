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
minorants, which is strictly harder.  A piecewise-linear stage function
keeps an exactly flat collar next to each F_n endpoint, so witnesses are
sampled from the recorded active regions.

Refine blocks end on dyadic grids: a block [p, q] whose local margin allows
q - p <= 2·step ends at the largest point of the grid 2^-m Z at or below
p + step, with 2^-m < step/8, so (7/8)·step < q - p <= step (the last block
of a segment absorbs a sliver and stays below (3/2)·step).  Block ends then
carry no denominator of the margin, and the denominators of the stage
functions do not compound from stage to stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from .intervals import Interval, IntervalSet, rat
from .density import UDTWitness, level_set_membership
from .envelopes import (
    Envelope,
    PreconditionError,
    envelope_refine,
    verify_contraction,
)
from .pcw import PiecewiseLinear, first_sloped_segment, merged_breakpoints, monotone_runs
from .pcw import pl_max, pl_min


class WitnessSearchError(RuntimeError):
    """Raised when a sampled level-set point has no stage witness: the input
    system does not realize its claimed witness at that scale."""

    def __init__(self, stage, point, best_ratio, target):
        super().__init__(
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
        prev: Optional[IntervalSet] = None
        for n, F in enumerate(self.closed_sets, start=1):
            if prev is not None and not prev.is_empty and prev.intersect(F) != prev:
                raise ValueError(f"nesting violated at stage {n}")
            prev = F
        for comp in self.complement(len(self.closed_sets)):
            if self.target.mass(comp.lo, comp.hi) == 0:
                raise ValueError(f"complement component {comp} misses the target")

    @property
    def depth(self) -> int:
        return len(self.closed_sets)

    def closed_at(self, n: int) -> IntervalSet:
        if n == 0:
            return IntervalSet.empty()
        return self.closed_sets[n - 1]

    def complement(self, n: int) -> IntervalSet:
        """G_n within the window (closed collapse)."""
        F = self.closed_at(n)
        if F.is_empty:
            return IntervalSet([self.window])
        return F.complement_within(self.window)

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


def fat_cantor_system(levels: int, window: Interval = Interval(Fraction(0), Fraction(1))) -> NestedClosedSystem:
    """Fat-Cantor-style nested system: level n removes the middle 4^-n
    fraction of every kept piece, so the removed closed sets F_n increase
    while the kept set retains positive measure."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    kept = [Interval(window.lo, window.hi)]
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
    cap: Fraction,
) -> PiecewiseLinear:
    """Piecewise-linear minorant of min(d(x, region ends)^2, cap), positive
    on the segment, zero at F-adjacent region ends (clamped at 0).

    Tangent lines of the parabola lie below it, so the max of finitely many
    tangents is an exact minorant; tangents are taken at the segment ends
    and midpoint.
    """
    a, b = region.lo, region.hi
    c, d = segment
    out = PiecewiseLinear.constant(cap, region)
    for p, touches_f in ((a, left_is_f), (b, right_is_f)):
        if touches_f:
            # tangent of (x-p)^2 at t: (t-p)(2x-t-p), slope 2(t-p), value (t-p)^2 at t
            lines = [PiecewiseLinear([a, b], [(t - p) * (2 * x - t - p) for x in (a, b)])
                     for t in (c, (c + d) / 2, d)]
            out = pl_min(out, reduce(pl_max, lines))
    return pl_max(out, PiecewiseLinear.constant(0, region))


def _positive_zone(f: PiecewiseLinear, lo: Fraction, hi: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """Longest run of segments [x_i, x_{i+1}] of f on [lo, hi] with v_i > 0 or v_i + v_{i+1} > 0."""
    g = f.restrict(lo, hi)
    xs, vs = g.breakpoints, g.values
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
        return Envelope(self.stages[n - 1], self.radii[n - 1])

    def persistence_ok(self) -> bool:
        """(ii) f_m = f_n on F_n and (vi) tail witness ratios, all stages.

        Both stages are linear between the points of the merged grid of a
        component of F_n, so f_m = f_n on it when their values agree there."""
        for n in range(1, len(self.stages) + 1):
            f_n = self.stages[n - 1]
            F_n = self.system.closed_at(n)
            for m in range(n, len(self.stages) + 1):
                f_m = self.stages[m - 1]
                if m > n:  # f_n - f_n = 0: nothing to check at m = n
                    for comp in F_n:
                        if comp.is_degenerate:
                            continue
                        xs = merged_breakpoints((f_m, f_n), comp.lo, comp.hi)
                        if f_m.at(xs) != f_n.at(xs):
                            return False
                for rec in self.diagnostics[n - 1].witnesses:
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
        fx = f(x)
        best_y, best_ratio = None, Fraction(0)
        for y in sorted(set(cands)):
            if y == x or not (lo <= y <= hi):
                continue
            gap = abs(y - x)
            ratio = abs(f(y) - fx) / gap
            if ratio > best_ratio or (
                ratio == best_ratio
                and best_y is not None
                and gap < abs(best_y - x)
            ):
                best_ratio, best_y = ratio, y
        return best_y, best_ratio

    y, ratio = best_of(_case_split_candidates(runs, x, delta_n))
    if y is not None and ratio > target:
        return y, ratio
    return best_of([lo, hi, *f.breakpoints_in(lo, hi), *E.endpoints_in(lo, hi)])


def _sample_level_points(
    E: IntervalSet,
    gamma: Fraction,
    delta: Fraction,
    segments: Sequence[tuple[Fraction, Fraction]],
    count: int,
    rng: random.Random,
) -> list[Fraction]:
    comps: list[Interval] = []
    for lo, hi in segments:
        comps.extend(E.clip(Interval(lo, hi)).intervals)
    comps = [c for c in comps if not c.is_degenerate]
    if not comps:
        return []
    out: list[Fraction] = []
    seen = set()
    tries = 0
    denom = 64
    while len(out) < count and tries < 40 * count:
        tries += 1
        comp = rng.choices(comps, weights=[float(c.length) for c in comps])[0]
        k = rng.randint(0, denom)
        x = comp.lo + comp.length * Fraction(k, denom)
        if x in seen:
            continue
        seen.add(x)
        if level_set_membership(E, x, gamma, delta).member:
            out.append(x)
    return sorted(out)


# -- the builder ----------------------------------------------------------------------


def build_udt_lip1(
    system: NestedClosedSystem,
    witness: UDTWitness,
    stages: int,
    samples_per_stage: int = 8,
    seed: int = 0,
    collar: Fraction = Fraction(1, 8),
    strict: bool = True,
) -> UdtBuildResult:
    """Run the staged construction for the given number of stages.

    Stage 1 refines the zero function within the tube whose radius is the
    quadratic margin (δ = 2^-3, ε = 1).  Stage n >= 2 refines f_{n-1}
    directly, checked flat on F_n, within the tube of radius
    min{quadratic margin, r_{n-1}/3} (ε = 2^-3(n-1), which stage n-1
    certified, and δ = 2^-3n).  r_{n-1}/3 budgets a second move that no
    stage makes; it is kept as a conservative budget.
    """
    if stages < 1 or stages > system.depth:
        raise ValueError("stages must be between 1 and the system depth")
    if witness.depth < stages:
        raise ValueError("witness exhausted: need a prefix of length >= stages")
    if not 0 < collar < Fraction(1, 2):
        raise ValueError("collar must lie in (0, 1/2)")
    E = system.target
    window = system.window
    rng = random.Random(seed)

    f_prev = PiecewiseLinear.constant(0, window)
    r_prev: Optional[PiecewiseLinear] = None
    stage_fns: list[PiecewiseLinear] = []
    radii: list[PiecewiseLinear] = []
    diags: list[StageDiagnostics] = []

    for n in range(1, stages + 1):
        gamma_n, delta_n = witness.gammas[n - 1], witness.deltas[n - 1]
        delta_stage = Fraction(1, 2 ** (3 * n))
        F_n = system.closed_at(n)
        r_third = None if r_prev is None else r_prev.scale(Fraction(1, 3))  # tube radius

        # f_{n-1} must be flat on F_n, and stage n-1 certified ε (f_0 = 0: ε = 1)
        sloped = first_sloped_segment(f_prev, F_n)
        if sloped is not None:
            raise PreconditionError(f"stage {n}: f_{n - 1} is not flat on F_{n}", sloped)
        eps_contract = Fraction(1, 2 ** (3 * (n - 1)))

        # ---- margins and refine inside each complement region of F_n; each
        # region reads f_prev only on itself, so the results are spliced once ----
        margin_parts: list[PiecewiseLinear] = []
        refined: list[PiecewiseLinear] = []
        active: list[tuple[Fraction, Fraction]] = []
        for region in system.complement(n):
            if region.is_degenerate:
                continue
            if r_prev is None:
                zone = (region.lo, region.hi)
            else:
                zone = _positive_zone(r_prev, region.lo, region.hi)
                if zone is None:
                    continue
            zlen = zone[1] - zone[0]
            c0, d0 = zone[0] + zlen * collar, zone[1] - zlen * collar
            qmargin = quadratic_margin(
                region, (c0, d0),
                left_is_f=region.lo != window.lo,
                right_is_f=region.hi != window.hi,
                cap=Fraction(1),
            )
            if r_prev is not None:
                qmargin = pl_min(qmargin, r_third.restrict(region.lo, region.hi))
            margin_parts.append(qmargin)
            if E.mass(c0, d0) == 0:
                continue
            f_loc = f_prev.restrict(region.lo, region.hi)
            # f_prev is already a zigzag; the construction needs only the
            # increment precondition, which envelope_refine still verifies
            res = envelope_refine(
                Envelope(f_loc, qmargin), E, eps_contract, delta_stage,
                segment=(c0, d0), require_monotone=False,
            )
            refined.append(res.function)
            active.append((c0, d0))
        f_n = f_prev.splice(refined)
        eps_margin = PiecewiseLinear.constant(0, window).splice(margin_parts)

        # ---- diagnostics: (i) and (iii) ----
        factor = 1 - delta_stage
        contraction_ok = verify_contraction(f_n, E, factor) is None
        flat_ok = first_sloped_segment(f_n, F_n) is None

        # ---- (iv): witness search at sampled level-set points ----
        witnesses: list[WitnessRecord] = []
        failures: list[tuple[Fraction, Fraction]] = []
        stage_target = (1 - Fraction(1, 2 ** (2 * n))) * gamma_n
        tail_target = (1 - Fraction(1, 2 ** n)) * gamma_n
        regions_n = [reg for reg in system.complement(n) if not reg.is_degenerate]
        runs_of: dict[Interval, list[tuple[Fraction, Fraction]]] = {}
        samples = _sample_level_points(
            E, gamma_n, delta_n, active, samples_per_stage, rng
        )
        for x in samples:
            region = next((r for r in regions_n if r.contains(x)), None)
            if region is None:
                continue
            if region not in runs_of:
                runs_of[region] = monotone_runs(f_n, region.lo, region.hi)
            y, ratio = stage_witness_search(
                f_n, E, x, delta_n, runs_of[region], stage_target
            )
            if y is not None and ratio > stage_target:
                witnesses.append(
                    WitnessRecord(n, x, y, ratio, stage_target, tail_target)
                )
            else:
                failures.append((x, ratio))
        if failures and strict:
            x, best = failures[0]
            raise WitnessSearchError(n, x, best, stage_target)

        # ---- (v): the radius function; witness caps are local V-notches so
        # the radius only collapses near the protected pairs ----
        r_n = pl_min(
            eps_margin, PiecewiseLinear.constant(Fraction(1, 2 ** n), window)
        )
        for rec in witnesses:
            gap = abs(rec.x - rec.y)
            # a recorded ratio beats (1 - 2^-2n)γ_n, so ratio - tail_target
            # > (2^-n - 2^-2n)γ_n >= 2^-2n·γ_n for n >= 1: the cap
            # (ratio - tail_target)·gap/2 never binds below this one
            cap = gamma_n * gap / 2 ** (2 * n + 1)
            r_n = pl_min(r_n, _v_notch(window, min(rec.x, rec.y), max(rec.x, rec.y), cap))

        radius_zero = all(
            r_n.restrict(comp.lo, comp.hi).sup_norm() == 0
            for comp in F_n
            if not comp.is_degenerate
        )
        radius_within = r_n.le(eps_margin)
        gaps = [abs(rec.x - rec.y) for rec in witnesses]
        # ‖f_n - f_{n-1}‖ on the grid `sub` would use, without building f_n - f_{n-1}
        xs = merged_breakpoints((f_n, f_prev), window.lo, window.hi)
        diags.append(
            StageDiagnostics(
                stage=n,
                contraction_factor=factor,
                contraction_ok=contraction_ok,
                flat_on_closed_ok=flat_ok,
                active_segments=tuple(active),
                witnesses=tuple(witnesses),
                witness_failures=tuple(failures),
                cauchy_step=max(abs(a - b) for a, b in zip(f_n.at(xs), f_prev.at(xs))),
                radius_sup=r_n.sup_norm(),
                radius_zero_on_closed=radius_zero,
                radius_within_margin=radius_within,
                min_witness_gap=min(gaps) if gaps else None,
            )
        )
        stage_fns.append(f_n)
        radii.append(r_n)
        f_prev, r_prev = f_n, r_n

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
