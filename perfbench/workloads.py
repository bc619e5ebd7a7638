"""The three workloads: their inputs, made from a seed, and one round of
operations, each paired with an independent check of its output.

A workload function takes the loaded library and a seed and returns a
`Round`.  Every run repeats the same round, so every run attempts whole
rounds of the same operations.  All inputs are exact: endpoints are dyadic
rationals and the window is [0, 1].
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Optional

import checks

F = Fraction
MODULES = ("intervals", "pcw", "density", "constructions", "envelopes", "udt")


def load_library() -> SimpleNamespace:
    """Import the six `lipsets` modules afresh, so that set-up pays the
    import each time it is repeated."""
    for name in [n for n in sys.modules if n == "lipsets" or n.startswith("lipsets.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("lipsets." + m) for m in MODULES})


@dataclass
class Op:
    label: str
    phase: str  # "compute": constructions and queries; "check": the library's own checks
    run: Callable[[dict], object]  # round context -> output
    verify: Callable[[object], None]  # raises checks.CheckFailed
    key: Optional[str] = None  # keep the output in the round context under this key


@dataclass
class Round:
    ops: list[Op]
    probe: int  # leading ops replayed untraced and traced to measure tracing overhead


def random_set(lib, rng: random.Random, n: int):
    """n components, one in each of n equal cells of [0, 1], each half as
    long as its cell and placed at a random offset in the cell's middle
    half, with endpoints on the 2^-16 grid.  One component of fixed length
    per cell keeps the local structure, and so the cost of a query, alike
    from seed to seed: with random lengths the 100 queries of
    `density-queries` took from 4.0 to 5.0 s on six seeds."""
    units = 2 ** 16
    pairs = []
    for k in range(n):
        lo, hi = k * units // n, (k + 1) * units // n
        p = lo + (hi - lo) // 8 + rng.randrange((hi - lo) // 4)
        pairs.append((F(p, units), F(p + (hi - lo) // 2, units)))
    return lib.intervals.IntervalSet.from_pairs(pairs)


def expect_true(what: str):
    def verify(out):
        checks.require(out is True, f"{what} returned {out!r}")
    return verify


# -- udt-stages ---------------------------------------------------------------------


def udt_stages(lib, seed: int, tiny: bool = False) -> Round:
    """`build_udt_lip1` on the fat-Cantor systems, each build followed by
    `persistence_ok` and `vicinity_chain_ok`.

    The inputs do not depend on the seed: the systems are fixed, and the
    builder's own sampling seed stays at its default 0, since other values
    change the size of stage 2 by up to a quarter.  The two-stage build
    uses collar 27/64, which keeps a round to seconds (see the README).
    """
    udt = lib.udt
    witness = lib.density.UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))
    plan = [(1, 1, F(1, 8))] if tiny else [
        (1, 1, F(1, 8)), (2, 1, F(1, 8)), (3, 1, F(1, 8)), (2, 2, F(27, 64))]
    ops = []
    for levels, stages, collar in plan:
        system = udt.fat_cantor_system(levels)
        target = checks.pairs_of(system.target)
        key = f"L{levels}s{stages}"

        def build(ctx, system=system, stages=stages, collar=collar):
            return udt.build_udt_lip1(system, witness, stages, collar=collar)

        def verify(res, target=target):
            checks.check_udt_result(res, target, witness.gammas, witness.deltas)

        ops.append(Op(f"build_udt_lip1 {key} collar={collar}", "compute", build, verify, key))
        ops.append(Op(f"persistence_ok {key}", "check",
                      lambda ctx, key=key: ctx[key].persistence_ok(), expect_true("persistence_ok")))
        ops.append(Op(f"vicinity_chain_ok {key}", "check",
                      lambda ctx, key=key: ctx[key].vicinity_chain_ok(), expect_true("vicinity_chain_ok")))
    return Round(ops, probe=3)


# -- density-queries ------------------------------------------------------------------

GAMMA = F(1, 2)
DELTA = F(1, 128)
LEVEL_DELTA = F(1, 64)
LEVEL_RESOLUTION = F(1, 32)
CHECK_EPS = F(1, 64)
CHECK_GRID = [F(1, 64), F(1, 128), F(1, 256), F(1, 512)]
CHECK_TOLERANCE = F(1, 16)


def query_points(rng: random.Random, E, count: int) -> list[Fraction]:
    """Points inside E, inside gaps, and 2^-24 to either side of an endpoint,
    in proportion 4 : 3 : 3.  Query i is drawn near the i-th of `count`
    equal runs of components: a query's cost grows with the position of its
    point, and spreading the points evenly keeps the total alike from seed
    to seed."""
    comps = E.intervals
    out = []
    for i in range(count):
        j = rng.randrange(i * (len(comps) - 1) // count, (i + 1) * (len(comps) - 1) // count)
        kind = i % 10
        if kind < 4:
            iv = comps[j]
            out.append(iv.lo + iv.length * F(rng.randint(1, 255), 256))
        elif kind < 7:
            a, b = comps[j].hi, comps[j + 1].lo
            out.append(a + (b - a) * F(rng.randint(1, 255), 256))
        else:
            end = comps[j].lo if rng.random() < 0.5 else comps[j].hi
            out.append(end + rng.choice((-1, 1)) * F(1, 2 ** 24))
    return out


def points_of(rng: random.Random, E, count: int) -> list[Fraction]:
    """Points of E, spread like `query_points`: alternately inside a
    component and 2^-24 inside one of its ends.  At a point of E the weak
    density check finds its witness among the candidate radii, so every
    check does about the same work; off E its cost depends on whether the
    sup sits at r = ε."""
    comps = E.intervals
    out = []
    for i in range(count):
        iv = comps[rng.randrange(i * len(comps) // count, (i + 1) * len(comps) // count)]
        if i % 2:
            out.append(iv.lo + iv.length * F(rng.randint(1, 255), 256))
        else:
            out.append(iv.lo + F(1, 2 ** 24) if rng.random() < 0.5 else iv.hi - F(1, 2 ** 24))
    return out


def density_queries(lib, seed: int, tiny: bool = False) -> Round:
    """`level_set_membership` on one fixed random set, one `level_set`, and
    the weak and strong one-sided density checks at sampled points."""
    density = lib.density
    rng = random.Random(seed)
    n_set, n_queries, n_level, n_checks = (30, 10, 10, 2) if tiny else (300, 100, 100, 40)
    E = random_set(lib, rng, n_set)
    pairs = checks.pairs_of(E)
    window = lib.intervals.Interval(F(0), F(1))
    queries = [Op(
        "level_set_membership", "compute",
        lambda ctx, x=x: density.level_set_membership(E, x, GAMMA, DELTA),
        lambda cert, x=x: checks.check_membership(cert, pairs, x, GAMMA, DELTA, DELTA / 32))
        for x in query_points(rng, E, n_queries)]
    E_level = random_set(lib, rng, n_level)
    level_pairs = checks.pairs_of(E_level)
    level = Op(
        "level_set", "compute",
        lambda ctx: density.level_set(E_level, GAMMA, LEVEL_DELTA, window, LEVEL_RESOLUTION),
        lambda res: checks.check_level_set(res, level_pairs, LEVEL_DELTA, window))
    density_checks = []
    for x in points_of(rng, E, n_checks):
        density_checks.append(Op(
            "check_weakly_dense_at", "check",
            lambda ctx, x=x: density.check_weakly_dense_at(E, x, CHECK_EPS),
            lambda rep, x=x: checks.check_weak_report(rep, pairs, x, CHECK_EPS)))
        density_checks.append(Op(
            "check_strongly_one_sided_dense_at", "check",
            lambda ctx, x=x: density.check_strongly_one_sided_dense_at(
                E, x, CHECK_GRID, CHECK_TOLERANCE),
            lambda rep, x=x: checks.check_one_sided_rows(rep, pairs, x, CHECK_TOLERANCE)))
    # The checks are spread among the queries and level_set sits in the
    # middle, so that each phase sees the same share of the machine's slow
    # spells as the round as a whole, whose speed samples scale it.
    ops = []
    for i, query in enumerate(queries):
        ops.append(query)
        ops.extend(density_checks[i * len(density_checks) // n_queries:
                                  (i + 1) * len(density_checks) // n_queries])
        if i == n_queries // 2:
            ops.append(level)
    return Round(ops, probe=20 if not tiny else 2)


# -- lip1-builds ------------------------------------------------------------------------

SMALL_LIP = [(10, F(1, 16)), (20, F(1, 32)), (40, F(1, 32)), (70, F(1, 64)), (100, F(1, 64))]
SHARD_LEN = F(1, 4)
NARROW_GAP = F(1, 2 ** 12)  # part 3 of the narrow sum: ε_3 = 2^-3 · 2^-12 = 2^-15
CONDITION_RES = F(1, 32)
CONDITION_SIZES = (10, 15, 20)


def sharded_set(lib, rng: random.Random, per_shard: int, narrow: bool):
    """4 shards of `per_shard` components; shard k starts at k/4 and spans
    3/16, so `split_into_bounded_shards` with shards <= 1/4 recovers them
    and the gaps between shards are 1/16.  With `narrow`, shard 2 ends
    2^-12 before shard 3 starts instead.  Each component fills half of its
    cell of the shard, at a random offset (the first and last sit at the
    shard's ends).  Fixed gaps fix every ε_n, and fixed lengths the number
    of ε-blocks that carry mass, so every seed asks the same work."""
    pairs = []
    for k in range(4):
        span = F(1, 4) - NARROW_GAP if narrow and k == 1 else F(3, 16)
        cell = span / per_shard
        for i in range(per_shard):
            offset = 0 if i == 0 else F(1, 2) if i == per_shard - 1 else F(rng.randrange(1, 2 ** 11), 2 ** 12)
            lo = F(k, 4) + cell * (i + offset)
            pairs.append((lo, lo + cell / 2))
    return lib.intervals.IntervalSet.from_pairs(pairs)


def lip1_builds(lib, seed: int, tiny: bool = False) -> Round:
    """`build_small_lip` on fresh random sets of 10-100 components,
    `build_lip1_sum` over `split_into_bounded_shards` parts (one sum with a
    part at ε_3 = 2^-15), `check_monotone_conditions` in both modes on
    three sets each of 10, 15 and 20 components, and `check_ternary` on the
    slope decompositions of the first two sawtooths."""
    cons, intervals = lib.constructions, lib.intervals
    rng = random.Random(seed)
    window = intervals.Interval(F(0), F(1))
    ops = []
    plan = SMALL_LIP[:2] if tiny else SMALL_LIP
    saw_sets = []
    for i, (n, eps) in enumerate(plan):
        E = random_set(lib, rng, n)
        pairs = checks.pairs_of(E)
        saw_sets.append(E)
        ops.append(Op(
            f"build_small_lip n={n} eps={eps}", "compute",
            lambda ctx, E=E, eps=eps: cons.build_small_lip(E, eps, window),
            lambda f, pairs=pairs, eps=eps: checks.check_small_lip(f, pairs, eps, window),
            key=f"saw{i}"))
    sums = [sharded_set(lib, rng, 2 if tiny else 4, narrow=False)]
    if not tiny:
        sums.append(sharded_set(lib, rng, 8, narrow=True))
    sum_ops = []
    for E in sums:
        parts = cons.split_into_bounded_shards(E, SHARD_LEN)
        parts_pairs = [checks.pairs_of(p) for p in parts]
        sum_ops.append(Op(
            f"build_lip1_sum n={len(E)} parts={len(parts)}", "compute",
            lambda ctx, parts=parts: cons.build_lip1_sum(parts, window),
            lambda res, parts_pairs=parts_pairs: checks.check_lip1_sum(res, parts_pairs, window)))
    # Three sets of each size: the cost of a condition check depends on the
    # set, and over several sets it varies less from seed to seed.
    conditions = []
    for n in CONDITION_SIZES[:1] if tiny else CONDITION_SIZES:
        group = []
        for _ in range(3):
            E = random_set(lib, rng, n)
            pairs = checks.pairs_of(E)
            for mode in ("Lip1", "lip1"):
                group.append(Op(
                    f"check_monotone_conditions {mode} n={n}", "check",
                    lambda ctx, E=E, mode=mode: cons.check_monotone_conditions(
                        E, mode, window, CONDITION_RES),
                    lambda rep, pairs=pairs: checks.check_monotone_report(
                        rep, pairs, window, CONDITION_RES)))
        conditions.append(group)
    # The checks sit between the sums, so that each phase sees the same
    # share of the machine's slow spells as the round as a whole.
    for group, sum_op in zip(conditions, sum_ops):
        ops.extend(group)
        ops.append(sum_op)
    for group in conditions[len(sum_ops):]:
        ops.extend(group)

    def ternary(ctx, i):
        """check_ternary on the slope decomposition of the i-th sawtooth."""
        e1, e0, em1 = checks.slope_parts(ctx[f"saw{i}"])
        make = intervals.IntervalSet.from_pairs
        t = cons.TernaryDecomposition(make(e1), make(e0), make(em1), window)
        return cons.check_ternary(t, saw_sets[i], CONDITION_RES), e1, em1

    for i in (0, 1):
        ops.append(Op(f"check_ternary n={len(saw_sets[i])}", "check",
                      lambda ctx, i=i: ternary(ctx, i),
                      lambda out: checks.check_ternary_report(out[0], out[1], out[2], CONDITION_RES)))
    return Round(ops, probe=len(plan))
