"""Benchmark of the `lipsets` constructions, one workload per run.

    python3 perfbench/run.py --workload udt-stages --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
run sets up its inputs from the seed (several times, reporting the median),
then repeats whole rounds of the workload's operations in a closed loop
until `--seconds` have passed (always at least one round).  Every output is
checked by `checks.py`.  Timings are scaled to a fixed reference speed (see
`Speed`).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 15
PROBE_PAIRS = 3
REFERENCE_S = 0.0119  # trimmed mean time of `reference()` on the machine where the bounds were set
REFERENCE_EVERY_S = 0.25

WORKLOADS = {
    "udt-stages": workloads.udt_stages,
    "density-queries": workloads.density_queries,
    "lip1-builds": workloads.lip1_builds,
}

PER_LAYER = [
    ("intervals.intersect.calls", "count"),
    ("intervals.intersect.self_s", "s"),
    ("intervals.construct.calls", "count"),
    ("intervals.construct.self_s", "s"),
    ("intervals.measure.calls", "count"),
    ("pcw.eval.calls", "count"),
    ("pcw.eval.self_s", "s"),
    ("pcw.add.self_s", "s"),
    ("pcw.restrict.self_s", "s"),
    ("pcw.simplify.self_s", "s"),
    ("pcw.min_max.self_s", "s"),
    ("pcw.monotone_runs.self_s", "s"),
    ("pcw.signed_integral.self_s", "s"),
    ("density.membership.calls", "count"),
    ("density.membership.self_s", "s"),
    ("density.ratio_evals_per_query", "count"),
    ("constructions.balance_point.calls", "count"),
    ("constructions.balance_point.self_s", "s"),
    ("constructions.small_lip_blocks.blocks", "count"),
    ("constructions.small_lip_blocks.blocks_with_mass", "count"),
    ("constructions.small_lip_blocks.self_s", "s"),
    ("envelopes.refine.self_s", "s"),
    ("envelopes.refine.blocks", "count"),
    ("envelopes.flatten.self_s", "s"),
    ("envelopes.flatten.components", "count"),
    ("envelopes.verify_contraction.self_s", "s"),
    ("envelopes.min_margin.self_s", "s"),
    ("udt.witness_search.self_s", "s"),
    ("udt.persistence.self_s", "s"),
    ("udt.vicinity.self_s", "s"),
    ("udt.max_stage_breakpoints", "count"),
    ("udt.max_denominator_bits", "bits"),
    ("trace.overhead_pct", "%"),
]


XS = [Fraction(i, 512) for i in range(513)]
VS = [Fraction(random.Random(i).randrange(2 ** 10), 2 ** 12) for i in range(513)]


def reference() -> tuple:
    """A fixed computation that never touches `lipsets`, of the kinds the
    library does: linear interpolation in exact dyadic Fractions, and dict
    and list work on small ints."""
    total = Fraction(0)
    for i in range(300):
        x = Fraction(7 * i + 3, 2200)
        j = int(x * 512)
        total += VS[j] + (VS[j + 1] - VS[j]) * (x - XS[j]) / (XS[j + 1] - XS[j])
    counts: dict = {}
    for i in range(12000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return total, sum(counts.values())


class Speed:
    """The machine's current speed, from the reference computation timed
    every REFERENCE_EVERY_S of a round, also in the middle of an operation.

    On a shared virtual machine the speed of one deterministic computation
    changes from second to second, in bursts and phases.  A sample is one
    timing of `reference()`.  Inside `with speed:` a timer signal takes a
    sample every REFERENCE_EVERY_S, so the samples fall evenly over the
    round; `paused` adds up the time they took, for the caller to take out
    of what it times.  Times measured among samples whose trimmed mean is r
    are scaled by REFERENCE_S / r, so that runs made minutes apart compare.
    The mean, not the median, follows the share of time the machine spent
    slow."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        reference()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self.paused += elapsed

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self) -> float:
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class Tally:
    """Attempted, failed and rejected operations.  With `scaled` false no
    speed is sampled and times are as measured, as the traced run needs:
    its spans would count the samples."""

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.errors: list[str] = []

    def run_round(self, ops) -> list:
        """Run the ops in order; return each op's (phase, seconds), the
        seconds scaled to the reference speed, or None for an op that
        raised."""
        times: list = []
        ctx: dict = {}
        speed = Speed()
        if self.scaled:
            speed.sample()
        with speed if self.scaled else contextlib.nullcontext():
            for op in ops:
                self.attempted += 1
                t0, paused = perf_counter(), speed.paused
                try:
                    out = op.run(ctx)
                except Exception as exc:  # an operation that raises counts as failed
                    self.failed += 1
                    self.errors.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
                    times.append(None)
                    continue
                times.append((op.phase, perf_counter() - t0 - (speed.paused - paused)))
                if op.key:
                    ctx[op.key] = out
                try:
                    op.verify(out)
                except checks.CheckFailed as exc:
                    self.failed += 1
                    self.rejected += 1
                    self.errors.append(f"{op.label}: output rejected: {exc}")
        if not self.scaled:
            return times
        speed.sample()
        scale = speed.scale()
        return [t and (t[0], t[1] * scale) for t in times]


def set_up(name: str, seed: int, tiny: bool):
    """Import the library and make the inputs, SETUP_REPEATS times, each
    after a speed sample; the last repetition's round is the one that runs.
    Returns the round and the median set-up time scaled to the reference
    speed."""
    times = []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        speed.sample()
        gc.collect()
        t0 = perf_counter()
        lib = workloads.load_library()
        rnd = WORKLOADS[name](lib, seed, tiny)
        times.append(perf_counter() - t0)
    return rnd, statistics.median(times) * speed.scale()


def repeat_rounds(rnd, tally: Tally, seconds: float) -> list[list]:
    start = perf_counter()
    rounds = [tally.run_round(rnd.ops)]
    while perf_counter() - start < seconds:
        rounds.append(tally.run_round(rnd.ops))
    return rounds


def phase_seconds(rounds: list[list]) -> dict:
    """Each op's median time over the rounds, summed by phase.  A burst of
    slowness on the shared machine then moves only the ops it hits in the
    rounds it hits, and their medians ignore it."""
    totals = {"compute": 0.0, "check": 0.0}
    for samples in zip(*rounds):
        done = [t for t in samples if t is not None]
        if done:
            totals[done[0][0]] += statistics.median(secs for _, secs in done)
    return totals


def end_to_end(rounds, setup_s: float) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases = phase_seconds(rounds)
    values = {
        "setup_s": (setup_s, "s"),
        "compute_s": (phases["compute"], "s"),
        "check_s": (phases["check"], "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_round(total, rounds: int):
    return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds


def per_layer(tracer: tracing.Tracer, rounds: int, overhead_pct: float) -> dict:
    membership = tracer.calls["density.membership"]
    derived = {
        "density.ratio_evals_per_query":
            tracer.counts["density.ratio_evals"] / membership if membership else 0,
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for name, unit in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in tracer.maxima:
            value = tracer.maxima[name]
        elif field == "calls":
            value = per_round(tracer.calls[prefix], rounds)
        elif field == "self_s":
            value = tracer.self_s[prefix] / rounds
        else:
            value = per_round(tracer.counts[name], rounds)
        out[name] = {"value": value, "unit": unit}
    return out


def round_seconds(times: list) -> float:
    return sum(t[1] for t in times if t is not None)


def traced_rounds(rnd, tally: Tally, seconds: float, dump_path: str, meta: dict):
    """Replay the round's first `probe` ops untraced and traced in turn for
    the overhead, then run traced rounds for the per-layer figures."""
    tracer = tracing.Tracer(tracing.loaded_modules())
    probe = rnd.ops[:rnd.probe]
    plain, traced = [], []
    for _ in range(PROBE_PAIRS):
        plain.append(round_seconds(tally.run_round(probe)))
        tracer.install()
        try:
            traced.append(round_seconds(tally.run_round(probe)))
        finally:
            tracer.uninstall()
    overhead = (statistics.median(traced) / statistics.median(plain) - 1) * 100
    tracer.reset()
    tracer.install()
    try:
        rounds = repeat_rounds(rnd, tally, seconds)
    finally:
        tracer.uninstall()
    tracer.dump(dump_path, dict(meta, rounds=len(rounds)))
    return per_layer(tracer, len(rounds), overhead), len(rounds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lipsets", "__init__.py")):
        print(f"perfbench: no lipsets package under {src}", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    rnd, setup_s = set_up(args.workload, args.seed, args.tiny)
    tally = Tally(scaled=not args.trace)
    if args.trace:
        dump = os.path.join(ROOT, f"BENCH_trace_{args.workload}_{args.seed}.json")
        meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        metrics, n_rounds = traced_rounds(rnd, tally, args.seconds, dump, meta)
    else:
        rounds = repeat_rounds(rnd, tally, args.seconds)
        metrics, n_rounds = end_to_end(rounds, setup_s), len(rounds)
    for line in tally.errors[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {tally.attempted} ops, "
          f"{tally.failed} failed, {n_rounds} rounds", file=sys.stderr)
    result = {
        "correct": tally.rejected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
