"""Fast tests of the benchmark itself: every check accepts the program's real
outputs and rejects deliberately corrupted ones, and a tiny run of each
workload prints a well-formed result.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
from lipsets.constructions import (
    build_lip1_sum,
    build_small_lip,
    check_monotone_conditions,
    split_into_bounded_shards,
)
from lipsets.density import (
    UDTWitness,
    check_weakly_dense_at,
    level_set,
    level_set_membership,
)
from lipsets.intervals import Interval, IntervalSet
from lipsets.pcw import PiecewiseLinear
from lipsets.udt import build_udt_lip1, fat_cantor_system

F = Fraction
W = Interval(F(0), F(1))
TINY = F(1, 2 ** 64)
E = IntervalSet.from_pairs([(F(1, 16), F(5, 32)), (F(1, 4), F(9, 16)), (F(5, 8), F(3, 4))])
PAIRS = checks.pairs_of(E)


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# -- lip1-builds -----------------------------------------------------------------


def test_small_lip_accepted():
    f = build_small_lip(E, F(1, 8), W)
    checks.check_small_lip(f, PAIRS, F(1, 8), W)


def test_small_lip_rejects_slope_two():
    f = PiecewiseLinear([0, F(5, 16), F(11, 32), F(3, 8), 1], [0, 0, F(1, 16), 0, 0])
    rejects(checks.check_small_lip, f, PAIRS, F(1, 8), W)


def test_small_lip_rejects_sawtooth_off_e():
    f = build_small_lip(E, F(1, 8), W)
    shifted = [(a + F(1, 64), b + F(1, 64)) for a, b in PAIRS]
    rejects(checks.check_small_lip, f, shifted, F(1, 8), W)


def test_small_lip_rejects_nonzero_grid_point():
    f = build_small_lip(E, F(1, 8), W)
    rejects(checks.check_small_lip, f, PAIRS, F(1, 16), W)


def test_lip1_sum_accepted_and_corruptions_rejected():
    parts = split_into_bounded_shards(E, F(1, 2))
    parts_pairs = [checks.pairs_of(p) for p in parts]
    res = build_lip1_sum(parts, W)
    checks.check_lip1_sum(res, parts_pairs, W)
    bad_eps = dataclasses.replace(res.parts[1], epsilon=res.parts[1].epsilon + TINY)
    rejects(checks.check_lip1_sum,
            dataclasses.replace(res, parts=(res.parts[0], bad_eps) + res.parts[2:]), parts_pairs, W)
    steep = PiecewiseLinear([0, F(1, 4), F(9, 32), F(5, 16), 1], [0, 0, F(1, 16), 0, 0])
    rejects(checks.check_lip1_sum, dataclasses.replace(res, function=steep), parts_pairs, W)


def test_monotone_report_rejects_shifted_certificate():
    rep = check_monotone_conditions(E, "Lip1", W, F(1, 32))
    checks.check_monotone_report(rep, PAIRS, W, F(1, 32))
    i, (x, r) = next((i, e) for i, e in enumerate(rep.on_set) if e[1].verdict == "holds")
    bad = dataclasses.replace(r, ratio=r.ratio - TINY)
    corrupted = dataclasses.replace(rep, on_set=rep.on_set[:i] + ((x, bad),) + rep.on_set[i + 1:])
    rejects(checks.check_monotone_report, corrupted, PAIRS, W, F(1, 32))


def test_slope_parts_partition_the_window():
    f = build_small_lip(E, F(1, 8), W)
    e1, e0, em1 = checks.slope_parts(f)
    total = sum(b - a for a, b in e1 + e0 + em1)
    assert total == 1 and e1 and em1


# -- density-queries ------------------------------------------------------------------


@pytest.mark.parametrize("x", [F(3, 8), F(1, 4) + TINY, F(1, 5), F(3, 32)])
def test_membership_accepted_and_shifted_ratio_rejected(x):
    cert = level_set_membership(E, x, F(1, 2), F(1, 16))
    checks.check_membership(cert, PAIRS, x, F(1, 2), F(1, 16), F(1, 512))
    bad = dataclasses.replace(cert, worst_ratio=cert.worst_ratio + TINY)
    rejects(checks.check_membership, bad, PAIRS, x, F(1, 2), F(1, 16), F(1, 512))


def test_membership_rejects_false_member():
    x = F(1, 5)  # in a gap: the ratio is 0 at small radii
    cert = level_set_membership(E, x, F(1, 2), F(1, 16))
    assert not cert.member
    rejects(checks.check_membership, dataclasses.replace(cert, member=True),
            PAIRS, x, F(1, 2), F(1, 16), F(1, 512))


def test_membership_rejects_radius_beyond_delta():
    cert = level_set_membership(E, F(3, 8), F(1, 2), F(1, 16))
    rejects(checks.check_membership, dataclasses.replace(cert, worst_r=F(1, 8)),
            PAIRS, F(3, 8), F(1, 2), F(1, 16), F(1, 512))


def test_level_set_accepted_and_corruptions_rejected():
    res = level_set(E, F(1, 2), F(1, 16), W, F(1, 32))
    checks.check_level_set(res, PAIRS, F(1, 16), W)
    outside = res.approximation.union(IntervalSet.from_pairs([(F(3, 16), F(7, 32))]))
    rejects(checks.check_level_set, dataclasses.replace(res, approximation=outside),
            PAIRS, F(1, 16), W)
    trimmed = res.approximation.intersect(IntervalSet.from_pairs([(0, F(1, 2))]))
    rejects(checks.check_level_set, dataclasses.replace(res, approximation=trimmed),
            PAIRS, F(1, 16), W)


def test_weak_report_rejects_shifted_ratio():
    x = F(1, 4) + TINY
    rep = check_weakly_dense_at(E, x, F(1, 16))
    assert rep.verdict == "holds"
    checks.check_weak_report(rep, PAIRS, x, F(1, 16))
    rejects(checks.check_weak_report, dataclasses.replace(rep, ratio=rep.ratio + TINY),
            PAIRS, x, F(1, 16))


# -- udt-stages ---------------------------------------------------------------------------

WITNESS = UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))


@pytest.fixture(scope="module")
def udt_result():
    system = fat_cantor_system(1)
    return build_udt_lip1(system, WITNESS, 1), checks.pairs_of(system.target)


def check_udt(res, target):
    checks.check_udt_result(res, target, WITNESS.gammas, WITNESS.deltas)


def test_udt_accepted(udt_result):
    check_udt(*udt_result)


def test_udt_rejects_false_flag(udt_result):
    res, target = udt_result
    diag = dataclasses.replace(res.diagnostics[0], contraction_ok=False)
    rejects(check_udt, dataclasses.replace(res, diagnostics=(diag,)), target)


def test_udt_rejects_doubled_slopes(udt_result):
    res, target = udt_result
    rejects(check_udt, dataclasses.replace(res, stages=(res.stages[0].scale(2),)), target)


def test_udt_rejects_slope_on_closed_set(udt_result):
    res, target = udt_result
    f = res.stages[0]
    comp = res.system.closed_at(1).intervals[0]
    mid = (comp.lo + comp.hi) / 2
    bumped = PiecewiseLinear(
        [x for x in f.breakpoints if x < mid] + [mid] + [x for x in f.breakpoints if x > mid],
        [v for x, v in f.as_pairs() if x < mid] + [f(mid) + TINY]
        + [v for x, v in f.as_pairs() if x > mid])
    rejects(check_udt, dataclasses.replace(res, stages=(bumped,)), target)


def test_udt_rejects_shifted_witness(udt_result):
    res, target = udt_result
    diag = res.diagnostics[0]
    rec = dataclasses.replace(diag.witnesses[0], ratio=diag.witnesses[0].ratio + TINY)
    diag = dataclasses.replace(diag, witnesses=(rec,) + diag.witnesses[1:])
    rejects(check_udt, dataclasses.replace(res, diagnostics=(diag,)), target)


# -- the runner ------------------------------------------------------------------------------


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_is_correct(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(capsys):
    dump = os.path.join(run.ROOT, "BENCH_trace_lip1-builds_4.json")
    try:
        assert run.main(["--workload", "lip1-builds", "--seed", "4", "--seconds", "0.1",
                         "--trace", "1", "--tiny"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        with open(dump) as fh:
            spans = json.load(fh)["spans"]
    finally:
        if os.path.exists(dump):
            os.remove(dump)
    assert set(result["metrics"]) == {m["name"] for m in benchmark_spec()["per_layer"]}
    assert result["metrics"]["constructions.small_lip_blocks.blocks"]["value"] > 0
    assert spans and all(start <= end for _, _, start, end, _ in spans)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lip1-builds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
