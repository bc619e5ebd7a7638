import hashlib
from fractions import Fraction

import pytest

from lipsets.density import UDTWitness
from lipsets.udt import UdtBuildResult, build_udt_lip1, fat_cantor_system

F = Fraction

WITNESS = UDTWitness((F(1, 2), F(3, 4)), (F(1, 8), F(1, 16)))


@pytest.fixture(scope="module")
def one_stage():
    return build_udt_lip1(fat_cantor_system(1), WITNESS, 1)


@pytest.fixture(scope="module")
def two_stages():
    return build_udt_lip1(fat_cantor_system(2), WITNESS, 2, collar=F(27, 64))


def _digest(f):
    """SHA-256 of the exact breakpoint/value pairs, as "x:v" joined by spaces."""
    return hashlib.sha256(" ".join(f"{x}:{v}" for x, v in f.as_pairs()).encode()).hexdigest()


def _assert_stage_flags(res):
    for n, diag in enumerate(res.diagnostics, start=1):
        assert diag.stage == n
        assert diag.contraction_factor == 1 - F(1, 2 ** (3 * n))
        assert diag.contraction_ok
        assert diag.flat_on_closed_ok
        assert diag.radius_zero_on_closed
        assert diag.radius_within_margin
        assert diag.witnesses and not diag.witness_failures
        assert diag.radius_sup <= F(1, 2 ** n)
        # Cauchy step ‖f_n - f_{n-1}‖ <= 2^{1-n}
        assert diag.cauchy_step <= F(2, 2 ** n)


class TestOneStage:
    def test_stage_flags(self, one_stage):
        _assert_stage_flags(one_stage)

    def test_persistence_and_vicinity(self, one_stage):
        assert one_stage.persistence_ok()
        assert one_stage.vicinity_chain_ok()

    def test_breakpoint_count(self, one_stage):
        assert [len(f.breakpoints) for f in one_stage.stages] == [448]

    def test_stage_and_radius_digests(self, one_stage):
        assert [_digest(f) for f in one_stage.stages] == [
            "537c5ed27c2864f2c5ae9c41023a583681fd97b35a74ec4b52e0461eb610a435",
        ]
        assert [_digest(r) for r in one_stage.radii] == [
            "83d7d9029946894ae4dd550418ea54375bee452db7d5d9d6dd9f7b195be01053",
        ]


class TestTwoStages:
    def test_stage_flags(self, two_stages):
        _assert_stage_flags(two_stages)

    def test_persistence_and_vicinity(self, two_stages):
        assert two_stages.persistence_ok()
        assert two_stages.vicinity_chain_ok()

    def test_breakpoint_counts(self, two_stages):
        assert [len(f.breakpoints) for f in two_stages.stages] == [30, 210]

    def test_stage_and_radius_digests(self, two_stages):
        assert [_digest(f) for f in two_stages.stages] == [
            "bacf07cb9641da7ef4401c7cf9c0eb26e6a9a3c47b4fb36e10cfb4c0ab592b02",
            "14874d7acb35db23bbbacf60571080b8ed4e7db28cde047806916d61fc76489c",
        ]
        assert [_digest(r) for r in two_stages.radii] == [
            "82e9c5b6b182d8733d9cae58cd6fa02eb03d68bdd19d81b74034ee36d3bc3e65",
            "6796beeef377941b54c8cf1e4d7e7f9837c137c7ed60bcf4cd2b5abc8d2aad89",
        ]

    def test_persistence_detects_a_moved_stage(self, two_stages):
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        moved = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2.shift(F(1, 2 ** 20))),
            two_stages.radii, two_stages.diagnostics,
        )
        assert f2(comp.midpoint) != moved.stages[1](comp.midpoint)
        assert not moved.persistence_ok()
