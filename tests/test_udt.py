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


class TestTwoStages:
    def test_stage_flags(self, two_stages):
        _assert_stage_flags(two_stages)

    def test_persistence_and_vicinity(self, two_stages):
        assert two_stages.persistence_ok()
        assert two_stages.vicinity_chain_ok()

    def test_breakpoint_counts(self, two_stages):
        assert [len(f.breakpoints) for f in two_stages.stages] == [30, 210]

    def test_persistence_detects_a_moved_stage(self, two_stages):
        f1, f2 = two_stages.stages
        comp = two_stages.system.closed_at(1).intervals[0]
        moved = UdtBuildResult(
            two_stages.system, two_stages.witness, (f1, f2.shift(F(1, 2 ** 20))),
            two_stages.radii, two_stages.diagnostics,
        )
        assert f2(comp.midpoint) != moved.stages[1](comp.midpoint)
        assert not moved.persistence_ok()
