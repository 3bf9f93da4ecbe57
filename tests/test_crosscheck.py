"""Tests for the Gaussian-vs-Fock cross-validation harness.

The full standard battery is exercised by the acceptance suite; here we
cover the harness mechanics on a handful of circuits so failures localize.
"""

import math

import numpy as np
import pytest

import ramansim.crosscheck as crosscheck
from ramansim.crosscheck import (
    AGREEMENT_TOL,
    N_MAX_LIMIT,
    BatteryResult,
    Loss,
    Rotate,
    Squeeze,
    paper_battery,
    run_battery,
    run_fock,
    run_gaussian,
    standard_battery,
    variance_deviation,
)
from ramansim.fock import TruncationError
from ramansim.gaussian import GaussianState, homodyne_variance

LOSSLESS_ALIGNED = (Squeeze(0.5), Rotate(0, np.pi), Squeeze(0.5))


class TestStandardBattery:
    def test_size_and_uniqueness(self):
        battery = standard_battery()
        assert len(battery) >= 30
        names = [name for name, _ in battery]
        assert len(set(names)) == len(names)

    def test_composition_limits(self):
        for _, circuit in standard_battery():
            for op in circuit:
                if isinstance(op, Squeeze):
                    assert 0 < op.r <= 1.0
                elif isinstance(op, Loss):
                    assert op.loss in (0.0, 0.1, 0.5)
                elif isinstance(op, Rotate):
                    assert op.phi in (0.0, np.pi / 2.0, np.pi)
                else:
                    pytest.fail(f"unexpected op {op!r}")

    def test_covers_unequal_losses_and_all_phases(self):
        battery = standard_battery()
        losses = set()
        phases = set()
        for _, circuit in battery:
            pair = [op.loss for op in circuit if isinstance(op, Loss)]
            if pair:
                losses.add(tuple(pair))
            phases.update(op.phi for op in circuit if isinstance(op, Rotate))
        assert (0.1, 0.5) in losses and (0.5, 0.1) in losses
        assert phases == {0.0, np.pi / 2.0, np.pi}


class TestPaperBattery:
    def test_operating_point(self):
        battery = paper_battery()
        names = [name for name, _ in battery]
        assert len(set(names)) == len(names)
        losses, pump_phases = set(), set()
        for _, (prep, loss_a, loss_b, rotate, readout) in battery:
            assert math.cosh(prep.r) == pytest.approx(1.17, abs=1e-12)
            assert math.cosh(2.0 * readout.r) == pytest.approx(32.0, abs=1e-9)
            assert rotate == Rotate(0, np.pi)
            losses.add((loss_a.loss, loss_b.loss))
            pump_phases.update((prep.theta, readout.theta))
        assert (0.1, 0.1) in losses
        assert any(l1 != l2 for l1, l2 in losses)
        assert any(theta != 0.0 for theta in pump_phases)

    def test_doubling_settles_at_cap_and_agrees(self):
        for name, circuit in paper_battery():
            state = run_fock(circuit)
            assert state.n_max == N_MAX_LIMIT, name
            gauss = run_gaussian(circuit)
            for mode in (0, 1):
                fv = crosscheck.fock.quadrature_variance(state, mode)
                for phase in (0.0, np.pi / 2.0):
                    assert abs(homodyne_variance(gauss, mode, phase) - fv) < AGREEMENT_TOL, name


class TestRunGaussian:
    def test_aligned_lossless_cancels_to_vacuum(self):
        # equal prep/readout squeezing with a pi phase between the stages
        # returns the measured arm exactly to vacuum variance
        state = run_gaussian(LOSSLESS_ALIGNED)
        assert homodyne_variance(state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_single_squeeze_gain(self):
        state = run_gaussian((Squeeze(0.5),))
        assert homodyne_variance(state, 0) == pytest.approx(math.cosh(1.0), abs=1e-12)

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError):
            run_gaussian(("not-an-op",))


class TestVarianceDeviation:
    def test_lossless_circuit(self):
        assert variance_deviation(LOSSLESS_ALIGNED) < AGREEMENT_TOL

    def test_lossy_circuit(self):
        circuit = (Squeeze(0.5), Loss(0, 0.5), Loss(1, 0.1), Rotate(0, np.pi / 2), Squeeze(0.5))
        assert variance_deviation(circuit) < AGREEMENT_TOL

    def test_pump_phase_sign_convention(self):
        # the standard battery keeps theta = 0; flipping the sign of the
        # pump phase in either engine makes this circuit deviate by ~1.9
        circuit = (
            Squeeze(0.5, theta=0.3),
            Loss(1, 0.1),
            Rotate(0, np.pi / 2),
            Squeeze(0.5, theta=1.1),
        )
        assert variance_deviation(circuit, n_max=30) < AGREEMENT_TOL


class TestAdaptiveTruncation:
    def test_doubles_until_adequate(self):
        state = run_fock((Squeeze(1.1),))
        assert state.n_max == 80
        assert crosscheck.fock.quadrature_variance(state, 0) == pytest.approx(
            math.cosh(2.2), abs=1e-6
        )

    def test_gives_up_at_cap(self):
        with pytest.raises(TruncationError):
            run_fock((Squeeze(1.0), Squeeze(1.0)))


class TestBatteryResult:
    def test_aggregates(self):
        result = BatteryResult([("a", 1e-9), ("b", 5e-7), ("c", 2e-8)])
        assert result.max_deviation == 5e-7
        assert result.worst_circuit == "b"
        assert result.passed

    def test_failing_aggregate(self):
        result = BatteryResult([("a", 2e-6)])
        assert not result.passed

    def test_empty(self):
        result = BatteryResult()
        assert result.max_deviation == 0.0
        assert result.passed
        assert result.worst_circuit == ""


class TestHarnessSanity:
    def test_corrupted_engine_detected(self, monkeypatch):
        """A deliberately biased engine must fail the battery check."""

        def biased(circuit):
            state = run_gaussian(circuit)
            return GaussianState(state.mean, state.cov + 1e-3 * np.eye(4))

        monkeypatch.setattr(crosscheck, "run_gaussian", biased)
        result = run_battery(battery=[("lossless", LOSSLESS_ALIGNED)])
        assert not result.passed
        assert result.worst_circuit == "lossless"

    def test_small_battery_passes_and_times(self):
        result = run_battery(battery=[("lossless", LOSSLESS_ALIGNED)])
        assert result.passed
        assert result.elapsed_s > 0.0
