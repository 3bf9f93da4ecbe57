"""Unit tests for the Gaussian covariance-matrix engine."""

import math

import numpy as np
import pytest

from ramansim.gaussian import (
    SYMPLECTIC_ATOL,
    GaussianState,
    LossChannel,
    SymplecticOp,
    apply_loss,
    apply_symplectic,
    displacement,
    homodyne_variance,
    mean_amplitude,
    mean_photon_number,
    phase_shift,
    _is_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    vacuum,
)

# Frozen two-mode-squeezed-vacuum references at r = 0.5 (G = cosh r):
# single-arm X variance cosh(2r), difference variance 2 e^{-2r},
# sum variance 2 e^{2r}, per-arm mean photon number sinh^2 r.
R_HALF_ARM_VAR = 1.5430806348152437
R_HALF_DIFF_VAR = 0.7357588823428847
R_HALF_SUM_VAR = 5.43656365691809
R_HALF_MEAN_PHOTON = 0.2715403174076218


def tmsv_state(r=0.5, pump_phase=0.0):
    return apply_symplectic(vacuum(2), two_mode_squeezer(0, 1, math.cosh(r), pump_phase))


def quad_combination_variance(state, coeffs):
    """Variance of a linear combination sum_i coeffs[i] * (X_i or Y_i)."""
    u = np.asarray(coeffs, dtype=float)
    return float(u @ state.cov @ u)


class TestVacuum:
    def test_identity_covariance(self):
        state = vacuum(3)
        assert np.array_equal(state.cov, np.eye(6))
        assert np.array_equal(state.mean, np.zeros(6))
        assert state.n_modes == 3

    @pytest.mark.parametrize("lo_phase", [0.0, 0.3, np.pi / 2, 2.1])
    def test_unit_variance_any_phase(self, lo_phase):
        assert homodyne_variance(vacuum(1), 0, lo_phase) == pytest.approx(1.0, abs=1e-14)

    def test_physical(self):
        assert vacuum(2).is_physical()

    def test_mode_count_validation(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestSymplecticForm:
    def test_block_structure(self):
        omega = symplectic_form(2)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega, np.kron(np.eye(2), j))

    def test_antisymmetric(self):
        omega = symplectic_form(3)
        assert np.array_equal(omega, -omega.T)

    def test_check_matches_allclose(self):
        """_is_symplectic against the np.allclose predicate it writes out,
        on symplectic, perturbed and non-finite stacks of 2 and 3 modes."""
        rng = np.random.default_rng(31)

        def random_symplectic(n_modes):
            s = np.eye(2 * n_modes)
            for _ in range(3):
                a, b = rng.choice(n_modes, size=2, replace=False)
                s = two_mode_squeezer(a, b, 1.0 + 3.0 * rng.random(), rng.uniform(-np.pi, np.pi),
                                      n_modes=n_modes).matrix @ s
                s = phase_shift(a, rng.uniform(-np.pi, np.pi), n_modes=n_modes).matrix @ s
            return s

        def reference(stack):
            omega = symplectic_form(stack.shape[-1] // 2)
            return np.allclose(stack @ omega @ np.swapaxes(stack, -1, -2), omega,
                               atol=SYMPLECTIC_ATOL)

        outcomes = set()
        for n_modes in (2, 3):
            for _ in range(200):
                stack = np.stack([random_symplectic(n_modes) for _ in range(3)])
                kind = rng.integers(4)
                entry = (rng.integers(3), rng.integers(2 * n_modes), rng.integers(2 * n_modes))
                if kind == 1:
                    stack[entry] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-13.0, -3.0)
                elif kind == 2:
                    stack[entry] = rng.choice([np.nan, np.inf, -np.inf])
                elif kind == 3:
                    # (1 + eps) S moves only the +-1 entries of S Omega S^T,
                    # where the relative term of the bound decides
                    stack[rng.integers(3)] *= 1.0 + 10.0 ** rng.uniform(-12.0, -4.0)
                with np.errstate(invalid="ignore"):
                    expected = reference(stack)
                    assert _is_symplectic(stack) == expected
                    for s in stack:
                        assert _is_symplectic(s) == reference(s)
                outcomes.add((int(kind), bool(expected)))
        assert {(0, True), (1, True), (1, False), (2, False), (3, True), (3, False)} <= outcomes
        assert symplectic_form(2).flags.writeable


class TestTwoModeSqueezer:
    def test_matrix_is_symplectic(self):
        op = two_mode_squeezer(0, 1, 1.7, pump_phase=0.4)
        omega = symplectic_form(2)
        assert np.allclose(op.matrix @ omega @ op.matrix.T, omega, atol=1e-12)

    def test_unit_gain_is_identity(self):
        op = two_mode_squeezer(0, 1, 1.0)
        assert np.allclose(op.matrix, np.eye(4))

    def test_arm_variances(self):
        state = tmsv_state(0.5)
        for mode in (0, 1):
            for lo_phase in (0.0, 0.7, np.pi / 2):
                assert homodyne_variance(state, mode, lo_phase) == pytest.approx(
                    R_HALF_ARM_VAR, abs=1e-12
                )

    def test_x_difference_squeezed(self):
        state = tmsv_state(0.5)
        # X_0 - X_1 and Y_0 + Y_1 are squeezed, X_0 + X_1 and Y_0 - Y_1
        # anti-squeezed, fixing the positive-X-correlation convention.
        assert quad_combination_variance(state, [1, 0, -1, 0]) == pytest.approx(
            R_HALF_DIFF_VAR, abs=1e-12
        )
        assert quad_combination_variance(state, [0, 1, 0, 1]) == pytest.approx(
            R_HALF_DIFF_VAR, abs=1e-12
        )
        assert quad_combination_variance(state, [1, 0, 1, 0]) == pytest.approx(
            R_HALF_SUM_VAR, abs=1e-12
        )

    def test_pump_phase_pi_flips_correlation(self):
        state = tmsv_state(0.5, pump_phase=np.pi)
        assert quad_combination_variance(state, [1, 0, 1, 0]) == pytest.approx(
            R_HALF_DIFF_VAR, abs=1e-12
        )

    def test_mean_photon_number(self):
        state = tmsv_state(0.5)
        for mode in (0, 1):
            assert mean_photon_number(state, mode) == pytest.approx(
                R_HALF_MEAN_PHOTON, abs=1e-12
            )

    def test_pure_state_symplectic_eigenvalues_are_one(self):
        nus = symplectic_eigenvalues(tmsv_state(0.8).cov)
        assert np.allclose(nus, 1.0, atol=1e-10)

    def test_embedding_in_larger_register(self):
        op = two_mode_squeezer(0, 2, 1.3, n_modes=3)
        state = apply_symplectic(vacuum(3), op)
        assert homodyne_variance(state, 1) == pytest.approx(1.0, abs=1e-14)
        assert homodyne_variance(state, 0) == pytest.approx(
            2 * 1.3**2 - 1, abs=1e-12
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode_a=0, mode_b=0, gain=1.5),
            dict(mode_a=0, mode_b=1, gain=0.5),
            dict(mode_a=-1, mode_b=1, gain=1.5),
            dict(mode_a=0, mode_b=2, gain=1.5, n_modes=2),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            two_mode_squeezer(**kwargs)


class TestPhaseShift:
    def test_rotates_mean_amplitude(self):
        state = apply_symplectic(vacuum(1), displacement(0, 1.0 + 0.5j))
        rotated = apply_symplectic(state, phase_shift(0, 0.9))
        assert mean_amplitude(rotated, 0) == pytest.approx(
            (1.0 + 0.5j) * np.exp(1j * 0.9), abs=1e-12
        )

    def test_preserves_thermal_arm(self):
        state = apply_symplectic(tmsv_state(0.5), phase_shift(0, 1.2, n_modes=2))
        assert homodyne_variance(state, 0) == pytest.approx(R_HALF_ARM_VAR, abs=1e-12)

    def test_full_turn_is_identity(self):
        op = phase_shift(0, 2 * np.pi)
        assert np.allclose(op.matrix, np.eye(2), atol=1e-12)


class TestDisplacement:
    def test_mean_and_covariance(self):
        state = apply_symplectic(vacuum(2), displacement(1, 0.3 - 1.1j, n_modes=2))
        assert np.array_equal(state.cov, np.eye(4))
        assert state.mean == pytest.approx([0.0, 0.0, 0.6, -2.2], abs=1e-14)
        assert mean_amplitude(state, 1) == pytest.approx(0.3 - 1.1j, abs=1e-14)

    def test_coherent_photon_number(self):
        alpha = 0.8 + 0.6j
        state = apply_symplectic(vacuum(1), displacement(0, alpha))
        assert mean_photon_number(state, 0) == pytest.approx(abs(alpha) ** 2, abs=1e-12)

    def test_variance_unchanged(self):
        state = apply_symplectic(vacuum(1), displacement(0, 2.5j))
        assert homodyne_variance(state, 0, 1.1) == pytest.approx(1.0, abs=1e-14)


class TestLoss:
    def test_half_loss_on_squeezed_arm(self):
        state = apply_loss(tmsv_state(0.5), LossChannel(0, 0.5))
        assert homodyne_variance(state, 0) == pytest.approx(
            0.5 * R_HALF_ARM_VAR + 0.5, abs=1e-12
        )
        assert homodyne_variance(state, 1) == pytest.approx(R_HALF_ARM_VAR, abs=1e-12)

    def test_full_loss_resets_to_vacuum(self):
        state = apply_loss(tmsv_state(0.5), LossChannel(0, 1.0))
        assert homodyne_variance(state, 0, 0.4) == pytest.approx(1.0, abs=1e-12)
        assert mean_photon_number(state, 0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_loss_is_identity(self):
        before = tmsv_state(0.5)
        after = apply_loss(before, LossChannel(1, 0.0))
        assert np.allclose(after.cov, before.cov, atol=1e-15)

    def test_attenuates_mean(self):
        state = apply_symplectic(vacuum(1), displacement(0, 2.0))
        state = apply_loss(state, LossChannel(0, 0.75))
        assert mean_amplitude(state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_lossy_state_stays_physical(self):
        state = apply_loss(tmsv_state(0.9), LossChannel(0, 0.3))
        assert state.is_physical()
        assert np.all(symplectic_eigenvalues(state.cov) >= 1.0 - 1e-9)

    def test_transmissivity(self):
        assert LossChannel(0, 0.2).transmissivity == pytest.approx(0.8)

    @pytest.mark.parametrize("loss", [-0.1, 1.1, np.nan])
    def test_loss_range_validation(self, loss):
        with pytest.raises(ValueError):
            LossChannel(0, loss)


class TestStateAndOpValidation:
    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymplecticOp(2.0 * np.eye(4))

    def test_scaled_identity_below_vacuum_unphysical(self):
        state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
        assert not state.is_physical()

    def test_homodyne_mode_bounds(self):
        with pytest.raises(ValueError):
            homodyne_variance(vacuum(1), 1)

    def test_symplectic_eigenvalues_of_vacuum(self):
        assert symplectic_eigenvalues(np.eye(6)) == pytest.approx([1.0, 1.0, 1.0])
