"""Unit tests for the truncated Fock-space oracle."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import comb

from ramansim.fock import (
    FockState,
    TruncationError,
    _apply_pair,
    _pair_blocks,
    apply_loss,
    apply_phase_rotation,
    apply_two_mode_squeeze,
    edge_population,
    mean_photon_number,
    overlap,
    quadrature_variance,
    two_mode_squeezed_vacuum,
    vacuum_state,
)

R = 0.5
ARM_VAR = math.cosh(2 * R)  # 1.5430806348152437
MEAN_PHOTON = math.sinh(R) ** 2  # 0.2715403174076218


def random_state(n_modes, dim, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(dim,) * n_modes) + 1j * rng.normal(size=(dim,) * n_modes)
    return FockState(dim - 1, amps / np.linalg.norm(amps))


def embed(op, mode, n_modes):
    """A single-mode operator on the n-mode product space (mode 0 is the
    slowest tensor factor)."""
    dim = op.shape[0]
    left = sp.identity(dim**mode, format="csr")
    right = sp.identity(dim ** (n_modes - mode - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def destroy(dim):
    return sp.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")


def kraus_loss(rho, mode, n_modes, loss):
    """Pure loss through its Kraus operators
    E_k = sum_n sqrt(C(n, k) T^{n-k} L^k) |n-k><n| on one mode of rho."""
    dim = round(rho.shape[0] ** (1.0 / n_modes))
    out = np.zeros_like(rho)
    for k in range(dim):
        n = np.arange(k, dim)
        w = np.sqrt(comb(n, k) * (1.0 - loss) ** (n - k) * loss**k)
        e = embed(sp.csr_matrix((w, (n - k, n)), shape=(dim, dim)), mode, n_modes)
        out += e @ rho @ e.conj().T
    return out


class TestVacuum:
    def test_shape_and_amplitudes(self):
        state = vacuum_state(2, 5)
        assert state.amps.shape == (6, 6)
        assert state.amps[0, 0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    @pytest.mark.parametrize("lo_phase", [0.0, 0.8, np.pi / 2])
    def test_unit_quadrature_variance(self, lo_phase):
        state = vacuum_state(1, 6)
        assert quadrature_variance(state, 0, lo_phase) == pytest.approx(1.0, abs=1e-12)

    def test_zero_photons(self):
        assert mean_photon_number(vacuum_state(2, 4), 1) == pytest.approx(0.0, abs=1e-14)


class TestTwoModeSqueezedVacuum:
    def test_schmidt_amplitudes(self):
        state = two_mode_squeezed_vacuum(R, n_max=40)
        n = np.arange(41)
        expected = np.tanh(R) ** n / np.cosh(R)
        assert np.allclose(np.diagonal(state.amps), expected, atol=1e-12)
        off_diag = state.amps - np.diag(np.diagonal(state.amps))
        assert np.max(np.abs(off_diag)) == 0.0

    def test_matches_generator_exponential(self):
        direct = two_mode_squeezed_vacuum(R, theta=0.3, n_max=40)
        evolved = apply_two_mode_squeeze(vacuum_state(2, 40), R, theta=0.3)
        assert abs(overlap(direct, evolved)) == pytest.approx(1.0, abs=1e-10)

    def test_arm_variance_and_photon_number(self):
        state = two_mode_squeezed_vacuum(R, n_max=40)
        for mode in (0, 1):
            assert quadrature_variance(state, mode) == pytest.approx(ARM_VAR, abs=1e-10)
            assert mean_photon_number(state, mode) == pytest.approx(
                MEAN_PHOTON, abs=1e-10
            )

    def test_refuses_insufficient_truncation(self):
        with pytest.raises(TruncationError):
            two_mode_squeezed_vacuum(1.0, n_max=10)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            two_mode_squeezed_vacuum(-0.1)


class TestSqueezeOperation:
    def test_edge_policing_on_repeated_squeezing(self):
        state = vacuum_state(2, 16)
        state = apply_two_mode_squeeze(state, 0.6)
        with pytest.raises(TruncationError):
            apply_two_mode_squeeze(state, 0.6)

    @pytest.mark.parametrize("dim, modes, n_modes", [(12, (0, 1), 2), (5, (2, 0), 3)])
    def test_blocks_match_generator_exponential(self, dim, modes, n_modes):
        """The block squeezer on two modes of a random state against
        expm_multiply of the generator embedded in the full product space."""
        a = embed(destroy(dim), modes[0], n_modes)
        b = embed(destroy(dim), modes[1], n_modes)
        ab = a @ b
        k = 0.6 * (np.exp(0.4j) * ab.conj().T - np.exp(-0.4j) * ab)
        state = random_state(n_modes, dim)
        reference = expm_multiply(k, state.amps.reshape(-1)).reshape(state.amps.shape)
        blocks = _pair_blocks(complex(0.6 * np.exp(0.4j)), dim, True)
        out = _apply_pair(state.amps, blocks, modes)
        assert np.max(np.abs(out - reference)) < 1e-12

    def test_unitarity(self):
        state = apply_two_mode_squeeze(vacuum_state(2, 30), 0.6)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-10)


class TestPhaseRotation:
    def test_pure_phases(self):
        state = two_mode_squeezed_vacuum(R, n_max=20)
        rotated = apply_phase_rotation(state, 0, 0.7)
        n = np.arange(21)
        expected = state.amps * np.exp(1j * 0.7 * n)[:, None]
        assert np.allclose(rotated.amps, expected, atol=1e-12) or np.allclose(
            rotated.amps, state.amps * np.exp(-1j * 0.7 * n)[:, None], atol=1e-12
        )

    def test_thermal_arm_invariant(self):
        state = two_mode_squeezed_vacuum(R, n_max=30)
        rotated = apply_phase_rotation(state, 0, 1.3)
        assert quadrature_variance(rotated, 0) == pytest.approx(ARM_VAR, abs=1e-10)

    def test_full_turn_identity(self):
        state = two_mode_squeezed_vacuum(R, n_max=20)
        rotated = apply_phase_rotation(state, 0, 2 * np.pi)
        assert np.allclose(rotated.amps, state.amps, atol=1e-12)


class TestLossChannel:
    def test_trace_exactly_preserved(self):
        state = two_mode_squeezed_vacuum(R, n_max=25)
        out = apply_loss(state, 0, 0.37)
        assert np.vdot(out.amps, out.amps).real == pytest.approx(1.0, abs=1e-12)

    def test_half_loss_variance(self):
        state = two_mode_squeezed_vacuum(R, n_max=30)
        out = apply_loss(state, 0, 0.5)
        assert quadrature_variance(out, 0) == pytest.approx(
            0.5 * ARM_VAR + 0.5, abs=1e-9
        )
        assert quadrature_variance(out, 1) == pytest.approx(ARM_VAR, abs=1e-9)

    def test_full_loss_resets_mode(self):
        state = two_mode_squeezed_vacuum(R, n_max=20)
        out = apply_loss(state, 1, 1.0)
        assert mean_photon_number(out, 1) == pytest.approx(0.0, abs=1e-12)
        assert quadrature_variance(out, 1, 0.9) == pytest.approx(1.0, abs=1e-10)

    def test_zero_loss_identity(self):
        state = two_mode_squeezed_vacuum(R, n_max=20)
        out = apply_loss(state, 0, 0.0)
        assert np.allclose(out.amps, state.amps, atol=1e-13)

    def test_mean_photon_scales_with_transmission(self):
        state = two_mode_squeezed_vacuum(R, n_max=25)
        out = apply_loss(state, 0, 0.3)
        assert mean_photon_number(out, 0) == pytest.approx(0.7 * MEAN_PHOTON, abs=1e-10)

    @pytest.mark.parametrize("loss", [-0.01, 1.01])
    def test_loss_range_validation(self, loss):
        state = vacuum_state(1, 4)
        with pytest.raises(ValueError):
            apply_loss(state, 0, loss)

    @pytest.mark.parametrize("n_max", [1, 4, 8])
    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("loss", [0.1, 0.5, 1.0])
    def test_reduced_state_matches_kraus_sum(self, n_max, mode, loss):
        """Tracing the environment out of the beam-splitter purification
        leaves the Kraus sum over E_k rho E_k^dag."""
        state = random_state(2, n_max + 1, seed=n_max)
        flat = state.amps.reshape(-1)
        reference = kraus_loss(np.outer(flat, flat.conj()), mode, 2, loss)
        out = apply_loss(state, mode, loss)
        assert out.n_modes == 3
        system = out.amps.reshape(-1, n_max + 1)  # environment is the last axis
        assert np.max(np.abs(system @ system.conj().T - reference)) < 1e-12


class TestValidation:
    def test_norm_enforced(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 0.5
        with pytest.raises(ValueError):
            FockState(4, amps)

    def test_edge_population_of_small_state(self):
        assert edge_population(vacuum_state(2, 3)) == pytest.approx(0.0, abs=1e-14)
        state = two_mode_squeezed_vacuum(0.3, n_max=25)
        assert edge_population(state) < 1e-12
