"""Unit tests for the truncated Fock-space oracle.

The oracle stores a two-mode state on the Q = 0 charge sector as
psi[n_a, n_ea, n_eb] with n_b implied; the references here scatter that
store into a dense 4-mode tensor psi[n_a, n_b, n_ea, n_eb] and act with
dense generators on the full product space.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import comb

import ramansim.fock as fock
from ramansim.fock import (
    FockState,
    TruncationError,
    _splitter_columns,
    _squeeze_block,
    apply_loss,
    apply_phase_rotation,
    apply_two_mode_squeeze,
    edge_population,
    mean_photon_number,
    pair_correlation,
    quadrature_variance,
    vacuum_state,
)
from ramansim.gaussian import NumericalError

R = 0.5
ARM_VAR = math.cosh(2 * R)  # 1.5430806348152437
MEAN_PHOTON = math.sinh(R) ** 2  # 0.2715403174076218

# dense axes: a, b, e_a, e_b
A, B, EA, EB = range(4)


def implied_n_b(shape):
    n_a, n_ea, n_eb = np.ogrid[: shape[0], : shape[1], : shape[2]]
    return n_a + n_ea - n_eb


def random_state(dim, envs=(False, False), seed=0):
    """A random store on the Q = 0 sector; ``envs`` says which of e_a, e_b
    carry an axis."""
    rng = np.random.default_rng(seed)
    shape = (dim, dim if envs[0] else 1, dim if envs[1] else 1)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    n_b = implied_n_b(shape)
    amps[(n_b < 0) | (n_b >= dim)] = 0.0
    return FockState(dim - 1, amps / np.linalg.norm(amps))


def two_mode_squeezed_vacuum(r, theta=0.0, n_max=40):
    """The reference TMSV in Schmidt form, psi(n, n) = (e^{i theta} tanh r)^n / cosh r,
    at a truncation whose last amplitude is negligible against the first."""
    assert np.tanh(r) ** n_max < 1e-6
    coeff = (np.exp(1j * theta) * np.tanh(r)) ** np.arange(n_max + 1) / np.cosh(r)
    return FockState(n_max, (coeff / np.linalg.norm(coeff))[:, None, None])


def dense(state):
    """The store scattered into psi[n_a, n_b, n_ea, n_eb] of shape (d,)*4."""
    d = state.dim
    out = np.zeros((d,) * 4, dtype=complex)
    n_a, n_ea, n_eb = np.indices(state.amps.shape)
    n_b = n_a + n_ea - n_eb
    inside = (n_b >= 0) & (n_b < d)
    out[n_a[inside], n_b[inside], n_ea[inside], n_eb[inside]] = state.amps[inside]
    return out


def embed(op, mode, n_modes=4):
    """A single-mode operator on the n-mode product space (mode 0 is the
    slowest tensor factor)."""
    dim = op.shape[0]
    left = sp.identity(dim**mode, format="csr")
    right = sp.identity(dim ** (n_modes - mode - 1), format="csr")
    return sp.kron(sp.kron(left, op), right, format="csr")


def destroy(dim):
    return sp.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")


def squeeze_generator(dim, coupling, m1=A, m2=B):
    ab = embed(destroy(dim), m1) @ embed(destroy(dim), m2)
    return coupling * ab.conj().T - np.conj(coupling) * ab


def splitter_generator(dim, theta, mode, env):
    """theta (m^dag e - m e^dag)."""
    m, e = embed(destroy(dim), mode), embed(destroy(dim), env)
    return theta * (m.conj().T @ e - m @ e.conj().T)


def reduced(psi):
    """rho of (a, b) with the environments traced out."""
    d = psi.shape[0]
    system = psi.reshape(d * d, -1)
    return system @ system.conj().T


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
        state = vacuum_state(5)
        assert state.amps.shape == (6, 1, 1)
        assert state.amps[0, 0, 0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    @pytest.mark.parametrize("lo_phase", [0.0, 0.8, np.pi / 2])
    def test_unit_quadrature_variance(self, lo_phase):
        # X_phi of a mode is X_0 of the mode rotated by -phi
        for mode in (0, 1):
            state = apply_phase_rotation(vacuum_state(6), mode, -lo_phase)
            assert quadrature_variance(state, mode) == pytest.approx(1.0, abs=1e-12)

    def test_zero_photons(self):
        assert mean_photon_number(vacuum_state(4), 1) == pytest.approx(0.0, abs=1e-14)


class TestTwoModeSqueezedVacuum:
    def test_schmidt_amplitudes(self):
        state = two_mode_squeezed_vacuum(R, n_max=40)
        n = np.arange(41)
        expected = np.tanh(R) ** n / np.cosh(R)
        psi = dense(state)[:, :, 0, 0]
        assert np.allclose(np.diagonal(psi), expected, atol=1e-12)
        off_diag = psi - np.diag(np.diagonal(psi))
        assert np.max(np.abs(off_diag)) == 0.0

    def test_matches_generator_exponential(self):
        direct = two_mode_squeezed_vacuum(R, theta=0.3, n_max=40)
        evolved = apply_two_mode_squeeze(vacuum_state(40), R, theta=0.3)
        assert abs(np.vdot(direct.amps, evolved.amps)) == pytest.approx(1.0, abs=1e-10)

    def test_arm_variance_and_photon_number(self):
        state = two_mode_squeezed_vacuum(R, n_max=40)
        for mode in (0, 1):
            assert quadrature_variance(state, mode) == pytest.approx(ARM_VAR, abs=1e-10)
            assert mean_photon_number(state, mode) == pytest.approx(
                MEAN_PHOTON, abs=1e-10
            )

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError, match="r must be non-negative"):
            apply_two_mode_squeeze(vacuum_state(4), -0.1)


def chain_generator(coupling, weights):
    m = len(weights) + 1
    k = np.zeros((m, m), dtype=complex)
    k[np.arange(1, m), np.arange(m - 1)] = coupling * weights
    k[np.arange(m - 1), np.arange(1, m)] = -np.conj(coupling) * weights
    return k


class TestChainBlocks:
    @pytest.mark.parametrize(
        "n_max, coupling, step",
        [(8, 0.6 * np.exp(0.4j), 1), (40, 2.08, 1),
         (160, math.acosh(math.sqrt(16.5)) * np.exp(0.7j), 9)],
        ids=["n8", "n40", "n160-paper"],
    )
    def test_squeezer_blocks_match_expm(self, n_max, coupling, step):
        """The block of |c| against expm of the signed chain-c generator,
        n_a from max(0, -c), for every c (at n_max 160, the paper's readout
        coupling acosh sqrt(16.5), every 9th c and the ends)."""
        for c in sorted({*range(-n_max, n_max + 1, step), -n_max + 1, n_max - 1, n_max}):
            n_a = np.arange(max(0, -c), n_max - max(0, c), dtype=float)
            k = chain_generator(coupling, np.sqrt((n_a + 1) * (n_a + 1 + c)))
            block = _squeeze_block(complex(coupling), n_max, abs(c))
            assert np.max(np.abs(block - expm(k))) < 1e-12, c

    @pytest.mark.parametrize(
        "n_max, theta",
        [(8, 0.3), (40, np.pi / 2), (160, np.pi / 2)],
        ids=["n8", "n40", "n160"],
    )
    def test_splitter_columns_match_expm(self, n_max, theta):
        """The binomial columns against the first column of exp of the chain
        generator; at n_max 160 every 10th photon number and the last."""
        cols = _splitter_columns(theta, n_max)
        assert cols.shape == (2 * n_max + 1, n_max + 1)
        for s in sorted({*range(0, n_max + 1, 1 if n_max <= 40 else 10), n_max}):
            n_e = np.arange(s, dtype=float)
            k = chain_generator(-theta, np.sqrt((n_e + 1) * (s - n_e)))
            assert np.max(np.abs(cols[s, : s + 1] - expm(k)[:, 0])) < 1e-12
            assert not np.any(cols[s, s + 1 :])
        assert not np.any(cols[n_max + 1 :])


class TestSqueezeOperation:
    def test_blocks_built_only_for_chains_in_the_store(self):
        """The prep squeeze on vacuum environments needs the chain c = 0
        only; a store with environments of M_a + 1 and M_b + 1 levels needs
        -M_b <= c <= M_a, one block for each pair of chains c and -c."""
        _squeeze_block.cache_clear()
        state = apply_two_mode_squeeze(vacuum_state(20), 0.2)
        assert _squeeze_block.cache_info().currsize == 1
        state = apply_loss(apply_loss(state, 0, 0.3), 1, 0.2)
        assert state.amps.shape == (21, 9, 8)
        apply_two_mode_squeeze(state, 0.2)
        assert _squeeze_block.cache_info().currsize == 8 + 1  # c = 0 is shared

    def test_edge_policing_on_repeated_squeezing(self):
        state = vacuum_state(16)
        state = apply_two_mode_squeeze(state, 0.6)
        with pytest.raises(TruncationError):
            apply_two_mode_squeeze(state, 0.6)

    @pytest.mark.parametrize(
        "n_max, envs",
        [(8, (True, True)), (6, (False, True)), (6, (True, False))],
        ids=["n8-both-envs", "n6-env-b", "n6-env-a"],
    )
    def test_chains_match_dense_generator(self, n_max, envs, monkeypatch):
        """The chain squeezer on a random Q = 0 store against expm_multiply
        of the generator on the dense 4-mode product space; the edge
        check is lifted because a random state fills the edge."""
        monkeypatch.setattr(fock, "EDGE_TOL", np.inf)
        dim = n_max + 1
        coupling = 0.6 * np.exp(0.4j)
        state = random_state(dim, envs)
        reference = expm_multiply(
            squeeze_generator(dim, coupling), dense(state).reshape(-1)
        ).reshape((dim,) * 4)
        out = apply_two_mode_squeeze(state, abs(coupling), np.angle(coupling))
        assert np.max(np.abs(dense(out) - reference)) < 1e-12

    def test_unitarity(self):
        state = apply_two_mode_squeeze(vacuum_state(30), 0.6)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-10)


class TestPhaseRotation:
    def test_pure_phases(self):
        state = two_mode_squeezed_vacuum(R, n_max=20)
        rotated = apply_phase_rotation(state, 0, 0.7)
        n = np.arange(21)[:, None, None]
        expected = state.amps * np.exp(1j * 0.7 * n)
        assert np.allclose(rotated.amps, expected, atol=1e-12) or np.allclose(
            rotated.amps, state.amps * np.exp(-1j * 0.7 * n), atol=1e-12
        )

    def test_mode_b_phase_follows_implied_number(self):
        state = random_state(7, (True, True), seed=3)
        rotated = apply_phase_rotation(state, 1, 0.9)
        n_b = np.arange(7)[None, :, None, None]
        assert np.max(np.abs(dense(rotated) - dense(state) * np.exp(0.9j * n_b))) < 1e-13

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
        assert quadrature_variance(out, 1) == pytest.approx(1.0, abs=1e-10)

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
        state = vacuum_state(4)
        with pytest.raises(ValueError):
            apply_loss(state, 0, loss)

    def test_one_loss_per_mode(self):
        state = apply_loss(two_mode_squeezed_vacuum(R, n_max=20), 0, 0.2)
        with pytest.raises(ValueError):
            apply_loss(state, 0, 0.2)

    @pytest.mark.parametrize("n_max", [1, 4, 8])
    @pytest.mark.parametrize("mode", [0, 1])
    @pytest.mark.parametrize("loss", [0.1, 0.5, 1.0])
    def test_reduced_state_matches_kraus_sum(self, n_max, mode, loss):
        """Tracing the environments out of the beam-splitter purification
        leaves the Kraus sum over E_k rho E_k^dag; the input carries the
        other arm's environment, so its (a, b) state is mixed."""
        envs = (mode == 1, mode == 0)
        state = random_state(n_max + 1, envs, seed=n_max)
        reference = kraus_loss(reduced(dense(state)), mode, 2, loss)
        out = apply_loss(state, mode, loss)
        assert out.amps.shape == (n_max + 1,) * 3
        assert np.max(np.abs(reduced(dense(out)) - reference)) < 1e-12


class TestTruncatedEnvironment:
    @pytest.mark.parametrize("mode", [0, 1])
    def test_matches_full_environment(self, mode, monkeypatch):
        """A loss keeps environment levels 0..M, M the lowest level from which
        the full environment (ENV_TOL 0 forces M = n_max) holds less than
        ENV_TOL, and the full store's amplitudes on those levels."""
        state = apply_two_mode_squeeze(vacuum_state(30), 0.4, 0.3)
        if mode == 1:
            state = apply_loss(state, 0, 0.3)
        cut, env_tol = apply_loss(state, mode, 0.6), fock.ENV_TOL
        monkeypatch.setattr(fock, "ENV_TOL", 0.0)
        full = apply_loss(state, mode, 0.6)
        assert full.amps.shape[1 + mode] == 31
        pop = np.sum(np.abs(full.amps) ** 2, axis=(0, 2 - mode))  # per environment level
        tail = np.cumsum(pop[::-1])[::-1]  # held from each level on
        m = np.flatnonzero(tail < env_tol)[0]
        assert m < 30
        kept = full.amps[:, : m + 1] if mode == 0 else full.amps[:, :, : m + 1]
        assert cut.amps.shape == kept.shape
        assert np.max(np.abs(cut.amps - kept)) < 1e-12

    @pytest.mark.parametrize("n", [1, 6, 8])
    def test_full_loss_keeps_one_level_past_n(self, n):
        """|n, n> under full loss puts all n photons of b into e_b, which
        holds nothing from level n + 1 on: it keeps levels 0..n + 1."""
        amps = np.zeros((2 * n + 1, 1, 1), dtype=complex)
        amps[n] = 1.0
        out = apply_loss(FockState(2 * n, amps), 1, 1.0)
        assert out.amps.shape == (2 * n + 1, 1, n + 2)
        assert abs(out.amps[n, 0, n]) == pytest.approx(1.0, abs=1e-15)

    def test_environment_edge_counted(self):
        amps = np.zeros((6, 3, 1), dtype=complex)
        amps[1, 2, 0] = 1.0  # n_ea = 2 is the last level of a 3-level environment
        assert edge_population(FockState(5, amps)) == pytest.approx(1.0, abs=1e-15)
        amps = np.zeros((6, 3, 3), dtype=complex)
        amps[1, 1, 1] = 1.0
        assert edge_population(FockState(5, amps)) == 0.0

    def test_environment_longer_than_modes_rejected(self):
        with pytest.raises(ValueError, match="inconsistent with n_max"):
            FockState(4, np.ones((5, 6, 1), dtype=complex) / np.sqrt(30))


class TestPairCorrelation:
    def test_two_mode_squeezed_vacuum(self):
        # <ab> = e^{i theta} sinh r cosh r
        state = apply_two_mode_squeeze(vacuum_state(40), R, 0.7)
        expected = np.exp(0.7j) * math.sinh(R) * math.cosh(R)
        assert abs(pair_correlation(state) - expected) < 1e-12

    @pytest.mark.parametrize("envs", [(False, False), (True, False), (True, True)])
    def test_matches_dense_operator(self, envs):
        dim = 7
        state = random_state(dim, envs, seed=5)
        psi = dense(state).reshape(-1)
        ab = embed(destroy(dim), A) @ embed(destroy(dim), B)
        assert abs(pair_correlation(state) - np.vdot(psi, ab @ psi)) < 1e-13


class TestDenseReference:
    @pytest.mark.parametrize(
        "order",
        [("sq", "la", "lb", "rot_a", "sq2"), ("sq", "lb", "rot_b", "la", "sq2")],
        ids=["battery-order", "b-first"],
    )
    def test_circuit_matches_dense_contraction(self, order):
        """A lossy circuit through the store against the same circuit as
        dense generators on the 4-mode product space at n_max 8."""
        n_max, dim = 8, 9
        number = destroy(dim).T @ destroy(dim)
        steps = {
            "sq": (
                lambda s: apply_two_mode_squeeze(s, 0.2, 0.3),
                squeeze_generator(dim, 0.2 * np.exp(0.3j)),
            ),
            "sq2": (
                lambda s: apply_two_mode_squeeze(s, 0.15, -0.5),
                squeeze_generator(dim, 0.15 * np.exp(-0.5j)),
            ),
            "la": (
                lambda s: apply_loss(s, 0, 0.3),
                splitter_generator(dim, np.arcsin(np.sqrt(0.3)), A, EA),
            ),
            "lb": (
                lambda s: apply_loss(s, 1, 0.6),
                splitter_generator(dim, np.arcsin(np.sqrt(0.6)), B, EB),
            ),
            "rot_a": (lambda s: apply_phase_rotation(s, 0, 1.1), 1.1j * embed(number, A)),
            "rot_b": (lambda s: apply_phase_rotation(s, 1, -0.7), -0.7j * embed(number, B)),
        }
        state = vacuum_state(n_max)
        psi = dense(state).reshape(-1)
        for name in order:
            op, generator = steps[name]
            state = op(state)
            psi = expm_multiply(generator, psi)
        assert np.max(np.abs(dense(state).reshape(-1) - psi)) < 1e-12
        for mode in (0, 1):
            other = tuple(ax for ax in range(4) if ax != mode)
            pop = np.sum(np.abs(psi.reshape((dim,) * 4)) ** 2, axis=other)
            n = np.arange(dim)
            expected = (2 * n + 1) @ pop - dim * pop[-1]
            assert quadrature_variance(state, mode) == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_unitary_norm_drift_is_numerical_error(self):
        amps = vacuum_state(4).amps * 1.01
        with pytest.raises(NumericalError, match="probe drifted the norm"):
            fock._unitary_result(4, amps, "probe")

    def test_result_views_the_computed_array(self):
        amps = vacuum_state(4).amps.copy()
        state = fock._unitary_result(4, amps, "probe")
        assert np.shares_memory(state.amps, amps)
        assert not state.amps.flags.writeable

    def test_callers_array_stays_writeable(self):
        amps = np.zeros((5, 1, 1), dtype=complex)
        amps[0] = 1.0
        state = FockState(4, amps)
        assert amps.flags.writeable and not state.amps.flags.writeable
        assert np.shares_memory(state.amps, amps)

    def test_norm_enforced(self):
        amps = np.zeros((5, 1, 1), dtype=complex)
        amps[0] = 0.5
        with pytest.raises(ValueError):
            FockState(4, amps)

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="state norm nan"):
            FockState(4, np.full((5, 1, 1), np.nan, dtype=complex))
        with pytest.raises(NumericalError, match="probe drifted the norm to nan"):
            fock._unitary_result(4, np.full((5, 1, 1), np.nan, dtype=complex), "probe")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # each id is the one pytest first generated, fixed so that deleting a case renames no other
    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda x: apply_two_mode_squeeze(vacuum_state(10), x), "r", id="<lambda>-r"),
        pytest.param(lambda x: apply_two_mode_squeeze(vacuum_state(10), 0.1, x), "theta",
                     id="<lambda>-theta"),
        pytest.param(lambda x: apply_phase_rotation(two_mode_squeezed_vacuum(0.1, n_max=10), 0, x),
                     "phi", id="<lambda>-phi0"),
        pytest.param(lambda x: apply_phase_rotation(two_mode_squeezed_vacuum(0.1, n_max=10), 1, x),
                     "phi", id="<lambda>-phi1"),
    ])
    def test_non_finite_parameter_rejected(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
            call(bad)

    @pytest.mark.parametrize("mode", [2, -1, 1.0, True, np.True_])
    @pytest.mark.parametrize("call", [
        lambda state, mode: apply_loss(state, mode, 0.1),
        lambda state, mode: apply_phase_rotation(state, mode, 0.3),
        quadrature_variance,
        mean_photon_number,
    ], ids=["loss", "rotation", "variance", "photons"])
    def test_every_mode_index_has_one_check(self, call, mode):
        """Out of range, or not an integer (a bool is not one)."""
        state = two_mode_squeezed_vacuum(0.1, n_max=10)
        with pytest.raises(ValueError, match=rf"^mode index must be 0 or 1, got {mode!r}$"):
            call(state, mode)

    def test_numpy_integer_mode_index_accepted(self):
        state = apply_loss(two_mode_squeezed_vacuum(0.1, n_max=10), np.int64(1), 0.5)
        assert quadrature_variance(state, np.int32(1)) == quadrature_variance(state, 1)

    @pytest.mark.parametrize("n_max", [True, 4.0, 0, -2])
    @pytest.mark.parametrize("build", [
        vacuum_state,
        lambda n_max: FockState(n_max, vacuum_state(max(int(n_max), 1)).amps),
    ], ids=["vacuum", "state"])
    def test_truncation_must_be_a_positive_integer(self, build, n_max):
        """One check for the state and its builder; a bool is not an integer."""
        with pytest.raises(ValueError, match=rf"^n_max must be an integer >= 1, got {n_max!r}$"):
            build(n_max)

    def test_numpy_integer_truncation_accepted(self):
        assert vacuum_state(np.int64(4)).amps.shape == (5, 1, 1)

    def test_sector_enforced(self):
        amps = np.zeros((5, 5, 5), dtype=complex)
        amps[0, 0, 1] = 1.0  # n_b = -1
        with pytest.raises(ValueError):
            FockState(4, amps)

    def test_edge_population_of_small_state(self):
        assert edge_population(vacuum_state(3)) == pytest.approx(0.0, abs=1e-14)
        state = two_mode_squeezed_vacuum(0.3, n_max=25)
        assert edge_population(state) < 1e-12

    def test_edge_population_counts_implied_mode(self):
        amps = np.zeros((5, 5, 5), dtype=complex)
        amps[1, 3, 0] = 1.0  # n_a = 1, n_ea = 3, n_eb = 0: only n_b = 4 is at the edge
        assert edge_population(FockState(4, amps)) == pytest.approx(1.0, abs=1e-15)
