"""Unit tests for the Gaussian covariance-matrix engine."""

import math

import numpy as np
import pytest

from ramansim.gaussian import (
    SQUEEZER_GAIN_MAX,
    SYMPLECTIC_ATOL,
    GaussianState,
    SymplecticOp,
    apply_loss,
    apply_symplectic,
    displacement,
    homodyne_variance,
    mean_amplitude,
    mean_photon_number,
    phase_shift,
    _attenuate,
    _coupling,
    _is_symplectic,
    _squeezer_matrix,
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
        for n_modes in (0, -1, True, 2.0, np.float64(1.0), "2"):
            with pytest.raises(ValueError, match=r"^n_modes must be an integer >= 1, got "):
                vacuum(n_modes)
        assert vacuum(np.int64(2)).n_modes == 2


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

    @pytest.mark.parametrize("gain", [0.5, np.nan, 3000.0, 4000.0, 1e8, 1e200, np.inf])
    def test_gain_beyond_working_precision_is_range_error(self, gain):
        """The op and the cascade kernel share one range rule, checked before
        anything is built, so no RuntimeWarning."""
        with pytest.raises(ValueError, match=r"^gain .* is out of range"):
            two_mode_squeezer(0, 1, gain)

    @pytest.mark.parametrize("pump_phase", [0.0, 0.3, 1.0, 2.5, np.pi / 2])
    def test_accepted_gains_are_one_range_of_symplectic_builds(self, pump_phase):
        """G swept geometrically over [1, 2e4]: exactly the gains up to
        SQUEEZER_GAIN_MAX are accepted, and each of them builds a matrix that
        passes the symplectic check."""
        top = np.nextafter(SQUEEZER_GAIN_MAX, np.inf)
        gains = np.sort(np.concatenate([np.geomspace(1.0, 2e4, 2001), [SQUEEZER_GAIN_MAX, top]]))
        accepted = []
        for gain in gains:
            try:
                accepted.append(_is_symplectic(_squeezer_matrix(gain, pump_phase, "gain")))
            except ValueError:
                accepted.append(False)
        assert np.array_equal(accepted, gains <= SQUEEZER_GAIN_MAX)
        assert 949.0 < SQUEEZER_GAIN_MAX < 949.1


class TestBroadcastBuildsAgainstEntrywise:
    """The cascade kernel's squeezer and loss builds against the entry-by-entry
    forms they replace, on random stacks."""

    @staticmethod
    def entrywise_squeezer(gain, pump_phase):
        gain = np.asarray(gain, dtype=float)
        c, s = np.cos(pump_phase), np.sin(pump_phase)
        mat = np.zeros(gain.shape + (4, 4))
        mat[..., range(4), range(4)] = gain[..., None]
        g = np.sqrt(gain * gain - 1.0)
        mat[..., :2, 2:] = mat[..., 2:, :2] = g[..., None, None] * np.array([[c, s], [s, -c]])
        return mat

    def test_squeezer_matrix_bit_for_bit(self):
        rng = np.random.default_rng(4101)
        for shape in [(), (5,), (3, 4)]:
            for _ in range(100):
                gain = 1.0 + 10.0 ** rng.uniform(-12.0, np.log10(SQUEEZER_GAIN_MAX - 1.0), size=shape)
                pump_phase = rng.uniform(-2.0 * np.pi, 2.0 * np.pi)
                got = _squeezer_matrix(gain, pump_phase, "gain")
                want = self.entrywise_squeezer(gain, pump_phase)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # at gain 1 only the sign of a zero coupling entry may differ
        for pump_phase in (0.0, 2.0, np.pi):
            assert np.array_equal(_squeezer_matrix([1.0, 1.0], pump_phase, "gain"),
                                  self.entrywise_squeezer([1.0, 1.0], pump_phase))

    def test_attenuate_takes_any_memory_order(self):
        """The loss goes on the diagonal through a flat view of the result, so
        Fortran-ordered covs, a transposed stack and a state built from one
        attenuate as their C-ordered copies do."""
        rng = np.random.default_rng(4104)
        a = rng.normal(size=(3, 4, 4))
        cov = a @ np.swapaxes(a, -1, -2) + np.eye(4)
        loss = np.array([0.2, 0.2, 1.0, 0.0])
        for other in (np.asfortranarray(cov[0]), np.swapaxes(cov, -1, -2), np.asfortranarray(cov)):
            want = _attenuate(None, np.ascontiguousarray(other), loss)[1]
            assert np.array_equal(_attenuate(None, other, loss)[1], want)
        state = GaussianState(np.zeros(4), np.asfortranarray(cov[1]))
        assert np.array_equal(apply_loss(state, 0, 0.3).cov,
                              apply_loss(GaussianState(np.zeros(4), cov[1]), 0, 0.3).cov)

    def test_cached_coupling_is_read_only_and_keeps_every_bit(self):
        """P(theta) comes from a cache keyed on float(pump_phase).  The cached
        array cannot be written; signed zeros, NumPy scalars and more distinct
        phases than the cache holds (each phase built, evicted and rebuilt)
        give the entry-by-entry squeezer bit for bit."""
        _coupling.cache_clear()
        with pytest.raises(ValueError, match="read-only"):
            _coupling(0.3)[0, 2] = 1.0
        gains = np.array([1.0, 1.0 + 1e-9, 1.5, 30.0, SQUEEZER_GAIN_MAX])
        for first, second in ((0.0, -0.0), (-0.0, 0.0), (np.float64(-0.0), 0.0)):
            _coupling.cache_clear()
            one, two = (_squeezer_matrix(gains, phase, "gain") for phase in (first, second))
            assert np.array_equal(one.view(np.uint64), two.view(np.uint64))
        phases = np.random.default_rng(4103).uniform(-np.pi, np.pi, 3 * _coupling.cache_info().maxsize)
        for _ in range(2):
            for phase in phases:
                got = _squeezer_matrix(gains[1:], np.float64(phase), "gain")
                want = self.entrywise_squeezer(gains[1:], phase)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert _coupling.cache_info().currsize == _coupling.cache_info().maxsize

    def test_attenuate_matches_fancy_index(self):
        rng = np.random.default_rng(4102)
        for n_quad in (2, 4, 6):
            for shape in [(), (7,)]:
                a = rng.normal(size=shape + (n_quad, n_quad))
                cov = a @ np.swapaxes(a, -1, -2) + np.eye(n_quad)
                mean = rng.normal(size=shape + (n_quad,))
                loss = np.where(rng.random(n_quad) < 0.2, rng.integers(2, size=n_quad),
                                rng.random(n_quad))
                scale = np.sqrt(1.0 - loss)
                want = cov * scale[..., :, None] * scale[..., None, :]
                want[..., range(n_quad), range(n_quad)] += loss
                got_mean, got_cov = _attenuate(mean, cov, loss)
                np.testing.assert_array_max_ulp(got_cov, want, maxulp=1)
                np.testing.assert_array_max_ulp(got_mean, mean * scale, maxulp=1)


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
        state = apply_loss(tmsv_state(0.5), 0, 0.5)
        assert homodyne_variance(state, 0) == pytest.approx(
            0.5 * R_HALF_ARM_VAR + 0.5, abs=1e-12
        )
        assert homodyne_variance(state, 1) == pytest.approx(R_HALF_ARM_VAR, abs=1e-12)

    def test_full_loss_resets_to_vacuum(self):
        state = apply_loss(tmsv_state(0.5), 0, 1.0)
        assert homodyne_variance(state, 0, 0.4) == pytest.approx(1.0, abs=1e-12)
        assert mean_photon_number(state, 0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_loss_is_identity(self):
        before = tmsv_state(0.5)
        after = apply_loss(before, 1, 0.0)
        assert np.allclose(after.cov, before.cov, atol=1e-15)

    def test_attenuates_mean(self):
        state = apply_symplectic(vacuum(1), displacement(0, 2.0))
        state = apply_loss(state, 0, 0.75)
        assert mean_amplitude(state, 0) == pytest.approx(1.0, abs=1e-12)

    def test_lossy_state_stays_physical(self):
        state = apply_loss(tmsv_state(0.9), 0, 0.3)
        assert state.is_physical()
        assert np.all(symplectic_eigenvalues(state.cov) >= 1.0 - 1e-9)

    @pytest.mark.parametrize("loss", [-0.1, 1.1, np.nan])
    def test_loss_range_validation(self, loss):
        with pytest.raises(ValueError, match="loss must be within"):
            apply_loss(tmsv_state(0.5), 0, loss)


class TestStateAndOpValidation:
    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymplecticOp(2.0 * np.eye(4))
        with pytest.raises(ValueError, match="square with even dimension"):
            SymplecticOp(np.eye(4)[:2])
        with pytest.raises(ValueError, match="displacement length must match"):
            SymplecticOp(np.eye(4), np.zeros(2))

    @pytest.mark.parametrize("mean, cov, message", [
        (np.zeros(3), np.eye(3), "flat vector of even length"),
        (np.zeros(2), np.eye(4), r"cov shape \(4, 4\) does not match mean length 2"),
        (np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]), "cov must be symmetric"),
    ])
    def test_inconsistent_moments_rejected(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            GaussianState(mean, cov)

    def test_op_and_state_mode_counts_must_match(self):
        with pytest.raises(ValueError, match="op acts on 2 modes but state has 1"):
            apply_symplectic(vacuum(1), two_mode_squeezer(0, 1, 1.5))

    def test_scaled_identity_below_vacuum_unphysical(self):
        state = GaussianState(np.zeros(2), 0.5 * np.eye(2))
        assert not state.is_physical()

    def test_homodyne_mode_bounds(self):
        with pytest.raises(ValueError):
            homodyne_variance(vacuum(1), 1)

    @pytest.mark.parametrize("lo_phase", [np.nan, np.inf, -np.inf])
    def test_non_finite_lo_phase_rejected(self, lo_phase):
        with pytest.raises(ValueError, match=f"^lo_phase must be finite, got {lo_phase}$"):
            homodyne_variance(vacuum(1), 0, lo_phase)

    # each id is the one pytest first generated, fixed so that deleting a case renames no other
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: two_mode_squeezer(-1, 1, 1.5), id="<lambda>0"),
        pytest.param(lambda: two_mode_squeezer(0, 2, 1.5, n_modes=2), id="<lambda>1"),
        pytest.param(lambda: phase_shift(-1, 0.3), id="<lambda>2"),
        pytest.param(lambda: phase_shift(2, 0.3, n_modes=2), id="<lambda>3"),
        pytest.param(lambda: displacement(-1, 1.0), id="<lambda>4"),
        pytest.param(lambda: displacement(1, 1.0, n_modes=1), id="<lambda>5"),
        pytest.param(lambda: apply_loss(vacuum(2), 2, 0.1), id="<lambda>6"),
        pytest.param(lambda: homodyne_variance(vacuum(2), -1), id="<lambda>7"),
        pytest.param(lambda: mean_amplitude(vacuum(1), 1), id="<lambda>8"),
        pytest.param(lambda: mean_photon_number(vacuum(2), -1), id="<lambda>9"),
        pytest.param(lambda: apply_loss(vacuum(2), 1.0, 0.1), id="<lambda>10"),
        pytest.param(lambda: phase_shift(1.0, 0.3), id="<lambda>11"),
        pytest.param(lambda: two_mode_squeezer(0, 1.0, 1.5), id="<lambda>12"),
        pytest.param(lambda: apply_loss(vacuum(2), True, 0.1), id="<lambda>13"),
        pytest.param(lambda: homodyne_variance(vacuum(2), True), id="<lambda>14"),
        pytest.param(lambda: displacement(True, 1.0), id="<lambda>15"),
    ])
    def test_every_mode_index_has_one_check(self, call):
        """Out of range, or not an integer (a bool is not one)."""
        with pytest.raises(ValueError, match=r"mode indices \(.*\) must "
                                             r"(lie within \[0, \d\)|be integers)$"):
            call()

    def test_numpy_integer_mode_index_accepted(self):
        state = apply_loss(vacuum(2), np.int64(1), 1.0)
        assert homodyne_variance(state, np.int32(1)) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_rejected(self, bad):
        with pytest.raises(ValueError, match=f"mean must be finite, got {bad}"):
            GaussianState([0.0, bad], np.eye(2))
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match=f"cov must be finite, got {bad}"):
            GaussianState(np.zeros(2), cov)
        with pytest.raises(ValueError, match=f"displacement must be finite, got {bad}"):
            SymplecticOp(np.eye(2), [bad, 0.0])
        with pytest.raises(ValueError, match="displacement must be finite"):
            apply_symplectic(vacuum(1), displacement(0, complex(bad, 0.0)))

    def test_moments_stay_read_only_copies(self):
        mean, cov = np.zeros(2), np.eye(2)
        state = GaussianState(mean, cov)
        mean[0] = cov[0, 0] = 5.0
        assert np.array_equal(state.mean, np.zeros(2)) and np.array_equal(state.cov, np.eye(2))
        assert not (state.mean.flags.writeable or state.cov.flags.writeable)
        op = displacement(0, 1.0)
        assert not (op.matrix.flags.writeable or op.displacement.flags.writeable)

    def test_symplectic_eigenvalues_of_vacuum(self):
        assert symplectic_eigenvalues(np.eye(6)) == pytest.approx([1.0, 1.0, 1.0])
