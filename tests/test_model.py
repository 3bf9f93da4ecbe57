"""Unit tests for the cascade model and closed-form noise expressions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import ramansim.gaussian as gaussian
import ramansim.model as model
from ramansim.model import (
    AmplifierParams,
    CascadeScenario,
    ChannelParams,
    FringeTrace,
    HarmonicFitError,
    NoiseTrace,
    _cascade_moments,
    _harmonic_min,
    build_cascade,
    closed_form_noise_reduction,
    correlation_estimate_from_ratio,
    db_to_linear,
    fringe_scan,
    fringe_visibility,
    gain_ratio_from_quantum_gain,
    joint_quadrature_variance,
    linear_to_db,
    min_noise_over_phase,
    noise_reduction_coefficients,
    noise_reduction_regressors,
    noise_vs_phase,
    prep_gain_sweep,
    quantum_gain_sweep,
    reference_variance,
)
from ramansim.gaussian import (
    apply_loss,
    apply_symplectic,
    displacement,
    homodyne_variance,
    phase_shift,
    two_mode_squeezer,
    vacuum,
)

# frozen reference values for the mu = 1.17, L1 = L2 = 0.1, gq = 32 scenario
HEADLINE_R = 0.38552058689655255
HEADLINE_X_PLUS = 0.7697917240107415


def forms(value):
    """``value`` as a Python float, an np.float64 and a one-element array."""
    return [float(value), np.float64(value), np.array([value])]


def scenario(mu=1.17, gq=32.0, l1=0.1, l2=0.1, phi=0.0, out=0.0, seed=0j):
    return CascadeScenario(
        AmplifierParams(mu),
        AmplifierParams.from_quantum_gain(gq),
        ChannelParams(l1, l2, phi, out),
        seed_amplitude=seed,
    )


def analytic_variance(mu, gq, l1, l2, phi, out=0.0):
    """Independent evaluation of the cascade output variance."""
    nu = math.sqrt(mu * mu - 1.0)
    g_cap = math.sqrt((gq + 1.0) / 2.0)
    g_small = math.sqrt(g_cap * g_cap - 1.0)
    t1, t2 = 1.0 - l1, 1.0 - l2
    coherent = abs(g_cap * math.sqrt(t1) * nu * np.exp(1j * phi) + g_small * math.sqrt(t2) * mu) ** 2
    var = 1.0 + 2.0 * (coherent + g_small * g_small * l2)
    return (1.0 - out) * var + out


class TestUnitConversions:
    def test_db_round_trip(self):
        for v in (0.5, 1.0, 31.6227766):
            assert db_to_linear(linear_to_db(v)) == pytest.approx(v, rel=1e-12)

    def test_reference_points(self):
        assert linear_to_db(10.0) == pytest.approx(10.0, abs=1e-12)
        assert linear_to_db(1.0) == 0.0


class TestAmplifierParams:
    def test_quantum_gain_round_trip(self):
        params = AmplifierParams.from_quantum_gain(32.0)
        assert params.quantum_noise_gain == pytest.approx(32.0, abs=1e-12)
        assert params.gain == pytest.approx(math.sqrt(16.5), abs=1e-12)
        assert params.cross_gain == pytest.approx(
            math.sqrt(params.gain**2 - 1.0), abs=1e-12
        )

    def test_db_constructor(self):
        params = AmplifierParams.from_quantum_gain_db(15.0)
        assert params.quantum_noise_gain == pytest.approx(10**1.5, abs=1e-10)

    def test_db_overflow_is_rejected_without_warning(self):
        # 10^(1e299) overflows to inf, which the finite-gain check refuses;
        # a RuntimeWarning would be an error under the test settings
        with pytest.raises(ValueError, match="finite"):
            AmplifierParams.from_quantum_gain_db(1e300)

    @pytest.mark.parametrize("gain", [0.99, np.nan, np.inf])
    def test_gain_validation(self, gain):
        with pytest.raises(ValueError):
            AmplifierParams(gain)

    @pytest.mark.parametrize("phase", [np.nan, np.inf])
    def test_pump_phase_validation(self, phase):
        with pytest.raises(ValueError, match="pump_phase must be finite"):
            AmplifierParams(1.2, phase)


class TestGainRatio:
    def test_quoted_value(self):
        assert gain_ratio_from_quantum_gain(32.0) == pytest.approx(0.969, abs=1e-3)

    def test_limits(self):
        assert gain_ratio_from_quantum_gain(1.0) == 0.0
        assert gain_ratio_from_quantum_gain(np.inf) == 1.0

    def test_vector_input(self):
        out = gain_ratio_from_quantum_gain(np.array([1.0, 3.0, np.inf]))
        assert out == pytest.approx([0.0, math.sqrt(0.5), 1.0], abs=1e-12)

    def test_validation(self):
        for bad in (0.5, np.nan, -np.inf):
            for gq in forms(bad) + [np.array([2.0, bad])]:
                with pytest.raises(ValueError, match=r"^quantum_gain must be >= 1$"):
                    gain_ratio_from_quantum_gain(gq)


class TestCascadePipeline:
    @pytest.mark.parametrize(
        "mu,gq,l1,l2,phi,out",
        [
            (1.0, 32.0, 0.0, 0.0, 0.0, 0.0),
            (1.17, 32.0, 0.1, 0.1, np.pi, 0.0),
            (1.5, 8.0, 0.2, 0.3, 1.1, 0.0),
            (2.0, 100.0, 0.05, 0.4, np.pi, 0.25),
            (1.3, 2.0, 0.6, 0.0, 2.2, 0.4),
        ],
    )
    def test_matches_analytic_variance(self, mu, gq, l1, l2, phi, out):
        sc = scenario(mu, gq, l1, l2, phi, out)
        assert homodyne_variance(build_cascade(sc), 0, 0.0) == pytest.approx(
            analytic_variance(mu, gq, l1, l2, phi, out), abs=1e-10
        )

    def test_unprepared_input_gives_reference_noise(self):
        for phi in (0.0, 0.9, np.pi):
            sc = scenario(mu=1.0, phi=phi)
            assert homodyne_variance(build_cascade(sc), 0, 0.0) == pytest.approx(
                32.0, abs=1e-10
            )
        assert reference_variance(scenario(mu=1.0)) == pytest.approx(32.0, abs=1e-12)

    def test_output_stokes_variance_is_lo_phase_insensitive(self):
        sc = scenario(phi=np.pi)
        for lo_phase in (0.0, 0.5, np.pi / 2):
            assert homodyne_variance(build_cascade(sc), 0, lo_phase) == pytest.approx(
                homodyne_variance(build_cascade(sc), 0, 0.0), abs=1e-10
            )

    def test_aligned_lossless_cancels_to_vacuum(self):
        # equal prep/readout gains with a pi phase between the stages
        # return the measured arm exactly to vacuum variance
        sc = CascadeScenario(AmplifierParams(math.cosh(0.5)), AmplifierParams(math.cosh(0.5)),
                             ChannelParams(scan_phase=np.pi))
        assert homodyne_variance(build_cascade(sc), 0) == pytest.approx(1.0, abs=1e-12)

    def test_build_cascade_returns_two_mode_state(self):
        state = build_cascade(scenario())
        assert state.n_modes == 2
        assert state.is_physical()
        assert homodyne_variance(state, 0) == pytest.approx(
            analytic_variance(1.17, 32.0, 0.1, 0.1, 0.0), abs=1e-10
        )


def engine_chain(sc, phi):
    """The cascade op by op through the public engine at scan phase
    ``phi``, the reference for the broadcasting kernel."""
    ch = sc.channel
    state = apply_symplectic(vacuum(2), displacement(0, sc.seed_amplitude, n_modes=2))
    state = apply_symplectic(state, two_mode_squeezer(0, 1, sc.prep.gain, sc.prep.pump_phase))
    state = apply_loss(state, 0, ch.loss_stokes)
    state = apply_loss(state, 1, ch.loss_spinwave)
    state = apply_symplectic(state, phase_shift(0, phi, n_modes=2))
    state = apply_symplectic(state, two_mode_squeezer(0, 1, sc.readout.gain, sc.readout.pump_phase))
    return apply_loss(state, 0, ch.output_loss)


def random_scenario(rng):
    """Pump phases on both stages, a coherent seed, gq up to 1e6; each loss
    is exactly 0 or 1 in about one draw of seven each."""
    l1, l2, out = np.clip(rng.uniform(-0.2, 1.2, size=3), 0.0, 1.0)
    return CascadeScenario(
        AmplifierParams(1.0 + 1.5 * rng.random(), rng.uniform(-np.pi, np.pi)),
        AmplifierParams.from_quantum_gain(10.0 ** rng.uniform(0.0, 6.0),
                                          rng.uniform(-np.pi, np.pi)),
        ChannelParams(l1, l2, rng.uniform(0.0, 2.0 * np.pi), out),
        seed_amplitude=complex(*rng.normal(size=2)),
    )


def assert_moments_close(mean, cov, state):
    for got, ref in ((mean, state.mean), (cov, state.cov)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestCascadeKernel:
    def test_matches_engine_op_chain(self):
        rng = np.random.default_rng(4096)
        for _ in range(250):
            sc = random_scenario(rng)
            mean, cov = _cascade_moments(sc, sc.channel.scan_phase)
            assert mean.shape == (4,) and cov.shape == (4, 4)
            assert_moments_close(mean, cov, engine_chain(sc, sc.channel.scan_phase))

    def test_batched_call_matches_point_by_point(self):
        """A phase array against the engine point by point, for readout
        gains from 1 to 700, each through its own scenario."""
        rng = np.random.default_rng(8192)
        base = random_scenario(rng)
        phis = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        for gain in (1.0, 1.3, 7.0, 700.0):
            sc = replace(
                base, readout=AmplifierParams(gain, base.readout.pump_phase))
            mean, cov = _cascade_moments(sc, phis)
            assert mean.shape == (5, 4) and cov.shape == (5, 4, 4)
            for j, phi in enumerate(phis):
                assert_moments_close(mean[j], cov[j], engine_chain(sc, phi))


class TestNoiseScan:
    def test_trace_shape_and_db(self):
        trace = noise_vs_phase(scenario(), 64)
        assert trace.values == pytest.approx(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
        assert trace.values.shape == (64,)
        assert trace.variance_db == pytest.approx(10 * np.log10(trace.variance_linear))

    def test_minimum_at_pi(self):
        phi_min, var_min = min_noise_over_phase(scenario())
        assert phi_min == pytest.approx(np.pi, abs=1e-5)
        assert var_min == pytest.approx(
            analytic_variance(1.17, 32.0, 0.1, 0.1, np.pi), abs=1e-9
        )

    def test_minimum_not_above_any_grid_sample(self):
        sc = scenario(mu=1.4, gq=12.0, l1=0.3, l2=0.05)
        trace = noise_vs_phase(sc, 301)
        _, var_min = min_noise_over_phase(sc)
        assert var_min <= trace.variance_linear.min() + 1e-12

    def test_minimum_matches_dense_trace_on_random_scenarios(self):
        """The five-sample fit against the search it replaced: a dense
        trace, refined by a bounded scalar search on the full pipeline."""
        rng = np.random.default_rng(2507)
        for _ in range(20):
            sc = CascadeScenario(
                AmplifierParams(1.0 + 1.5 * rng.random(), rng.uniform(-np.pi, np.pi)),
                AmplifierParams.from_quantum_gain(
                    10.0 ** rng.uniform(0.02, 2.5), rng.uniform(-np.pi, np.pi)
                ),
                ChannelParams(0.9 * rng.random(), 0.9 * rng.random(), 0.0,
                              rng.uniform(0.05, 0.9)),
                seed_amplitude=complex(*rng.normal(size=2)),
            )
            trace = noise_vs_phase(sc, 128)
            _, var_min = min_noise_over_phase(sc)
            assert np.all(var_min <= trace.variance_linear * (1.0 + 1e-12))

            i = int(np.argmin(trace.variance_linear))
            step = trace.values[1] - trace.values[0]
            refined = minimize_scalar(
                lambda phi: homodyne_variance(
                    build_cascade(replace(sc, channel=replace(sc.channel, scan_phase=phi))),
                    0,
                    0.0,
                ),
                bounds=(trace.values[i] - step, trace.values[i] + step),
                method="bounded",
                options={"xatol": 1e-10},
            )
            assert var_min == pytest.approx(refined.fun, rel=1e-9)

    def test_balanced_lossless_cascade_reaches_vacuum(self):
        sc = CascadeScenario(
            AmplifierParams(math.sqrt(2.0)),
            AmplifierParams(math.sqrt(2.0)),
            ChannelParams(),
        )
        _, var_min = min_noise_over_phase(sc)
        assert var_min == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_points", [1, 0, -3, 3.0, np.float64(4.0), True, "8"])
    def test_scans_take_an_integer_point_count_of_two_or_more(self, n_points):
        sc = scenario(seed=1.0 + 0j)
        for scan in (noise_vs_phase, fringe_scan):
            with pytest.raises(ValueError, match=r"^n_points must be an integer >= 2, got "):
                scan(sc, n_points)

    def test_scans_accept_a_numpy_integer_point_count(self):
        sc = scenario(seed=1.0 + 0j)
        np.testing.assert_array_equal(noise_vs_phase(sc, np.int64(16)).values,
                                      noise_vs_phase(sc, 16).values)
        np.testing.assert_array_equal(fringe_scan(sc, np.int32(2)).phases, [0.0, np.pi])


def interstage_covariance(stokes_block, cross_block, spinwave_block):
    """A 4x4 covariance from its Stokes, cross and spin-wave 2x2 blocks."""
    cross = np.asarray(cross_block, dtype=float)
    return np.block([[np.asarray(stokes_block, dtype=float), cross],
                     [cross.T, np.asarray(spinwave_block, dtype=float)]])


class TestFirstHarmonicMin:
    """_harmonic_min on a prescribed inter-stage covariance.  The readout
    row is (sqrt 2, 0, 1, 0), so with C_aa = I and C_bb = 3 I the trace is
    V = 5 + 2 sqrt 2 (w0 cos(phi) - w1 sin(phi)) for the cross column w."""

    READOUT = CascadeScenario(AmplifierParams(1.0), AmplifierParams(math.sqrt(2.0)))

    def harmonic_min(self, monkeypatch, cov):
        monkeypatch.setattr(model, "_interstage_moments", lambda sc, mu: (None, cov))
        return _harmonic_min(self.READOUT, 1.0, self.READOUT.readout.gain)

    def test_recovers_minimum_and_phase(self, monkeypatch):
        # 5 + 3 cos(phi - 1)
        w = 1.5 / math.sqrt(2.0) * np.array([math.cos(1.0), -math.sin(1.0)])
        cov = interstage_covariance(np.eye(2), [[w[0], 0.0], [w[1], 0.0]], 3.0 * np.eye(2))
        phi_min, var_min = self.harmonic_min(monkeypatch, cov)
        assert var_min == pytest.approx(2.0, abs=1e-12)
        assert phi_min == pytest.approx(1.0 + np.pi, abs=1e-12)

    def test_second_harmonic_raises(self, monkeypatch):
        # an anisotropic Stokes block: 5 + 3 cos(phi) + 1e-6 cos(2 phi)
        w = 1.5 / math.sqrt(2.0)
        cov = interstage_covariance(np.diag([1.0 + 5e-7, 1.0 - 5e-7]),
                                    [[w, 0.0], [0.0, 0.0]], 3.0 * np.eye(2))
        with pytest.raises(HarmonicFitError, match="not a first harmonic"):
            self.harmonic_min(monkeypatch, cov)

    def test_non_finite_sample_raises(self, monkeypatch):
        cov = interstage_covariance(np.eye(2), [[np.nan, 0.0], [0.0, 0.0]], np.eye(2))
        with pytest.raises(HarmonicFitError):
            self.harmonic_min(monkeypatch, cov)


def five_sample_min(sc):
    """The phase minimum from five samples of the full cascade kernel and
    their DFT: the slow path that _harmonic_min replaces.  Returns
    (phi_min, minimum, hypot(b, c), a)."""
    phis = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
    v = _cascade_moments(sc, phis)[1][:, 0, 0]
    coeffs = np.fft.rfft(v) / 5.0
    assert 2.0 * abs(coeffs[2]) <= 1e-10 * np.max(np.abs(v))
    a, b, c = coeffs[0].real, 2.0 * coeffs[1].real, -2.0 * coeffs[1].imag
    return math.atan2(-c, -b) % (2.0 * np.pi), a - math.hypot(b, c), math.hypot(b, c), a


def listed_harmonic_min(sc, prep_gain, readout_gain):
    """The phase minimum by the algebra the kernel replaced: each squeezer
    built from a 16-entry list, the inter-stage loss added with np.diag, and
    C_ab q and q^T C_bb q as two products.  Also returns hypot(b, c) and a."""
    def squeezer(gain, theta):
        gain = np.asarray(gain, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        coupling = np.array([[0.0, 0.0, c, s], [0.0, 0.0, s, -c], [c, s, 0.0, 0.0], [s, -c, 0.0, 0.0]])
        return gain[..., None, None] * np.eye(4) + np.sqrt(gain * gain - 1.0)[..., None, None] * coupling

    ch = sc.channel
    prep = squeezer(prep_gain, sc.prep.pump_phase)
    loss = np.array([ch.loss_stokes, ch.loss_stokes, ch.loss_spinwave, ch.loss_spinwave])
    scale = np.sqrt(1.0 - loss)
    cov = prep @ prep.swapaxes(-1, -2) * scale[:, None] * scale + np.diag(loss)
    row = squeezer(readout_gain, sc.readout.pump_phase)[..., 0, :]
    p0, p1, q = row[..., 0], row[..., 1], row[..., 2:]
    t = 1.0 - ch.output_loss
    c00, c11 = cov[..., 0, 0], cov[..., 1, 1]
    p_sq = p0 * p0 + p1 * p1
    w = 2.0 * t * (cov[..., :2, 2:] @ q[..., None])[..., 0]
    qcq = (q[..., None, :] @ cov[..., 2:, 2:] @ q[..., None])[..., 0, 0]
    a = t * (0.5 * (c00 + c11) * p_sq + qcq) + ch.output_loss
    b, c = p0 * w[..., 0] + p1 * w[..., 1], p1 * w[..., 0] - p0 * w[..., 1]
    return np.arctan2(-c, -b) % (2.0 * np.pi), a - np.hypot(b, c), np.hypot(b, c), a


class TestHarmonicAgainstListedAlgebra:
    """_harmonic_min, with its cached coupling, loss without np.diag, one
    covariance product and no inter-stage mean, against the algebra it
    replaced: V_min to 1e-14 of the trace's mean level a, phi_min to 1e-12
    wherever the trace's swing hypot(b, c) exceeds 1e-6 a.  The minimum
    a - hypot(b, c) cancels by up to ~1e4 at mu = 11, so one ulp of a, which
    reading q^T C_bb q from C_bb q may move, is up to ~1e-12 of V_min itself
    (6e-14 on two entries of the stacked draws)."""

    @staticmethod
    def draw(rng):
        """mu up to 11, gq up to 1e5, pump phases on a fifth, output loss
        up to 0.5, each interstage loss exactly 0 or 1 in about one draw of seven."""
        l1, l2 = np.clip(rng.uniform(-0.2, 1.2, size=2), 0.0, 1.0)
        phases = rng.uniform(-np.pi, np.pi, size=2) if rng.random() < 0.2 else (0.0, 0.0)
        return CascadeScenario(
            AmplifierParams(1.0 + 10.0 * rng.random(), phases[0]),
            AmplifierParams.from_quantum_gain(10.0 ** rng.uniform(0.0, 5.0), phases[1]),
            ChannelParams(l1, l2, 0.0, 0.5 * rng.random()),
            seed_amplitude=complex(*rng.normal(size=2)),
        )

    @staticmethod
    def assert_agree(got, ref):
        (phi, var), (phi_ref, var_ref, amplitude, mean_level) = got, ref
        assert np.all(np.abs(var - var_ref) <= 1e-14 * mean_level)
        wrap = np.abs(np.angle(np.exp(1j * (phi - phi_ref))))
        defined = amplitude > 1e-6 * mean_level
        assert np.all(wrap[defined] <= 1e-12)
        return int(np.sum(defined))

    def test_scalar_scenarios(self):
        rng = np.random.default_rng(3001)
        defined = 0
        for _ in range(2000):
            sc = self.draw(rng)
            got = _harmonic_min(sc, sc.prep.gain, sc.readout.gain)
            assert [type(x) for x in got] == [np.float64, np.float64]
            defined += self.assert_agree(got, listed_harmonic_min(sc, sc.prep.gain, sc.readout.gain))
        assert defined >= 1400

    def test_stacked_sweeps(self):
        rng = np.random.default_rng(3002)
        for _ in range(100):
            sc = self.draw(rng)
            mus = 1.0 + 10.0 * rng.random(7)
            gains = np.sqrt((10.0 ** rng.uniform(0.0, 5.0, size=(2, 3)) + 1.0) / 2.0)
            for prep_gain, readout_gain in ((mus, sc.readout.gain), (sc.prep.gain, gains),
                                            (mus[:, None, None], gains)):
                got = _harmonic_min(sc, prep_gain, readout_gain)
                ref = listed_harmonic_min(sc, prep_gain, readout_gain)
                assert got[1].shape == ref[1].shape == np.broadcast_shapes(
                    np.shape(prep_gain), np.shape(readout_gain))
                self.assert_agree(got, ref)


class TestHarmonicAgainstSampledKernel:
    def test_random_scenarios(self):
        rng = np.random.default_rng(7301)
        phases_compared = 0
        for _ in range(250):
            sc = random_scenario(rng)
            phi_ref, var_ref, amplitude, mean_level = five_sample_min(sc)
            phi_min, var_min = min_noise_over_phase(sc)
            assert var_min == pytest.approx(var_ref, rel=1e-12)
            if amplitude > 1e-6 * mean_level:
                phases_compared += 1
                assert abs(np.angle(np.exp(1j * (phi_min - phi_ref)))) <= 1e-9
        assert phases_compared >= 150

    def test_sweeps_match_point_by_point(self):
        rng = np.random.default_rng(7302)
        for _ in range(10):
            sc = random_scenario(rng)
            mus = 1.0 + 1.5 * rng.random(6)
            trace = prep_gain_sweep(mus, sc.readout, sc.channel)
            for mu, r in zip(mus, trace.variance_linear):
                point = CascadeScenario(AmplifierParams(mu), sc.readout, sc.channel)
                assert r == pytest.approx(
                    min_noise_over_phase(point)[1] / reference_variance(point), rel=1e-12)
            gqs = 10.0 ** rng.uniform(0.0, 6.0, size=6)
            trace = quantum_gain_sweep(gqs, sc.prep, sc.channel)
            for gq, r in zip(gqs, trace.variance_linear):
                point = CascadeScenario(
                    sc.prep, AmplifierParams.from_quantum_gain(gq), sc.channel
                )
                assert r == pytest.approx(
                    min_noise_over_phase(point)[1] / reference_variance(point), rel=1e-12)


class TestClosedForm:
    def test_headline_value(self):
        r = closed_form_noise_reduction(1.17, 0.1, 0.1, 32.0)
        assert r == pytest.approx(HEADLINE_R, abs=1e-12)
        assert linear_to_db(r) == pytest.approx(-4.139524, abs=1e-5)

    def test_matches_pipeline(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = 1.0 + 1.5 * rng.random()
            l1, l2 = 0.9 * rng.random(), 0.9 * rng.random()
            gq = 1.0 + 80.0 * rng.random()
            sc = scenario(mu, gq, l1, l2)
            assert min_noise_over_phase(sc)[1] / reference_variance(sc) == pytest.approx(
                closed_form_noise_reduction(mu, l1, l2, gq), abs=1e-9
            )

    def test_equals_coefficients_on_regressors(self):
        """Bit for bit the dot product of the coefficients with the stacked
        regressors, on arrays and scalars, gq = 1 and infinity included."""
        rng = np.random.default_rng(14)
        mu, l1, l2 = 1.0 + 2.0 * rng.random(64), rng.random(64), rng.random(64)
        gq = np.concatenate([[1.0, np.inf], 1.0 + 10.0 ** rng.uniform(-9.0, 9.0, 62)])
        cases = [(mu, l1, l2, gq)] + [tuple(float(v[i]) for v in (mu, l1, l2, gq)) for i in range(6)]
        for pairing in model.PAIRINGS:
            for args in cases:
                alpha, beta, gamma = noise_reduction_coefficients(*args[:3], pairing)
                x = noise_reduction_regressors(args[3])
                want = alpha * x[..., 0] + beta * x[..., 1] + gamma * x[..., 2]
                got = closed_form_noise_reduction(*args, pairing)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)

    def test_pairings_coincide_for_equal_losses(self):
        a = closed_form_noise_reduction(1.4, 0.25, 0.25, 12.0, pairing="cascade")
        b = closed_form_noise_reduction(1.4, 0.25, 0.25, 12.0, pairing="swapped")
        assert a == pytest.approx(b, abs=1e-14)

    def test_pairings_differ_for_unequal_losses(self):
        a = closed_form_noise_reduction(1.4, 0.4, 0.05, 12.0, pairing="cascade")
        b = closed_form_noise_reduction(1.4, 0.4, 0.05, 12.0, pairing="swapped")
        assert abs(a - b) > 1e-3

    def test_swapped_pairing_is_exchanged_losses(self):
        """The fitter relies on this: it solves the cascade pairing only."""
        rng = np.random.default_rng(12)
        mu, l1, l2 = 1.0 + 2.0 * rng.random(64), rng.random(64), rng.random(64)
        gq = 1.0 + 100.0 * rng.random(64)
        for got, want in zip(noise_reduction_coefficients(mu, l1, l2, "swapped"),
                             noise_reduction_coefficients(mu, l2, l1)):
            assert np.array_equal(got, want)
        assert np.array_equal(closed_form_noise_reduction(mu, l1, l2, gq, "swapped"),
                              closed_form_noise_reduction(mu, l2, l1, gq))

    def test_matches_textbook_mu_form(self):
        """R from (1 + 2 nu^2 T2, 2 nu^2 (T1 - T2), -4 mu nu sqrt(T1 T2)),
        written out in (mu, nu), against the closed form's (t, s1, s2) kernel."""
        rng = np.random.default_rng(27)
        mu, (l1, l2) = rng.uniform(1.0, 2.5, 2000), rng.uniform(0.0, 0.9, (2, 2000))
        gq = 10.0 ** rng.uniform(0.0, 6.0, 2000)
        nu, t1, t2 = np.sqrt(mu * mu - 1.0), 1.0 - l1, 1.0 - l2
        alpha, beta = 1.0 + 2.0 * nu**2 * t2, 2.0 * nu**2 * (t1 - t2)
        gamma = -4.0 * mu * nu * np.sqrt(t1 * t2)
        lam = np.sqrt((gq - 1.0) / (gq + 1.0))
        want = alpha + (beta + gamma * lam) / (1.0 + lam * lam)
        assert np.max(np.abs(closed_form_noise_reduction(mu, l1, l2, gq) - want)) <= 1e-12

    def test_lossless_infinite_gain_limit(self):
        mu = 1.3
        nu = math.sqrt(mu * mu - 1.0)
        assert closed_form_noise_reduction(mu, 0.0, 0.0, np.inf) == pytest.approx(
            (mu - nu) ** 2, abs=1e-12
        )

    def test_broadcasting(self):
        gq = np.array([2.0, 8.0, 32.0])
        out = closed_form_noise_reduction(1.2, 0.1, 0.2, gq)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(
            closed_form_noise_reduction(1.2, 0.1, 0.2, 32.0), abs=1e-14
        )

    def test_validation(self):
        """Each rejected value keeps its message as a Python float, an
        np.float64 and a one-element array."""
        with pytest.raises(ValueError, match=r"^pairing must be one of"):
            closed_form_noise_reduction(1.2, 0.1, 0.1, 32.0, pairing="other")
        too_low, loss = r"^prep_gain must be >= 1$", r"^{} must be within \[0, 1\]$"
        rejected = [(0, v, too_low) for v in (0.9, np.nan, -np.inf)] + [
            (0, np.inf, r"^prep_gain inf is out of range: the closed form overflows$"),
            (0, 1e200, r"^prep_gain 1e\+200 is out of range: the closed form overflows$")] + [
            (k, v, loss.format(name)) for k, name in ((1, "loss_stokes"), (2, "loss_spinwave"))
            for v in (-0.1, 1.1, np.nan, np.inf, -np.inf)] + [
            (3, v, r"^quantum_gain must be >= 1$") for v in (0.5, np.nan, -np.inf)]
        for position, bad, message in rejected:
            for value in forms(bad):
                args = [1.2, 0.1, 0.1, 32.0]
                args[position] = value
                with pytest.raises(ValueError, match=message):
                    closed_form_noise_reduction(*args)


class TestScalarAndArrayCalls:
    """A scalar call and a one-element-array call give the same bits; a scalar
    returns a float (np.float64 for each coefficient)."""

    def test_closed_forms_agree_to_the_last_bit(self):
        # at the first case and at draws 332 and 926 of the random ones, NumPy's pow for an
        # np.float64 ** 2 and its square for an array round (sqrt T1 - sqrt T2)^2 differently
        rng = np.random.default_rng(7)
        mu = np.append(1.3342206687953606, 1.0 + 9.0 * rng.random(2000))
        l1 = np.append(0.27971924372545764, rng.random(2000))
        l2 = np.append(0.9861526190212553, rng.random(2000))
        gq = np.concatenate([[1.0, np.inf], 1.0 + 10.0 ** rng.uniform(-6.0, 6.0, 1999)])
        for i in range(mu.size):
            args = (float(mu[i]), float(l1[i]), float(l2[i]), float(gq[i]))
            one = [np.array([v]) for v in args]
            x_plus = joint_quadrature_variance(*args[:3])
            assert type(x_plus) is float
            assert joint_quadrature_variance(*one[:3]).tolist() == [x_plus]
            lam = gain_ratio_from_quantum_gain(args[3])
            assert type(lam) is float
            assert gain_ratio_from_quantum_gain(one[3]).tolist() == [lam]
            for pairing in model.PAIRINGS:
                r = closed_form_noise_reduction(*args, pairing)
                assert type(r) is float
                assert closed_form_noise_reduction(*one, pairing).tolist() == [r]
                coef = noise_reduction_coefficients(*args[:3], pairing)
                assert [type(c) for c in coef] == [np.float64] * 3
                assert [c.tolist() for c in noise_reduction_coefficients(*one[:3], pairing)] == [
                    [c] for c in coef]

    def test_phase_minimum_is_the_one_point_sweep(self):
        """R = min_noise_over_phase / reference_variance bit for bit the R of a
        one-point prep_gain_sweep and quantum_gain_sweep.  First with dyadic
        readout gains, so 2G^2 - 1 and sqrt((gq + 1)/2) are exact and both
        sweeps see the scenario's gains; then at any gq, with the readout that
        AmplifierParams.from_quantum_gain(gq) builds (prep_gain_sweep's prep
        stage has pump phase 0, quantum_gain_sweep's has the given one)."""
        rng = np.random.default_rng(29)
        for _ in range(300):
            readout = AmplifierParams(1.0 + int(rng.integers(0, 2**20)) / 2.0**16)
            channel = ChannelParams(rng.random(), rng.random(), 0.0, 0.5 * rng.random())
            sc = CascadeScenario(AmplifierParams(1.0 + 1.5 * rng.random()), readout, channel)
            r = min_noise_over_phase(sc)[1] / reference_variance(sc)
            assert type(r) is float
            assert prep_gain_sweep([sc.prep.gain], readout, channel).variance_linear.tolist() == [r]
            trace = quantum_gain_sweep([readout.quantum_noise_gain], sc.prep, channel)
            assert trace.variance_linear.tolist() == [r]
        # any gq: the sweep's reference is the evaluated stage's 2G^2 - 1, not gq again
        for _ in range(300):
            gq = 10.0 ** rng.uniform(0.01, 5.0)
            readout = AmplifierParams.from_quantum_gain(gq)
            channel = ChannelParams(rng.random(), rng.random(), 0.0, 0.5 * rng.random())
            prep = AmplifierParams(1.0 + 10.0 * rng.random(), rng.uniform(-np.pi, np.pi))
            sc = CascadeScenario(prep, readout, channel)
            r = min_noise_over_phase(sc)[1] / reference_variance(sc)
            assert quantum_gain_sweep([gq], prep, channel).variance_linear.tolist() == [r]
            unphased = CascadeScenario(AmplifierParams(prep.gain), readout, channel)
            r = min_noise_over_phase(unphased)[1] / reference_variance(unphased)
            assert prep_gain_sweep([prep.gain], readout, channel).variance_linear.tolist() == [r]


class TestJointQuadrature:
    def test_headline_value(self):
        x_plus = joint_quadrature_variance(1.17, 0.1, 0.1)
        assert x_plus == pytest.approx(HEADLINE_X_PLUS, abs=1e-12)
        assert linear_to_db(x_plus / 2.0) == pytest.approx(-4.146568, abs=1e-5)

    def test_uncorrelated_vacuum_level(self):
        assert joint_quadrature_variance(1.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_equals_twice_infinite_gain_ratio(self):
        for mu, l1, l2 in [(1.1, 0.0, 0.0), (1.5, 0.2, 0.3), (2.0, 0.45, 0.1)]:
            assert joint_quadrature_variance(mu, l1, l2) == pytest.approx(
                2.0 * closed_form_noise_reduction(mu, l1, l2, np.inf), abs=1e-12
            )

    def test_estimate_from_single_ratio(self):
        assert correlation_estimate_from_ratio(HEADLINE_R) == pytest.approx(
            2.0 * HEADLINE_R, abs=1e-14
        )
        assert correlation_estimate_from_ratio(0.4) == pytest.approx(0.8, abs=1e-14)

    def test_stable_form_matches_direct_form(self):
        rng = np.random.default_rng(7)
        for mu, l1, l2 in zip(1.0 + 9.0 * rng.random(2000), rng.random(2000), rng.random(2000)):
            nu2 = mu * mu - 1.0
            direct = 2.0 * (
                mu * mu + nu2 - nu2 * (l1 + l2)
                - 2.0 * mu * math.sqrt(nu2 * (1.0 - l1) * (1.0 - l2))
            )
            assert joint_quadrature_variance(mu, l1, l2) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("mu", [1e4, 1e10, 1e100])
    def test_large_gain_lossless_limit(self, mu):
        nu = math.sqrt((mu - 1.0) * (mu + 1.0))
        assert joint_quadrature_variance(mu, 0.0, 0.0) == pytest.approx(
            2.0 / (mu + nu) ** 2, rel=1e-12
        )
        # equal losses L leave X+ -> 2 L at large gain
        assert joint_quadrature_variance(mu, 0.1, 0.1) == pytest.approx(0.2, rel=1e-3)

    def test_overflow_is_range_error(self):
        with pytest.raises(ValueError, match="out of range"):
            joint_quadrature_variance(1e200, 0.1, 0.1)

    def test_sequences_broadcast_like_arrays(self):
        """Lists of any argument broadcast, as in noise_reduction_coefficients."""
        got = joint_quadrature_variance(1.2, [0.1, 0.2], 0.1)
        assert got.shape == (2,)
        assert got.tolist() == [joint_quadrature_variance(1.2, l1, 0.1) for l1 in (0.1, 0.2)]
        got = joint_quadrature_variance([1.2, 1.5], 0.3, [[0.0], [0.4]])
        assert got.shape == (2, 2)
        assert got[1, 0] == joint_quadrature_variance(1.2, 0.3, 0.4)

    @pytest.mark.parametrize(
        "args, key",
        [((0.9, 0.1, 0.1), "prep_gain"), ((np.nan, 0.1, 0.1), "prep_gain"),
         ((1.2, -0.1, 0.1), "loss_stokes"), ((1.2, np.nan, 0.1), "loss_stokes"),
         ((1.2, 0.1, 1.1), "loss_spinwave"), ((1.2, 0.1, np.nan), "loss_spinwave")],
    )
    def test_rejects_what_the_closed_form_rejects(self, args, key):
        for fn in (joint_quadrature_variance, noise_reduction_coefficients):
            with pytest.raises(ValueError, match=key):
                fn(*args)

    @pytest.mark.parametrize("mu", [1e200, np.inf, [1.2, 1e200]])
    def test_overflowing_prep_gain_is_range_error(self, mu):
        """Not NaN after a RuntimeWarning: the closed form rejects a prep gain
        whose terms overflow, and is finite up to the largest it accepts."""
        with pytest.raises(ValueError, match="prep_gain .* is out of range"):
            closed_form_noise_reduction(mu, 0.1, 0.1, 3.0)
        mu_max = model._PREP_GAIN_MAX
        r = closed_form_noise_reduction(mu_max, 0.3, 0.7, [1.0, 3.0, np.inf])
        assert np.all(np.isfinite(r))
        assert math.isfinite(joint_quadrature_variance(mu_max, 0.3, 0.7))

    @pytest.mark.parametrize("ratio", [0.0, np.nan, np.inf])
    def test_estimate_from_single_ratio_validation(self, ratio):
        with pytest.raises(ValueError):
            correlation_estimate_from_ratio(ratio)


class TestSweeps:
    def test_prep_gain_sweep(self):
        mus = np.linspace(1.0, 1.6, 7)
        trace = prep_gain_sweep(
            mus, AmplifierParams.from_quantum_gain(32.0), ChannelParams(0.1, 0.1)
        )
        np.testing.assert_array_equal(trace.values, mus)
        assert trace.variance_linear[0] == pytest.approx(1.0, abs=1e-10)
        assert trace.variance_linear == pytest.approx(
            closed_form_noise_reduction(mus, 0.1, 0.1, 32.0), abs=1e-9
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5])
    def test_sweeps_reject_non_finite_or_below_one(self, bad):
        with pytest.raises(ValueError):
            prep_gain_sweep([1.2, bad], AmplifierParams(2.0), ChannelParams())
        with pytest.raises(ValueError):
            quantum_gain_sweep([4.0, bad], AmplifierParams(1.2), ChannelParams())

    @pytest.mark.parametrize("gains", [[], [[1.2, 1.3]], [[1.2], [1.3]], np.ones((2, 2, 2))])
    def test_sweeps_reject_gains_that_are_not_1d(self, gains):
        with pytest.raises(ValueError, match=r"^prep_gains must be a non-empty 1-d sequence"):
            prep_gain_sweep(gains, AmplifierParams(2.0), ChannelParams())
        with pytest.raises(ValueError, match=r"^quantum_gains must be a non-empty 1-d sequence"):
            quantum_gain_sweep(gains, AmplifierParams(1.2), ChannelParams())

    def test_quantum_gain_sweep_monotone_for_equal_losses(self):
        gqs = np.linspace(1.5, 64.0, 12)
        trace = quantum_gain_sweep(gqs, AmplifierParams(1.17), ChannelParams(0.1, 0.1))
        np.testing.assert_array_equal(trace.values, gqs)
        assert np.all(np.diff(trace.variance_linear) < 0)
        assert trace.variance_linear[-1] > HEADLINE_X_PLUS / 2.0


    @pytest.mark.parametrize("gain", [3000.0, 4000.0, 1e8, 1e200])
    def test_squeezer_range_error_through_model_paths(self, gain, recwarn):
        """A gain beyond working precision, on either stage of the phase
        minimum, the scan and the sweeps, is a range error naming it."""
        small, channel = AmplifierParams(1.2), ChannelParams(0.1, 0.2)
        gq = min(2.0 * gain * gain - 1.0, 1e300)
        messages = []  # per form of the gain: Python float, np.float64, one-element array
        for g in forms(gain):
            big = AmplifierParams(g)
            calls = [
                ("prep_gain", lambda: min_noise_over_phase(CascadeScenario(big, small))),
                ("readout gain", lambda: min_noise_over_phase(CascadeScenario(small, big))),
                ("prep_gain", lambda: noise_vs_phase(CascadeScenario(big, small), 8)),
                ("readout gain", lambda: noise_vs_phase(CascadeScenario(small, big), 8)),
                ("prep_gain", lambda: prep_gain_sweep(np.append(1.2, g), small, channel)),
                ("readout gain", lambda: prep_gain_sweep([1.2, 1.5], big, channel)),
                ("prep_gain", lambda: quantum_gain_sweep([2.0, 8.0], big, channel)),
                ("readout gain", lambda: quantum_gain_sweep(np.append(2.0, gq), small, channel)),
            ]
            messages.append([])
            for name, call in calls:
                with pytest.raises(ValueError, match=f"^{name} .* is out of range") as err:
                    call()
                messages[-1].append(str(err.value))
        assert messages[1] == messages[2] == messages[0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestFringes:
    def test_visibility_matches_trace(self):
        # visibility is defined on the seed (mean-field) fringe; the
        # amplified-noise background is phase-independent and excluded
        # an even point count samples both phi = 0 and phi = pi exactly
        sc = scenario(mu=1.5, gq=32.0, l1=0.1, l2=0.2, seed=1.0 + 0j)
        trace = fringe_scan(sc, 720)
        seed = trace.seed_intensity
        measured = (seed.max() - seed.min()) / (seed.max() + seed.min())
        assert fringe_visibility(sc) == pytest.approx(measured, abs=1e-9)

    def test_fringe_maximum_at_zero_phase(self):
        trace = fringe_scan(scenario(mu=1.5, seed=1.0 + 0j), 256)
        assert int(np.argmax(trace.seed_intensity)) == 0

    def test_period_two_pi(self):
        sc = scenario(mu=1.3, seed=0.7 + 0.2j)
        a = fringe_scan(sc, 9)
        phases = a.phases
        assert phases[0] == 0.0
        assert np.all(np.diff(phases) > 0)
        assert phases[-1] < 2 * np.pi
        # midpoint symmetry of a pure cosine fringe
        assert a.seed_intensity[1] == pytest.approx(a.seed_intensity[-1], rel=1e-9)

    def test_no_prep_means_flat_fringe_and_zero_visibility(self):
        sc = scenario(mu=1.0, seed=1.0 + 0j)
        trace = fringe_scan(sc, 64)
        assert fringe_visibility(sc) == pytest.approx(0.0, abs=1e-12)
        assert np.ptp(trace.seed_intensity) == pytest.approx(0.0, abs=1e-9)

    def test_both_paths_blocked_gives_zero_visibility(self):
        assert fringe_visibility(scenario(mu=1.5, l1=1.0, l2=1.0, seed=1.0 + 0j)) == 0.0

    def test_zero_seed_names_both_noise_scans(self):
        with pytest.raises(ValueError, match="nonzero seed_amplitude.*noise_vs_phase.*noise-scan"):
            fringe_scan(scenario(mu=1.5), 8)

    def test_balanced_lossless_visibility_near_one(self):
        sc = CascadeScenario(
            AmplifierParams(3.0),
            AmplifierParams(3.0),
            ChannelParams(),
            seed_amplitude=1.0 + 0j,
        )
        assert fringe_visibility(sc) > 0.99

    @pytest.mark.parametrize("seed", [1e160, -1e300j])
    def test_non_finite_intensity_is_range_error(self, seed):
        sc = scenario(mu=1.5, seed=seed)
        for fn in (fringe_scan, fringe_visibility):
            with pytest.raises(ValueError, match="seed_amplitude"):
                fn(sc)


class TestNoSymplecticCheckOnModelPaths:
    def test_model_paths_never_run_the_check(self, monkeypatch):
        """The model's squeezers pass the gain range rule, not SymplecticOp's
        symplectic check: no model path calls it, while one public op does."""
        calls, check = [], gaussian._is_symplectic

        def counted(s):
            calls.append(s.shape)
            return check(s)
        monkeypatch.setattr(gaussian, "_is_symplectic", counted)
        sc, seeded = scenario(l2=0.3, phi=1.0, out=0.2), scenario(mu=1.5, seed=1.0 + 0j)
        channel = ChannelParams(0.1, 0.2)
        min_noise_over_phase(sc)
        prep_gain_sweep([1.0, 1.2, 1.5], AmplifierParams.from_quantum_gain(32.0), channel)
        quantum_gain_sweep([2.0, 8.0, 32.0], AmplifierParams(1.17), channel)
        noise_vs_phase(sc, 16)
        fringe_scan(seeded, 16)
        build_cascade(sc)
        build_cascade(seeded)
        closed_form_noise_reduction(1.17, 0.1, 0.1, 32.0)
        assert calls == []
        two_mode_squeezer(0, 1, 1.5)
        assert calls == [(4, 4)]


class TestTraceTypes:
    def test_noise_trace_validation(self):
        with pytest.raises(ValueError):
            NoiseTrace(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            NoiseTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_fringe_trace_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            FringeTrace(np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([0.5]))

    def test_fringe_trace_totals(self):
        trace = FringeTrace(
            np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([0.5, 0.5])
        )
        assert trace.total_intensity == pytest.approx([2.5, 3.5])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_fringe_trace_rejects_non_finite_or_negative(self, bad):
        for seed, background in (([1.0, bad], [0.5, 0.5]), ([1.0, 1.0], [0.5, bad])):
            with pytest.raises(ValueError):
                FringeTrace(np.array([0.0, 1.0]), np.array(seed), np.array(background))

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(loss_stokes=1.2)
        with pytest.raises(ValueError):
            ChannelParams(scan_phase=np.nan)
