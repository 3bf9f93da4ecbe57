"""Unit tests for the cascade model and closed-form noise expressions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import ramansim.model as model
from ramansim.model import (
    AmplifierParams,
    CascadeScenario,
    ChannelParams,
    FringeTrace,
    HarmonicFitError,
    NoiseTrace,
    PhysicalRamanParams,
    _cascade_moments,
    _harmonic_min,
    build_cascade,
    closed_form_noise_reduction,
    correlation_estimate_from_ratio,
    db_to_linear,
    fringe_scan,
    fringe_visibility,
    gain_from_pump_power,
    gain_ratio_from_quantum_gain,
    joint_quadrature_variance,
    linear_to_db,
    min_noise_over_phase,
    noise_reduction_ratio,
    noise_vs_phase,
    prep_gain_sweep,
    quantum_gain_sweep,
    reference_variance,
    simulate_cascade_noise,
)
from ramansim.gaussian import (
    LossChannel,
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

    def test_db_constructor(self):
        params = AmplifierParams.from_quantum_gain_db(15.0)
        assert params.quantum_noise_gain == pytest.approx(10**1.5, abs=1e-10)

    def test_gain_ratio(self):
        params = AmplifierParams.from_quantum_gain(32.0)
        assert params.gain_ratio == pytest.approx(math.sqrt(31.0 / 33.0), abs=1e-12)
        assert params.cross_gain == pytest.approx(
            math.sqrt(params.gain**2 - 1.0), abs=1e-12
        )

    @pytest.mark.parametrize("gain", [0.99, np.nan, np.inf])
    def test_gain_validation(self, gain):
        with pytest.raises(ValueError):
            AmplifierParams(gain)


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
        with pytest.raises(ValueError):
            gain_ratio_from_quantum_gain(0.5)
        with pytest.raises(ValueError):
            gain_ratio_from_quantum_gain(np.nan)
        with pytest.raises(ValueError):
            gain_ratio_from_quantum_gain(np.array([2.0, np.nan]))


class TestPhysicalParams:
    def test_gain_mapping(self):
        params = PhysicalRamanParams(
            coupling_eg=2.0,
            coupling_em=1.5,
            detuning=100.0,
            pump_amplitude=3.0,
            interaction_time=4.0,
            atom_number=25.0,
        )
        rate = 2.0 * 1.5 * 5.0 / 100.0
        assert params.effective_rate == pytest.approx(rate, abs=1e-12)
        assert params.squeeze_parameter == pytest.approx(rate * 12.0, abs=1e-12)
        assert params.to_amplifier().gain == pytest.approx(math.cosh(rate * 12.0), abs=1e-12)

    def test_pump_power_mapping(self):
        assert gain_from_pump_power(0.0, 0.7) == 1.0
        powers = np.linspace(0.0, 4.0, 9)
        gains = [gain_from_pump_power(p, 0.7) for p in powers]
        assert np.all(np.diff(gains) > 0)
        assert gains[-1] == pytest.approx(math.cosh(1.4), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalRamanParams(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gain_from_pump_power(-1.0, 1.0)


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
        assert simulate_cascade_noise(sc) == pytest.approx(
            analytic_variance(mu, gq, l1, l2, phi, out), abs=1e-10
        )

    def test_unprepared_input_gives_reference_noise(self):
        for phi in (0.0, 0.9, np.pi):
            sc = scenario(mu=1.0, phi=phi)
            assert simulate_cascade_noise(sc) == pytest.approx(32.0, abs=1e-10)
        assert reference_variance(scenario(mu=1.0)) == pytest.approx(32.0, abs=1e-12)

    def test_output_stokes_variance_is_lo_phase_insensitive(self):
        sc = scenario(phi=np.pi)
        for lo_phase in (0.0, 0.5, np.pi / 2):
            assert simulate_cascade_noise(sc, lo_phase) == pytest.approx(
                simulate_cascade_noise(sc, 0.0), abs=1e-10
            )

    def test_build_cascade_returns_two_mode_state(self):
        state = build_cascade(scenario())
        assert state.n_modes == 2
        assert state.is_physical()
        assert homodyne_variance(state, 0) == pytest.approx(
            analytic_variance(1.17, 32.0, 0.1, 0.1, 0.0), abs=1e-10
        )


def engine_chain(sc, phi, mu, gain):
    """The cascade op by op through the public engine, the reference for
    the broadcasting kernel."""
    ch = sc.channel
    state = apply_symplectic(vacuum(2), displacement(0, sc.seed_amplitude, n_modes=2))
    state = apply_symplectic(state, two_mode_squeezer(0, 1, mu, sc.prep.pump_phase))
    state = apply_loss(state, LossChannel(0, ch.loss_stokes))
    state = apply_loss(state, LossChannel(1, ch.loss_spinwave))
    state = apply_symplectic(state, phase_shift(0, phi, n_modes=2))
    state = apply_symplectic(state, two_mode_squeezer(0, 1, gain, sc.readout.pump_phase))
    return apply_loss(state, LossChannel(0, ch.output_loss))


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
            mean, cov = _cascade_moments(
                sc, sc.channel.scan_phase, sc.prep.gain, sc.readout.gain
            )
            assert mean.shape == (4,) and cov.shape == (4, 4)
            assert_moments_close(mean, cov, engine_chain(
                sc, sc.channel.scan_phase, sc.prep.gain, sc.readout.gain
            ))

    def test_batched_call_matches_point_by_point(self):
        rng = np.random.default_rng(8192)
        sc = random_scenario(rng)
        gains = np.array([1.0, 1.3, 7.0, 700.0])
        phis = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        mean, cov = _cascade_moments(sc, phis, sc.prep.gain, gains[:, None])
        assert mean.shape == (4, 5, 4) and cov.shape == (4, 5, 4, 4)
        for i, gain in enumerate(gains):
            for j, phi in enumerate(phis):
                assert_moments_close(
                    mean[i, j], cov[i, j], engine_chain(sc, phi, sc.prep.gain, gain)
                )


class TestNoiseScan:
    def test_trace_shape_and_db(self):
        trace = noise_vs_phase(scenario(), 64)
        assert trace.scan_variable == "phase"
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
                lambda phi: simulate_cascade_noise(
                    replace(sc, channel=replace(sc.channel, scan_phase=phi))
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
    v = _cascade_moments(sc, phis, sc.prep.gain, sc.readout.gain)[1][:, 0, 0]
    coeffs = np.fft.rfft(v) / 5.0
    assert 2.0 * abs(coeffs[2]) <= 1e-10 * np.max(np.abs(v))
    a, b, c = coeffs[0].real, 2.0 * coeffs[1].real, -2.0 * coeffs[1].imag
    return math.atan2(-c, -b) % (2.0 * np.pi), a - math.hypot(b, c), math.hypot(b, c), a


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
                assert r == pytest.approx(noise_reduction_ratio(point), rel=1e-12)
            gqs = 10.0 ** rng.uniform(0.0, 6.0, size=6)
            trace = quantum_gain_sweep(gqs, sc.prep, sc.channel)
            for gq, r in zip(gqs, trace.variance_linear):
                point = CascadeScenario(
                    sc.prep, AmplifierParams.from_quantum_gain(gq), sc.channel
                )
                assert r == pytest.approx(noise_reduction_ratio(point), rel=1e-12)


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
            assert noise_reduction_ratio(sc) == pytest.approx(
                closed_form_noise_reduction(mu, l1, l2, gq), abs=1e-9
            )

    def test_pairings_coincide_for_equal_losses(self):
        a = closed_form_noise_reduction(1.4, 0.25, 0.25, 12.0, pairing="cascade")
        b = closed_form_noise_reduction(1.4, 0.25, 0.25, 12.0, pairing="swapped")
        assert a == pytest.approx(b, abs=1e-14)

    def test_pairings_differ_for_unequal_losses(self):
        a = closed_form_noise_reduction(1.4, 0.4, 0.05, 12.0, pairing="cascade")
        b = closed_form_noise_reduction(1.4, 0.4, 0.05, 12.0, pairing="swapped")
        assert abs(a - b) > 1e-3

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
        with pytest.raises(ValueError):
            closed_form_noise_reduction(0.9, 0.1, 0.1, 32.0)
        with pytest.raises(ValueError):
            closed_form_noise_reduction(1.2, 1.1, 0.1, 32.0)
        with pytest.raises(ValueError):
            closed_form_noise_reduction(1.2, 0.1, 0.1, 32.0, pairing="other")
        for args in [(np.nan, 0.1, 0.1, 32.0), (1.2, np.nan, 0.1, 32.0),
                     (1.2, 0.1, np.nan, 32.0), (1.2, 0.1, 0.1, np.nan)]:
            with pytest.raises(ValueError):
                closed_form_noise_reduction(*args)


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
        assert correlation_estimate_from_ratio(HEADLINE_R, 32.0) == pytest.approx(
            2.0 * HEADLINE_R, abs=1e-14
        )
        assert correlation_estimate_from_ratio(0.4, 32.0) == pytest.approx(0.8, abs=1e-14)

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

    @pytest.mark.parametrize(
        "ratio,gq", [(0.0, 32.0), (np.nan, 32.0), (np.inf, 32.0), (0.4, 0.5), (0.4, np.nan)]
    )
    def test_estimate_from_single_ratio_validation(self, ratio, gq):
        with pytest.raises(ValueError):
            correlation_estimate_from_ratio(ratio, gq)


class TestSweeps:
    def test_prep_gain_sweep(self):
        mus = np.linspace(1.0, 1.6, 7)
        trace = prep_gain_sweep(
            mus, AmplifierParams.from_quantum_gain(32.0), ChannelParams(0.1, 0.1)
        )
        assert trace.scan_variable == "pump_power"
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

    def test_quantum_gain_sweep_monotone_for_equal_losses(self):
        gqs = np.linspace(1.5, 64.0, 12)
        trace = quantum_gain_sweep(gqs, AmplifierParams(1.17), ChannelParams(0.1, 0.1))
        assert trace.scan_variable == "quantum_gain"
        assert np.all(np.diff(trace.variance_linear) < 0)
        assert trace.variance_linear[-1] > HEADLINE_X_PLUS / 2.0


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

    def test_balanced_lossless_visibility_near_one(self):
        sc = CascadeScenario(
            AmplifierParams(3.0),
            AmplifierParams(3.0),
            ChannelParams(),
            seed_amplitude=1.0 + 0j,
        )
        assert fringe_visibility(sc) > 0.99


class TestTraceTypes:
    def test_noise_trace_validation(self):
        with pytest.raises(ValueError):
            NoiseTrace("phase", np.array([0.0, 1.0]), np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            NoiseTrace("unknown", np.array([0.0]), np.array([1.0]))

    def test_fringe_trace_totals(self):
        trace = FringeTrace(
            np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([0.5, 0.5])
        )
        assert trace.total_intensity == pytest.approx([2.5, 3.5])

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(loss_stokes=1.2)
        with pytest.raises(ValueError):
            ChannelParams(scan_phase=np.nan)
