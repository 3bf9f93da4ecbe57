"""Tests for the Gaussian-vs-Fock cross-validation harness.

The full standard battery is exercised by the acceptance suite; here we
cover the harness mechanics on a handful of circuits so failures localize.
"""

import dataclasses
import math

import numpy as np
import pytest

import ramansim.crosscheck as crosscheck
import ramansim.fock as fock
from ramansim.crosscheck import (
    AGREEMENT_TOL,
    N_MAX_LIMIT,
    BatteryResult,
    paper_battery,
    run_battery,
    run_fock,
    standard_battery,
    variance_deviation,
)
from ramansim.fock import TruncationError
from ramansim.gaussian import GaussianState, homodyne_variance
from ramansim.model import AmplifierParams, CascadeScenario, ChannelParams, build_cascade


def cascade(r1, r2=0.0, l1=0.0, l2=0.0, phi=0.0, theta1=0.0, theta2=0.0):
    """The cascade with prep and readout squeeze parameters r1 and r2."""
    return CascadeScenario(
        AmplifierParams(math.cosh(r1), theta1),
        AmplifierParams(math.cosh(r2), theta2),
        ChannelParams(l1, l2, phi),
    )


LOSSLESS_ALIGNED = cascade(0.5, 0.5, phi=np.pi)


class TestStandardBattery:
    def test_size_and_uniqueness(self):
        battery = standard_battery()
        assert len(battery) >= 30
        names = [name for name, _ in battery]
        assert len(set(names)) == len(names)

    def test_composition_limits(self):
        for _, sc in standard_battery():
            for stage in (sc.prep, sc.readout):
                assert 1.0 < stage.gain <= math.cosh(1.0)
                assert stage.pump_phase == 0.0
            assert sc.channel.loss_stokes in (0.0, 0.1, 0.5)
            assert sc.channel.loss_spinwave in (0.0, 0.1, 0.5)
            assert sc.channel.scan_phase in (0.0, np.pi / 2.0, np.pi)
            assert sc.channel.output_loss == 0.0
            assert sc.seed_amplitude == 0

    def test_covers_unequal_losses_and_all_phases(self):
        battery = standard_battery()
        losses = {(sc.channel.loss_stokes, sc.channel.loss_spinwave) for _, sc in battery}
        phases = {sc.channel.scan_phase for _, sc in battery}
        assert (0.1, 0.5) in losses and (0.5, 0.1) in losses
        assert phases == {0.0, np.pi / 2.0, np.pi}


class TestPaperBattery:
    def test_operating_point(self):
        battery = paper_battery()
        names = [name for name, _ in battery]
        assert len(set(names)) == len(names)
        losses, pump_phases = set(), set()
        for _, sc in battery:
            assert sc.prep.gain == 1.17
            assert sc.readout.quantum_noise_gain == pytest.approx(32.0, abs=1e-12)
            assert sc.channel.scan_phase == np.pi
            assert sc.channel.output_loss == 0.0 and sc.seed_amplitude == 0
            losses.add((sc.channel.loss_stokes, sc.channel.loss_spinwave))
            pump_phases.update((sc.prep.pump_phase, sc.readout.pump_phase))
        assert (0.1, 0.1) in losses
        assert any(l1 != l2 for l1, l2 in losses)
        assert any(theta != 0.0 for theta in pump_phases)

    def test_doubling_settles_at_cap_and_agrees(self):
        for name, sc in paper_battery():
            state = run_fock(sc)
            assert state.n_max == N_MAX_LIMIT, name
            gauss = build_cascade(sc)
            for mode in (0, 1):
                fv = crosscheck.fock.quadrature_variance(state, mode)
                for phase in (0.0, np.pi / 2.0):
                    assert abs(homodyne_variance(gauss, mode, phase) - fv) < AGREEMENT_TOL, name


class TestVarianceDeviation:
    def test_lossless_circuit(self):
        assert variance_deviation(LOSSLESS_ALIGNED) < AGREEMENT_TOL

    def test_lossy_circuit(self):
        assert variance_deviation(cascade(0.5, 0.5, 0.5, 0.1, np.pi / 2)) < AGREEMENT_TOL

    def test_pump_phase_sign_convention(self):
        # the standard battery keeps theta = 0; flipping the sign of the
        # pump phase in either engine makes this circuit deviate by ~1.9
        sc = cascade(0.5, 0.5, l2=0.1, phi=np.pi / 2, theta1=0.3, theta2=1.1)
        assert variance_deviation(sc, n_max=30) < AGREEMENT_TOL

    def test_random_scenarios(self):
        """Pump phases on both stages, which the battery keeps at 0."""
        rng = np.random.default_rng(2024)
        for _ in range(8):
            r1, r2 = 0.5 * rng.random(2)
            l1, l2 = rng.random(2)
            sc = cascade(r1, r2, l1, l2, 2.0 * np.pi * rng.random(),
                         *rng.uniform(-np.pi, np.pi, size=2))
            assert variance_deviation(sc) < AGREEMENT_TOL, sc

    @pytest.mark.parametrize(
        "change", [dict(seed_amplitude=0.1j), dict(channel=ChannelParams(output_loss=0.2))],
        ids=["seed", "output-loss"],
    )
    def test_oracle_refuses_what_it_cannot_run(self, change, attempts):
        """Refused once, before the first attempt."""
        with pytest.raises(ValueError, match="takes no seed_amplitude and no output_loss"):
            run_fock(dataclasses.replace(LOSSLESS_ALIGNED, **change))
        assert attempts == []


class TestAdaptiveTruncation:
    def test_doubles_until_adequate(self):
        state = run_fock(cascade(1.1))
        assert state.n_max == 80
        assert crosscheck.fock.quadrature_variance(state, 0) == pytest.approx(
            math.cosh(2.2), abs=1e-6
        )

    def test_gives_up_at_cap(self):
        with pytest.raises(TruncationError):
            run_fock(cascade(1.0, 1.0))

    def test_last_doubling_stops_at_cap(self):
        """A first truncation that does not double onto the cap still
        reaches it: 100 -> 160, where the paper battery agrees."""
        for name, sc in paper_battery():
            assert run_fock(sc, 100).n_max == N_MAX_LIMIT, name
            assert variance_deviation(sc, 100) < AGREEMENT_TOL, name

    @pytest.mark.parametrize("n_max", [1, N_MAX_LIMIT + 1, 40.0, 40.5, "40", True])
    def test_first_truncation_within_range(self, n_max):
        """Out of range, or not an integer (a bool is not one either)."""
        match = rf"truncation must be an integer within \[2, {N_MAX_LIMIT}\], got {n_max!r}"
        with pytest.raises(ValueError, match=match):
            run_fock(LOSSLESS_ALIGNED, n_max)
        with pytest.raises(ValueError, match=match):
            variance_deviation(LOSSLESS_ALIGNED, n_max)


def fock_outputs(state):
    """The two variances and <ab> of a Fock output."""
    return [crosscheck.fock.quadrature_variance(state, 0),
            crosscheck.fock.quadrature_variance(state, 1),
            crosscheck.fock.pair_correlation(state)]


def full_environment(state, sc, monkeypatch):
    """The same circuit with untruncated environments (ENV_TOL 0 forces
    M = n_max), the store the truncated one must reproduce."""
    with monkeypatch.context() as patch:
        patch.setattr(crosscheck.fock, "ENV_TOL", 0.0)
        return crosscheck._run_fock_once(sc, state.n_max)


@pytest.fixture
def attempts(monkeypatch):
    """The truncation of every oracle attempt, in order."""
    seen, run_once = [], crosscheck._run_fock_once

    def counted(scenario, n_max):
        seen.append(n_max)
        return run_once(scenario, n_max)

    monkeypatch.setattr(crosscheck, "_run_fock_once", counted)
    return seen


class TestEnvironmentTruncation:
    def test_matches_full_environment_on_random_circuits(self, monkeypatch):
        rng = np.random.default_rng(16)
        for _ in range(24):
            r1, r2 = 0.7 * rng.random(2)
            l1, l2 = rng.random(2)
            sc = cascade(r1, r2, l1, l2, 2.0 * np.pi * rng.random(),
                         *rng.uniform(-np.pi, np.pi, size=2))
            state = run_fock(sc)
            assert max(state.amps.shape[1:]) < state.dim, sc
            full = full_environment(state, sc, monkeypatch)
            assert full.amps.shape == (state.dim,) * 3
            for fast, slow in zip(fock_outputs(state), fock_outputs(full)):
                assert abs(fast - slow) <= 1e-12, sc

    def test_environment_doubles_and_agrees(self, attempts, monkeypatch):
        """n_max doubles 40 -> 80 for the prep squeeze; each environment then
        keeps levels 0..M, M = 25 the lowest level from which the
        full-environment store holds less than ENV_TOL there."""
        sc = cascade(1.1, l1=0.2, l2=0.2)
        state = run_fock(sc)
        assert attempts == [40, 80]
        assert state.amps.shape == (81, 26, 26)
        full = full_environment(state, sc, monkeypatch)
        p_eb = np.sum(np.abs(full.amps) ** 2, axis=(0, 1))
        assert np.flatnonzero(np.cumsum(p_eb[::-1])[::-1] < crosscheck.fock.ENV_TOL)[0] == 25
        for fast, slow in zip(fock_outputs(state), fock_outputs(full)):
            assert abs(fast - slow) <= 1e-12
        assert variance_deviation(sc) < AGREEMENT_TOL

    def test_environment_starts_at_most_at_n_max(self):
        """M never exceeds n_max: at n_max 8 full loss leaves more than
        ENV_TOL at level 8, so the environments get all 9 levels."""
        state = run_fock(cascade(0.3, l1=1.0, l2=1.0), n_max=8)
        assert state.amps.shape == (9, 9, 9)


class TestAttempts:
    """A restart reruns a whole circuit from vacuum; only n_max restarts."""

    def test_standard_battery_runs_each_circuit_once(self, attempts):
        assert run_battery().passed
        assert attempts == [40] * 38

    def test_paper_battery_runs_each_circuit_once_at_the_cap(self, attempts):
        assert run_battery(paper_battery(), n_max=N_MAX_LIMIT).passed
        assert attempts == [N_MAX_LIMIT] * 3


class TestValidateOnce:
    @pytest.mark.parametrize("scenario", [cascade(0.5, 0.3, 0.1, 0.5, np.pi / 2.0),
                                          paper_battery()[1][1]])
    def test_only_the_vacuum_runs_the_public_checks(self, scenario, monkeypatch):
        """The oracle's own steps keep the sector and the norm, so their
        results skip FockState's checks; the vacuum a run starts from is
        the one state built through them."""
        built, check = [], fock.FockState.__post_init__

        def counting(state):
            built.append(state.amps.shape)
            check(state)
        monkeypatch.setattr(fock.FockState, "__post_init__", counting)
        out = crosscheck._run_fock_once(scenario, N_MAX_LIMIT)
        assert built == [(N_MAX_LIMIT + 1, 1, 1)]
        assert out.amps.shape[1:] != (1, 1) and not out.amps.flags.writeable


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

    @pytest.mark.parametrize("entries", [
        [("a", 1e-9), ("nan", np.nan), ("c", 2e-8)],
        [("nan", np.nan), ("a", 1e-9)],
        [("a", 1e-9), ("nan", np.nan)],
    ])
    def test_nan_entry_fails(self, entries):
        result = BatteryResult(entries)
        assert math.isnan(result.max_deviation)
        assert not result.passed
        assert result.worst_circuit == "nan"


class TestHarnessSanity:
    def test_corrupted_engine_detected(self, monkeypatch):
        """A deliberately biased engine must fail the battery check."""

        def biased(scenario):
            state = build_cascade(scenario)
            return GaussianState(state.mean, state.cov + 1e-3 * np.eye(4))

        monkeypatch.setattr(crosscheck, "build_cascade", biased)
        result = run_battery(battery=[("lossless", LOSSLESS_ALIGNED)])
        assert not result.passed
        assert result.worst_circuit == "lossless"

    def test_corrupted_correlation_detected(self, monkeypatch):
        """A kernel whose cross block is off by 1e-3 in V_XaYb only keeps
        both variances, and the <ab> comparison alone must catch it."""

        def skewed(scenario):
            state = build_cascade(scenario)
            cov = state.cov.copy()
            cov[0, 3] += 1e-3
            cov[3, 0] += 1e-3
            return GaussianState(state.mean, cov)

        monkeypatch.setattr(crosscheck, "build_cascade", skewed)
        sc = cascade(0.5, 0.5, 0.1, 0.1, np.pi / 2)
        assert variance_deviation(sc) == pytest.approx(2.5e-4, rel=1e-3)  # Im <ab> moves by 1e-3 / 4

    def test_nan_oracle_variance_is_no_agreement(self, monkeypatch):
        """A Fock variance of NaN makes the deviation NaN and fails the
        battery, wherever it falls among the compared modes."""
        real = crosscheck.fock.quadrature_variance
        for nan_mode in (0, 1):
            def patched(state, mode):
                return np.nan if mode == nan_mode else real(state, mode)

            monkeypatch.setattr(crosscheck.fock, "quadrature_variance", patched)
            assert math.isnan(variance_deviation(LOSSLESS_ALIGNED))
            result = run_battery(battery=[("lossless", LOSSLESS_ALIGNED)])
            assert math.isnan(result.max_deviation) and not result.passed

    def test_small_battery_passes_and_times(self):
        result = run_battery(battery=[("lossless", LOSSLESS_ALIGNED)])
        assert result.passed
        assert result.elapsed_s > 0.0
