"""Cross-validation of the cascade kernel against the Fock oracle.

A circuit is a :class:`~ramansim.model.CascadeScenario`: prep squeeze, a
loss on each arm, the scan phase on the Stokes arm, readout squeeze.  The
kernel's :func:`~ramansim.model.build_cascade` gives its covariance; the
Fock oracle replays the same five steps in the number basis with squeeze
parameter r = acosh(gain), and the homodyne variances of the two outputs
and their correlation <ab> are compared.  The Fock side is a pure state:
each lossy step appends a vacuum environment mode, truncated at the M <= n_max
its binomial law fixes.  Whenever a step reports an inadequate edge
population, the run repeats with n_max doubled (40 -> 80 -> 160); it refuses
beyond the cap rather than returning an unconverged number.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .fock import TruncationError
from .gaussian import _is_integer, homodyne_variance
from .model import AmplifierParams, CascadeScenario, ChannelParams, build_cascade

#: tolerance on the Gaussian-vs-Fock deviation of the variances and <ab>
AGREEMENT_TOL = 1e-6

#: largest Fock truncation the doubling tries before refusing
N_MAX_LIMIT = 160


def _run_fock_once(scenario: CascadeScenario, n_max: int) -> fock.FockState:
    ch = scenario.channel
    state = fock.vacuum_state(n_max=n_max)
    state = fock.apply_two_mode_squeeze(
        state, math.acosh(scenario.prep.gain), scenario.prep.pump_phase)
    state = fock.apply_loss(state, 0, ch.loss_stokes)
    state = fock.apply_loss(state, 1, ch.loss_spinwave)
    state = fock.apply_phase_rotation(state, 0, ch.scan_phase)
    return fock.apply_two_mode_squeeze(
        state, math.acosh(scenario.readout.gain), scenario.readout.pump_phase)


def run_fock(scenario: CascadeScenario, n_max: int = 40) -> fock.FockState:
    """Run an unseeded cascade without output loss on the Fock oracle,
    truncating a and b at ``n_max`` and doubling it up to ``N_MAX_LIMIT``
    while an edge check fails; each loss sizes its own environment.

    Raises:
        ValueError: ``n_max`` is not an integer (a bool is not one) within
            [2, N_MAX_LIMIT], or the scenario has a seed or an output loss.
        TruncationError: the circuit still fails at ``N_MAX_LIMIT``.
    """
    if not _is_integer(n_max) or not 2 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"truncation must be an integer within [2, {N_MAX_LIMIT}], "
                         f"got {n_max!r}")
    if scenario.seed_amplitude != 0 or scenario.channel.output_loss != 0:
        raise ValueError("the Fock oracle takes no seed_amplitude and no output_loss: "
                         "it has no displacement and one loss per arm")
    while True:
        try:
            return _run_fock_once(scenario, n_max)
        except TruncationError:
            if n_max == N_MAX_LIMIT:
                raise
            n_max = min(2 * n_max, N_MAX_LIMIT)


def variance_deviation(scenario: CascadeScenario, n_max: int = 40) -> float:
    """Max |kernel - Fock| over each mode's homodyne variance at phase 0 (on
    the Q = 0 sector it is phase independent) and <ab>, NaN if either side
    gives NaN; the kernel's <ab> is (V_XaXb - V_YaYb + i (V_XaYb + V_YaXb)) / 4."""
    g = build_cascade(scenario)
    f = run_fock(scenario, n_max)
    deviations = [abs(homodyne_variance(g, mode) - fock.quadrature_variance(f, mode))
                  for mode in range(2)]
    cross = g.cov[:2, 2:]
    ab = complex(cross[0, 0] - cross[1, 1], cross[0, 1] + cross[1, 0]) / 4.0
    return float(np.max(deviations + [abs(ab - fock.pair_correlation(f))]))


def standard_battery() -> list[tuple[str, CascadeScenario]]:
    """The fixed circuit set used by the acceptance gate and the CLI.

    Two squeezer pairs, named by their squeeze parameters r (gain cosh r);
    phases {0, pi/2, pi}; per-arm losses from {0, 0.1, 0.5}.  The gains are
    chosen so every circuit, including the aligned-phase lossless one, is
    adequate at truncation 40; the adaptive doubling path is exercised
    separately by unit tests.
    """
    grid = [(l1, l2) for l1 in (0.0, 0.1, 0.5) for l2 in (0.0, 0.1, 0.5)]
    asym = [(0.0, 0.0), (0.1, 0.1), (0.5, 0.5), (0.1, 0.5), (0.5, 0.1)]
    stages = ((0.5, 0.5, (0.0, np.pi / 2.0, np.pi), grid),
              (0.7, 0.3, (np.pi / 2.0, np.pi), asym),
              (0.7, 0.3, (0.0,), [(0.0, 0.0)]))
    return [
        (f"r{r1}+{r2}_phi{phi:.2f}_L{l1}_{l2}",
         CascadeScenario(AmplifierParams(math.cosh(r1)), AmplifierParams(math.cosh(r2)),
                         ChannelParams(l1, l2, phi)))
        for r1, r2, phases, losses in stages
        for phi in phases
        for l1, l2 in losses
    ]


def paper_battery() -> list[tuple[str, CascadeScenario]]:
    """Circuits at criterion 3's operating point, the noise minimum the paper
    reports: prep gain 1.17, readout quantum gain 32 (15 dB), scan phase pi;
    losses 0.1/0.1 and one unequal pair, and a prep pump phase of 0.3 that
    moves the output off the minimum.  Only ``N_MAX_LIMIT`` is adequate
    here, so oracle-check starts it there; at phase 0 (the noise maximum)
    even that truncation refuses."""
    readout = AmplifierParams.from_quantum_gain(32.0)
    return [
        (f"mu1.17+gq32_phi3.14_L{l1}_{l2}_theta{theta}",
         CascadeScenario(AmplifierParams(1.17, theta), readout, ChannelParams(l1, l2, np.pi)))
        for l1, l2, theta in ((0.1, 0.1, 0.0), (0.1, 0.3, 0.0), (0.1, 0.1, 0.3))
    ]


@dataclass(frozen=True)
class BatteryResult:
    """Outcome of one battery run."""

    entries: list = field(default_factory=list)  # (name, deviation) pairs
    elapsed_s: float = 0.0

    @property
    def max_deviation(self) -> float:
        """The largest deviation, NaN if any is NaN, 0 for no entries."""
        return float(np.max([d for _, d in self.entries], initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_deviation < AGREEMENT_TOL

    @property
    def worst_circuit(self) -> str:
        if not self.entries:
            return ""
        return self.entries[int(np.argmax([d for _, d in self.entries]))][0]


def run_battery(battery=None, n_max: int = 40) -> BatteryResult:
    """Run the (standard) battery and collect per-circuit deviations."""
    if battery is None:
        battery = standard_battery()
    t0 = time.perf_counter()
    entries = [
        (name, variance_deviation(scenario, n_max=n_max)) for name, scenario in battery
    ]
    return BatteryResult(entries, time.perf_counter() - t0)
