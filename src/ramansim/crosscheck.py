"""Cross-validation of the Gaussian engine against the Fock oracle.

A circuit is a flat sequence of Squeeze / Loss / Rotate instructions; the
same sequence is executed covariance-side and number-basis-side and the
homodyne variances of the outputs are compared.  The Fock side is a pure
state throughout: each lossy step appends a vacuum environment mode to
it.  The Fock run retries with a doubled truncation (40 -> 80 -> 160)
whenever a step reports an inadequate edge population, and refuses
beyond the cap rather than returning an unconverged number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .fock import TruncationError
from .gaussian import (
    GaussianState,
    LossChannel,
    apply_loss,
    apply_symplectic,
    homodyne_variance,
    phase_shift,
    two_mode_squeezer,
    vacuum,
)

#: tolerance on the Gaussian-vs-Fock variance deviation
AGREEMENT_TOL = 1e-6

#: largest Fock truncation the doubling tries before refusing
N_MAX_LIMIT = 160

#: homodyne phases at which each circuit output is compared
_CHECK_PHASES = (0.0, np.pi / 2.0)


@dataclass(frozen=True)
class Squeeze:
    r: float
    theta: float = 0.0
    modes: tuple[int, int] = (0, 1)


@dataclass(frozen=True)
class Loss:
    mode: int
    loss: float


@dataclass(frozen=True)
class Rotate:
    mode: int
    phi: float


Circuit = tuple


def run_gaussian(circuit, n_modes: int = 2) -> GaussianState:
    """Execute a circuit on the covariance-matrix engine."""
    state = vacuum(n_modes)
    for op in circuit:
        if isinstance(op, Squeeze):
            state = apply_symplectic(
                state,
                two_mode_squeezer(op.modes[0], op.modes[1], np.cosh(op.r), op.theta, n_modes),
            )
        elif isinstance(op, Loss):
            if op.loss > 0:
                state = apply_loss(state, LossChannel(op.mode, op.loss))
        elif isinstance(op, Rotate):
            state = apply_symplectic(state, phase_shift(op.mode, op.phi, n_modes))
        else:
            raise TypeError(f"unknown circuit op {op!r}")
    return state


def _run_fock_once(circuit, n_modes: int, n_max: int):
    state = fock.vacuum_state(n_modes, n_max)
    for op in circuit:
        if isinstance(op, Squeeze):
            state = fock.apply_two_mode_squeeze(state, op.r, op.theta, op.modes)
        elif isinstance(op, Loss):
            state = fock.apply_loss(state, op.mode, op.loss)
        elif isinstance(op, Rotate):
            state = fock.apply_phase_rotation(state, op.mode, op.phi)
        else:
            raise TypeError(f"unknown circuit op {op!r}")
    return state


def run_fock(circuit, n_modes: int = 2, n_max: int = 40) -> fock.FockState:
    """Execute a circuit on the Fock oracle, doubling the truncation until
    every step keeps the edge population below tolerance.

    The returned state has the circuit's ``n_modes`` modes first, followed
    by one environment mode per nonzero loss, in circuit order.

    Raises:
        TruncationError: the circuit still fails at ``N_MAX_LIMIT``.
    """
    n = n_max
    while True:
        try:
            return _run_fock_once(circuit, n_modes, n)
        except TruncationError:
            if 2 * n > N_MAX_LIMIT:
                raise
            n *= 2


def variance_deviation(circuit, n_modes: int = 2, n_max: int = 40) -> float:
    """Max |Gaussian - Fock| homodyne variance over modes and phases."""
    g = run_gaussian(circuit, n_modes)
    f = run_fock(circuit, n_modes, n_max)
    worst = 0.0
    for mode in range(n_modes):
        for phase in _CHECK_PHASES:
            gv = homodyne_variance(g, mode, phase)
            fv = fock.quadrature_variance(f, mode, phase)
            worst = max(worst, abs(gv - fv))
    return worst


def standard_battery() -> list[tuple[str, Circuit]]:
    """The fixed circuit set used by the acceptance gate and the CLI.

    Two squeezer-gain pairs; phases {0, pi/2, pi}; per-arm losses from
    {0, 0.1, 0.5}.  The gains are chosen so every circuit, including the
    aligned-phase lossless one, is adequate at truncation 40; the adaptive
    doubling path is exercised separately by unit tests.
    """
    battery: list[tuple[str, Circuit]] = []
    loss_grid = [(l1, l2) for l1 in (0.0, 0.1, 0.5) for l2 in (0.0, 0.1, 0.5)]
    for phi in (0.0, np.pi / 2.0, np.pi):
        for l1, l2 in loss_grid:
            name = f"r0.5+0.5_phi{phi:.2f}_L{l1}_{l2}"
            battery.append(
                (
                    name,
                    (
                        Squeeze(0.5),
                        Loss(0, l1),
                        Loss(1, l2),
                        Rotate(0, phi),
                        Squeeze(0.5),
                    ),
                )
            )
    asym_losses = [(0.0, 0.0), (0.1, 0.1), (0.5, 0.5), (0.1, 0.5), (0.5, 0.1)]
    for phi in (np.pi / 2.0, np.pi):
        for l1, l2 in asym_losses:
            name = f"r0.7+0.3_phi{phi:.2f}_L{l1}_{l2}"
            battery.append(
                (
                    name,
                    (
                        Squeeze(0.7),
                        Loss(0, l1),
                        Loss(1, l2),
                        Rotate(0, phi),
                        Squeeze(0.3),
                    ),
                )
            )
    battery.append(
        ("r0.7+0.3_phi0.00_L0.0_0.0", (Squeeze(0.7), Rotate(0, 0.0), Squeeze(0.3)))
    )
    return battery


@dataclass(frozen=True)
class BatteryResult:
    """Outcome of one battery run."""

    entries: list = field(default_factory=list)  # (name, deviation) pairs
    elapsed_s: float = 0.0

    @property
    def max_deviation(self) -> float:
        return max((d for _, d in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation < AGREEMENT_TOL

    @property
    def worst_circuit(self) -> str:
        if not self.entries:
            return ""
        return max(self.entries, key=lambda e: e[1])[0]


def run_battery(battery=None, n_max: int = 40) -> BatteryResult:
    """Run the (standard) battery and collect per-circuit deviations."""
    if battery is None:
        battery = standard_battery()
    t0 = time.perf_counter()
    entries = [
        (name, variance_deviation(circuit, n_max=n_max)) for name, circuit in battery
    ]
    return BatteryResult(entries, time.perf_counter() - t0)
