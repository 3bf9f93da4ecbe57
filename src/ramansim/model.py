"""Two-stage amplifier cascade model.

The system is a pair of Raman parametric amplifiers acting on the Stokes
field (mode 0) and the collective atomic spin wave (mode 1).  Stage 1
("prep", gains mu/nu) correlates the two modes starting from vacuum; each
mode then suffers loss (L1 on the Stokes field, L2 on the spin wave); a
relative phase phi is scanned on the Stokes arm; stage 2 ("readout", gains
G/g) amplifies the pair and the Stokes output is measured by homodyne
detection.  One broadcasting kernel maps arrays of scan phase, prep gain
and readout gain to output moments for scans, fringes and build_cascade;
the phase minimum and the sweeps read the harmonics in phi of the output
variance from the inter-stage covariance instead.

With the X = a + a^dag scaling, a single stage seeded by an uncorrelated
(vacuum or coherent) Stokes input produces output variance 2G^2 - 1, the
quantum noise gain.  The figure of merit R is the minimum-over-phi cascade
output variance divided by that uncorrelated reference; R < 1 means the
pre-correlated input beats the standard amplification noise.

All noise levels in dB are 10*log10 of the linear value, vacuum = 0 dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gaussian import (
    GaussianState,
    _attenuate,
    _is_symplectic,
    _rotation_matrix,
    _squeezer_matrix,
    homodyne_variance,
)

#: scan_variable labels allowed on a NoiseTrace
SCAN_VARIABLES = ("phase", "pump_power", "quantum_gain")

#: loss-pairing variants of the closed-form noise reduction (see
#: closed_form_noise_reduction)
PAIRINGS = ("cascade", "swapped")


def linear_to_db(value):
    """10*log10 of a linear noise power (vacuum = 1 -> 0 dB)."""
    return 10.0 * np.log10(value)


def db_to_linear(value_db):
    """Inverse of :func:`linear_to_db`."""
    return 10.0 ** (np.asarray(value_db) / 10.0)


@dataclass(frozen=True)
class AmplifierParams:
    """One parametric amplifier stage.

    Args:
        gain: amplitude gain G >= 1 of the retained mode.
        pump_phase: pump phase theta; 0 keeps the convention that the
            cascade noise minimum sits at scan phase pi.
    """

    gain: float
    pump_phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.gain) or self.gain < 1.0:
            raise ValueError("gain must be finite and >= 1")
        if not np.isfinite(self.pump_phase):
            raise ValueError("pump_phase must be finite")

    @property
    def cross_gain(self) -> float:
        """Conjugate-mode gain g = sqrt(G^2 - 1)."""
        return math.sqrt(self.gain * self.gain - 1.0)

    @property
    def quantum_noise_gain(self) -> float:
        """Output noise of the stage for uncorrelated input: 2 G^2 - 1."""
        return 2.0 * self.gain * self.gain - 1.0

    @property
    def gain_ratio(self) -> float:
        """g / G, the knob that interpolates between the finite-gain (< 1)
        and ideal large-gain (-> 1) regimes."""
        return self.cross_gain / self.gain

    @classmethod
    def from_quantum_gain(cls, quantum_gain: float, pump_phase: float = 0.0) -> "AmplifierParams":
        """Build a stage from its quantum noise gain 2G^2 - 1 >= 1."""
        if not quantum_gain >= 1.0:
            raise ValueError("quantum_gain must be >= 1")
        return cls(math.sqrt((quantum_gain + 1.0) / 2.0), pump_phase)

    @classmethod
    def from_quantum_gain_db(cls, quantum_gain_db: float, pump_phase: float = 0.0) -> "AmplifierParams":
        """Build a stage from the quantum noise gain expressed in dB."""
        return cls.from_quantum_gain(float(db_to_linear(quantum_gain_db)), pump_phase)


def gain_ratio_from_quantum_gain(quantum_gain):
    """Map quantum noise gain to the gain ratio g / G.

    With gq = 2G^2 - 1 and g^2 = G^2 - 1 this is sqrt((gq - 1)/(gq + 1));
    it tends to 1 for large gain (infinity maps to exactly 1).
    """
    gq = np.asarray(quantum_gain, dtype=float)
    if not np.all(gq >= 1.0):
        raise ValueError("quantum_gain must be >= 1")
    out = np.where(np.isinf(gq), 1.0, np.sqrt((gq - 1.0) / np.where(np.isinf(gq), 2.0, gq + 1.0)))
    return float(out) if np.isscalar(quantum_gain) or np.ndim(quantum_gain) == 0 else out


@dataclass(frozen=True)
class PhysicalRamanParams:
    """Microscopic parameters of one Raman stage.

    The far-detuned pump drives a two-photon process with effective rate
    eta = coupling_eg * coupling_em * sqrt(atom_number) / detuning, and the
    stage gain is G = cosh(eta * pump_amplitude * interaction_time).
    """

    coupling_eg: float
    coupling_em: float
    detuning: float
    pump_amplitude: float
    interaction_time: float
    atom_number: float = 1.0

    def __post_init__(self):
        if self.coupling_eg <= 0 or self.coupling_em <= 0:
            raise ValueError("couplings must be positive")
        if self.detuning <= 0:
            raise ValueError("detuning must be positive (magnitude of the single-photon detuning)")
        if self.pump_amplitude < 0:
            raise ValueError("pump_amplitude must be non-negative")
        if self.interaction_time < 0:
            raise ValueError("interaction_time must be non-negative")
        if self.atom_number < 1:
            raise ValueError("atom_number must be >= 1")

    @property
    def effective_rate(self) -> float:
        return self.coupling_eg * self.coupling_em * math.sqrt(self.atom_number) / self.detuning

    @property
    def squeeze_parameter(self) -> float:
        return self.effective_rate * self.pump_amplitude * self.interaction_time

    def to_amplifier(self, pump_phase: float = 0.0) -> AmplifierParams:
        return AmplifierParams(math.cosh(self.squeeze_parameter), pump_phase)


def gain_from_pump_power(power: float, rate: float) -> float:
    """Stage gain at a given pump power: G = cosh(rate * sqrt(power)).

    The squeeze parameter grows with the pump field amplitude, i.e. with
    sqrt(power), which is the mapping used when a sweep is labelled
    "pump_power".
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if rate <= 0:
        raise ValueError("rate must be positive")
    return math.cosh(rate * math.sqrt(power))


@dataclass(frozen=True)
class ChannelParams:
    """Losses and phases between and after the two stages.

    Args:
        loss_stokes: fraction L1 of the Stokes field lost between stages.
        loss_spinwave: fraction L2 of the spin wave lost between stages
            (decoherence during the delay).
        scan_phase: phase phi applied to the Stokes arm between stages.
        output_loss: detection-path loss after the readout stage.
    """

    loss_stokes: float = 0.0
    loss_spinwave: float = 0.0
    scan_phase: float = 0.0
    output_loss: float = 0.0

    def __post_init__(self):
        for name in ("loss_stokes", "loss_spinwave", "output_loss"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not np.isfinite(self.scan_phase):
            raise ValueError("scan_phase must be finite")


@dataclass(frozen=True)
class CascadeScenario:
    """Full description of one cascade run."""

    prep: AmplifierParams
    readout: AmplifierParams
    channel: ChannelParams = field(default_factory=ChannelParams)
    seed_amplitude: complex = 0j

    def __post_init__(self):
        if not np.isfinite(self.seed_amplitude):
            raise ValueError("seed_amplitude must be finite")


@dataclass(frozen=True)
class NoiseTrace:
    """Sampled noise level (or noise-reduction ratio) along one scan axis."""

    scan_variable: str
    values: np.ndarray
    variance_linear: np.ndarray

    def __post_init__(self):
        if self.scan_variable not in SCAN_VARIABLES:
            raise ValueError(f"scan_variable must be one of {SCAN_VARIABLES}")
        values = np.atleast_1d(np.asarray(self.values, dtype=float)).copy()
        var = np.atleast_1d(np.asarray(self.variance_linear, dtype=float)).copy()
        if values.shape != var.shape or values.ndim != 1:
            raise ValueError("values and variance_linear must be matching 1-d arrays")
        if not np.all(var > 0.0):
            raise ValueError("variance_linear must be strictly positive")
        values.setflags(write=False)
        var.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "variance_linear", var)

    @property
    def variance_db(self) -> np.ndarray:
        return linear_to_db(self.variance_linear)


@dataclass(frozen=True)
class FringeTrace:
    """Interference fringe of a seeded cascade vs the scan phase.

    ``seed_intensity`` is the coherent (mean-field) photon number at the
    Stokes output; ``background`` is the seed-independent amplified-noise
    photon number.  They are kept separate because the seed term passes
    through exact zeros at destructive interference when the two paths
    balance.
    """

    phases: np.ndarray
    seed_intensity: np.ndarray
    background: np.ndarray

    def __post_init__(self):
        ph = np.atleast_1d(np.asarray(self.phases, dtype=float)).copy()
        si = np.atleast_1d(np.asarray(self.seed_intensity, dtype=float)).copy()
        bg = np.atleast_1d(np.asarray(self.background, dtype=float)).copy()
        if not (ph.shape == si.shape == bg.shape) or ph.ndim != 1:
            raise ValueError("phases, seed_intensity, background must be matching 1-d arrays")
        if np.any(si < -1e-12) or np.any(bg < -1e-12):
            raise ValueError("intensities must be non-negative")
        for a in (ph, si, bg):
            a.setflags(write=False)
        object.__setattr__(self, "phases", ph)
        object.__setattr__(self, "seed_intensity", si)
        object.__setattr__(self, "background", bg)

    @property
    def total_intensity(self) -> np.ndarray:
        return self.seed_intensity + self.background


# ---------------------------------------------------------------------------
# cascade pipeline


def _stage_squeezer(gain, pump_phase: float, name: str) -> np.ndarray:
    """One stage's squeezer, checked symplectic.  A gain too large for that at
    working precision is a range error naming ``name``; overflow is silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = _squeezer_matrix(gain, pump_phase)
        if _is_symplectic(s):
            return s
    raise ValueError(f"{name} {np.max(gain):g} is out of range: its squeezer is not "
                     "symplectic to working precision")


def _interstage_moments(scenario: CascadeScenario, prep_gain):
    """Mean ``(..., 4)`` and covariance ``(..., 4, 4)`` between the stages.

    vacuum -> coherent seed on the Stokes mode -> prep squeezer -> Stokes
    and spin-wave loss, none of which depends on the scan phase.
    ``prep_gain`` broadcasts and replaces the scenario's; the caller validates it.
    """
    ch = scenario.channel
    prep = _stage_squeezer(prep_gain, scenario.prep.pump_phase, "prep_gain")
    alpha = complex(scenario.seed_amplitude)
    # X = a + a^dag scaling: <X> = 2 Re alpha, <Y> = 2 Im alpha
    seed = np.array([2.0 * alpha.real, 2.0 * alpha.imag, 0.0, 0.0])
    return _attenuate(
        prep @ seed, prep @ np.swapaxes(prep, -1, -2),
        np.array([ch.loss_stokes, ch.loss_stokes, ch.loss_spinwave, ch.loss_spinwave]),
    )


def _cascade_moments(scenario: CascadeScenario, scan_phase, prep_gain, readout_gain):
    """Output mean ``(..., 4)`` and covariance ``(..., 4, 4)`` of the cascade.

    ``scan_phase``, ``prep_gain`` and ``readout_gain`` broadcast against
    each other and replace the scenario's own values; pump phases, losses
    and the seed come from ``scenario``.  After :func:`_interstage_moments`:
    scan phase on the Stokes arm -> readout squeezer -> output loss on the
    Stokes arm.  The caller validates the gains.
    """
    mean, cov = _interstage_moments(scenario, prep_gain)
    rot = np.broadcast_to(np.eye(4), np.shape(scan_phase) + (4, 4)).copy()
    rot[..., :2, :2] = _rotation_matrix(scan_phase)
    s = _stage_squeezer(readout_gain, scenario.readout.pump_phase, "readout gain") @ rot
    out = scenario.channel.output_loss
    mean, cov = _attenuate(
        (s @ mean[..., None])[..., 0], s @ cov @ np.swapaxes(s, -1, -2),
        np.array([out, out, 0.0, 0.0]),
    )
    return mean, 0.5 * (cov + np.swapaxes(cov, -1, -2))


def build_cascade(scenario: CascadeScenario) -> GaussianState:
    """Run the full cascade and return the output two-mode Gaussian state
    (see :func:`_cascade_moments` for the order of operations).  Loss
    ancillas are traced out implicitly by the channel update."""
    return GaussianState(*_cascade_moments(
        scenario, scenario.channel.scan_phase, scenario.prep.gain, scenario.readout.gain
    ))


def simulate_cascade_noise(scenario: CascadeScenario, lo_phase: float = 0.0) -> float:
    """Homodyne variance of the Stokes output of the cascade.

    The output Stokes mode is phase-insensitive (its reduced state carries
    no squeezing ellipse), so the value does not depend on ``lo_phase``;
    the argument is kept for explicitness in tests.
    """
    return homodyne_variance(build_cascade(scenario), 0, lo_phase)


def noise_vs_phase(scenario: CascadeScenario, n_points: int = 256) -> NoiseTrace:
    """Sample the cascade output variance over phi in [0, 2*pi).

    The variance is affine in cos(phi + const), so the extremes of the
    trace sit exactly pi apart; with both pump phases 0 the maximum is at
    phi = 0 and the minimum at phi = pi.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    phis = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    _, cov = _cascade_moments(scenario, phis, scenario.prep.gain, scenario.readout.gain)
    return NoiseTrace("phase", phis, cov[:, 0, 0])


class HarmonicFitError(RuntimeError):
    """A phase trace that must be a first harmonic in phi is not one."""


#: second harmonic, relative to the mean level, accepted as rounding (the
#: cascade leaves ~1e-16); it moves the minimum far less than the 1e-8 contract
_HARMONIC_RTOL = 1e-10


def _harmonic_min(scenario: CascadeScenario, prep_gain, readout_gain):
    """(phi_min, minimum) of the output Stokes X variance over phi; the
    gains broadcast.  With C the inter-stage covariance, (p, q) the Stokes
    row of the readout squeezer in Stokes and spin-wave halves, and T, L the
    output transmission and loss, V(phi) = a + b cos(phi) + c sin(phi) with

        a = T (tr(C_aa) |p|^2 / 2 + q^T C_bb q) + L,
        b - i c = 2T (p0 - i p1) (C_ab q)_0 + 2T (p1 + i p0) (C_ab q)_1

    (the cross term 2 p^T R(phi) C_ab q); the minimum is a - hypot(b, c) at
    atan2(-c, -b).  An anisotropic C_aa adds the second harmonic
    T |p|^2 hypot((C00 - C11)/2, C01); above _HARMONIC_RTOL * a, or with a
    coefficient not finite, this raises HarmonicFitError.
    """
    _, cov = _interstage_moments(scenario, prep_gain)
    row = _stage_squeezer(readout_gain, scenario.readout.pump_phase, "readout gain")[..., 0, :]
    p0, p1, q = row[..., 0], row[..., 1], row[..., 2:]
    t, loss = 1.0 - scenario.channel.output_loss, scenario.channel.output_loss
    c00, c01, c11 = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
    p_sq = p0 * p0 + p1 * p1
    w = (cov[..., :2, 2:] @ q[..., None])[..., 0]
    qcq = (q[..., None, :] @ cov[..., 2:, 2:] @ q[..., None])[..., 0, 0]
    a = t * (0.5 * (c00 + c11) * p_sq + qcq) + loss
    z = 2.0 * t * ((p0 - 1j * p1) * w[..., 0] + (p1 + 1j * p0) * w[..., 1])
    b, c = z.real, -z.imag
    second = t * p_sq * np.hypot(0.5 * (c00 - c11), c01)
    if not np.all((second <= _HARMONIC_RTOL * a) & np.isfinite(a) & np.isfinite(z)):
        raise HarmonicFitError(f"phase trace is not a first harmonic: second harmonic up "
                               f"to {np.max(second):.3e}, mean level from {np.min(a):.3e}")
    return np.arctan2(-c, -b) % (2.0 * np.pi), a - np.hypot(b, c)


def min_noise_over_phase(scenario: CascadeScenario) -> tuple[float, float]:
    """Minimum cascade output variance over the scan phase, as
    (phi_min, variance_min).

    The Stokes block between the stages is isotropic whatever the pump
    phases, losses, output loss and seed, so the output variance is a first
    harmonic in phi whose coefficients come from the inter-stage
    covariance (:func:`_harmonic_min`); a trace that is not one raises
    :class:`HarmonicFitError`.  For a prep gain of exactly 1 the trace is
    flat, the variance is the uncorrelated reference
    (:func:`reference_variance`) and the phase carries no information.
    """
    phi_min, var_min = _harmonic_min(scenario, scenario.prep.gain, scenario.readout.gain)
    return float(phi_min), float(var_min)


def reference_variance(scenario: CascadeScenario) -> float:
    """Uncorrelated-input reference: the readout stage driven by vacuum,
    measured through the same output loss (2G^2 - 1 when lossless)."""
    return _reference_variance(scenario.readout.quantum_noise_gain, scenario.channel.output_loss)


def _reference_variance(quantum_gain, output_loss: float):
    return (1.0 - output_loss) * quantum_gain + output_loss


def noise_reduction_ratio(scenario: CascadeScenario) -> float:
    """R: minimum-over-phase cascade variance over the uncorrelated
    reference.  R < 1 is the noise reduction from the pre-correlation."""
    _, var_min = min_noise_over_phase(scenario)
    return var_min / reference_variance(scenario)


# ---------------------------------------------------------------------------
# closed forms


def noise_reduction_regressors(quantum_gain) -> np.ndarray:
    """Columns ``(1, 1/(1 + lambda^2), lambda/(1 + lambda^2))``, shape
    ``(..., 3)``, in which R is exactly linear (see
    :func:`noise_reduction_coefficients`); gq = infinity gives lambda = 1."""
    lam = np.asarray(gain_ratio_from_quantum_gain(quantum_gain), dtype=float)
    denom = 1.0 + lam * lam
    return np.stack([np.ones_like(lam), 1.0 / denom, lam / denom], axis=-1)


def noise_reduction_coefficients(prep_gain, loss_stokes, loss_spinwave, pairing: str = "cascade"):
    """Coefficients (alpha, beta, gamma) of R on :func:`noise_reduction_regressors`.

    With nu = sqrt(mu^2 - 1), u = 2 nu^2 and T_i = 1 - L_i:

        alpha = 1 + u T2,  beta = u (L2 - L1),  gamma = -4 mu nu sqrt(T1 T2)

    for the "cascade" pairing; "swapped" exchanges L1 and L2.  Scalar or
    broadcastable array arguments are accepted.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}")
    mu = np.asarray(prep_gain, dtype=float)
    l1 = np.asarray(loss_stokes, dtype=float)
    l2 = np.asarray(loss_spinwave, dtype=float)
    if not np.all(mu >= 1.0):
        raise ValueError("prep_gain must be >= 1")
    for name, l in (("loss_stokes", l1), ("loss_spinwave", l2)):
        if not np.all((l >= 0.0) & (l <= 1.0)):
            raise ValueError(f"{name} must be within [0, 1]")
    if pairing == "swapped":
        l1, l2 = l2, l1
    nu2 = mu * mu - 1.0
    u = 2.0 * nu2
    return 1.0 + u * (1.0 - l2), u * (l2 - l1), -4.0 * mu * np.sqrt(nu2 * (1.0 - l1) * (1.0 - l2))


def closed_form_noise_reduction(
    prep_gain,
    loss_stokes,
    loss_spinwave,
    quantum_gain,
    pairing: str = "cascade",
):
    """Closed-form noise reduction R(mu, L1, L2, gq).

    With lambda = sqrt((gq - 1)/(gq + 1)), nu = sqrt(mu^2 - 1) and
    T_i = 1 - L_i:

        R = mu^2 + nu^2 - 2 nu^2 w(L1, L2) / (1 + lambda^2)
            - 4 lambda mu nu sqrt(T1 T2) / (1 + lambda^2)

    where the loss weighting w is ``L1 + lambda^2 L2`` for the default
    "cascade" pairing and ``L2 + lambda^2 L1`` for "swapped".  The cascade
    pairing is the one that reproduces the squeezer/loss/phase pipeline
    exactly (the two coincide when L1 = L2); the swapped variant is kept
    for comparison against data reduced under the other convention.

    R is evaluated as alpha + beta/(1 + lambda^2) + gamma lambda/(1 + lambda^2)
    through :func:`noise_reduction_coefficients` and
    :func:`noise_reduction_regressors`, the linear form the fitter solves.
    Scalar or broadcastable array arguments are accepted.
    """
    alpha, beta, gamma = noise_reduction_coefficients(prep_gain, loss_stokes, loss_spinwave, pairing)
    x = noise_reduction_regressors(quantum_gain)
    r = alpha * x[..., 0] + beta * x[..., 1] + gamma * x[..., 2]
    return float(r) if r.ndim == 0 else r


def joint_quadrature_variance(prep_gain: float, loss_stokes: float, loss_spinwave: float) -> float:
    """Variance of the summed Stokes/spin-wave quadrature after the prep
    stage and the inter-stage losses.

    This is the infinite-readout-gain limit of 2R: the readout stage at
    lambda -> 1 measures exactly this joint quadrature.  Uncorrelated
    vacuum gives 2; values below 2 certify the correlation.

    X+/2 = mu^2 + nu^2 - nu^2 (L1 + L2) - 2 mu nu sqrt(T1 T2) is summed from
    non-negative terms, nu^2 (sqrt T1 - sqrt T2)^2 +
    [1/(mu + nu) + 2 nu (L1 + L2 - L1 L2)/(1 + sqrt(T1 T2))]/(mu + nu), which
    keep their precision at large gain, where the direct form cancels to 0.
    """
    mu = float(prep_gain)
    if not mu >= 1.0:
        raise ValueError("prep_gain must be >= 1")
    l1, l2 = loss_stokes, loss_spinwave
    for name, l in (("loss_stokes", l1), ("loss_spinwave", l2)):
        if not 0.0 <= l <= 1.0:
            raise ValueError(f"{name} must be within [0, 1]")
    nu = math.sqrt((mu - 1.0) * (mu + 1.0))
    s = mu + nu
    x_plus = 2.0 * nu * nu * (math.sqrt(1.0 - l1) - math.sqrt(1.0 - l2)) ** 2 + 2.0 * (
        1.0 / s + 2.0 * nu * (l1 + l2 - l1 * l2) / (1.0 + math.sqrt((1.0 - l1) * (1.0 - l2)))
    ) / s
    if not math.isfinite(x_plus):
        raise ValueError(f"prep_gain {mu:g} is out of range: X+ overflows")
    return x_plus


def correlation_estimate_from_ratio(noise_ratio: float, quantum_gain: float) -> float:
    """Single-point estimate of the joint quadrature variance from one
    measured R at finite gain: 2R.  Because R decreases toward the
    lambda -> 1 limit (for equal losses, and generically near lambda = 1),
    this estimate is an upper bound on the true value."""
    if not 0 < noise_ratio < math.inf:
        raise ValueError("noise_ratio must be positive and finite")
    if not quantum_gain >= 1.0:
        raise ValueError("quantum_gain must be >= 1")
    return 2.0 * float(noise_ratio)


# ---------------------------------------------------------------------------
# sweeps and fringes


def prep_gain_sweep(
    prep_gains: Sequence[float],
    readout: AmplifierParams,
    channel: ChannelParams,
) -> NoiseTrace:
    """Noise reduction R for each prep-stage gain in ``prep_gains``.

    The abscissa is the stage-1 amplitude gain mu, the monotone image
    cosh(rate*sqrt(P)) of pump power; the trace is labelled "pump_power".
    """
    gains = _gain_array(prep_gains, "prep_gains")
    base = CascadeScenario(AmplifierParams(1.0), readout, channel)
    _, var_min = _harmonic_min(base, gains, readout.gain)
    return NoiseTrace("pump_power", gains, var_min / reference_variance(base))


def quantum_gain_sweep(
    quantum_gains: Sequence[float],
    prep: AmplifierParams,
    channel: ChannelParams,
) -> NoiseTrace:
    """Noise reduction R vs the readout quantum noise gain, at fixed prep.

    As the readout gain grows, R approaches half the joint quadrature
    variance of the prepared state (the lambda -> 1 limit)."""
    gqs = _gain_array(quantum_gains, "quantum_gains")
    base = CascadeScenario(prep, AmplifierParams(1.0), channel)
    _, var_min = _harmonic_min(base, prep.gain, np.sqrt((gqs + 1.0) / 2.0))
    return NoiseTrace("quantum_gain", gqs, var_min / _reference_variance(gqs, channel.output_loss))


def _gain_array(values, name: str) -> np.ndarray:
    """A sweep's gains as a non-empty 1-d array of finite values >= 1."""
    out = np.atleast_1d(np.asarray(values, dtype=float))
    if out.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(out) & (out >= 1.0)):
        raise ValueError(f"{name} must be finite and >= 1")
    return out


def fringe_scan(scenario: CascadeScenario, n_points: int = 256) -> FringeTrace:
    """Seeded-interferometer fringe: Stokes output intensity vs scan phase.

    Requires a nonzero coherent seed.  The seed term is
    |A e^{i phi} + B|^2 = A^2 + B^2 + 2 A B cos(phi) with
    A = G mu sqrt(T1) |alpha| and B = g nu sqrt(T2) |alpha|; the reported
    background is the seed-independent amplified noise photon number.
    """
    if scenario.seed_amplitude == 0:
        raise ValueError(
            "fringe_scan needs a nonzero seed_amplitude; for vacuum-seeded "
            "noise scans use noise_vs_phase"
        )
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    phis = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    mean, cov = _cascade_moments(scenario, phis, scenario.prep.gain, scenario.readout.gain)
    # |<a>|^2 = (<X>^2 + <Y>^2)/4; noise photons (V_XX + V_YY - 2)/4
    seed = (mean[:, 0] ** 2 + mean[:, 1] ** 2) / 4.0
    return FringeTrace(phis, seed, (cov[:, 0, 0] + cov[:, 1, 1] - 2.0) / 4.0)


def fringe_visibility(scenario: CascadeScenario) -> float:
    """Visibility (max-min)/(max+min) of the seed fringe: 2AB/(A^2+B^2).

    Zero when either interfering path vanishes (prep gain 1, i.e. nu = 0,
    or a fully blocked arm)."""
    ch = scenario.channel
    a = (
        scenario.readout.gain
        * scenario.prep.gain
        * math.sqrt(1.0 - ch.loss_stokes)
        * abs(scenario.seed_amplitude)
    )
    b = (
        scenario.readout.cross_gain
        * scenario.prep.cross_gain
        * math.sqrt(1.0 - ch.loss_spinwave)
        * abs(scenario.seed_amplitude)
    )
    denom = a * a + b * b
    if denom == 0.0:
        return 0.0
    return 2.0 * a * b / denom
