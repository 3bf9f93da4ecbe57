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
    NumericalError,
    _attenuate,
    _check_integer,
    _every,
    _rotation_matrix,
    _squeezer_matrix,
)

#: loss-pairing variants of the closed-form noise reduction (see
#: closed_form_noise_reduction)
PAIRINGS = ("cascade", "swapped")
_FLOAT_MAX = np.finfo(float).max


def linear_to_db(value):
    """10*log10 of a linear noise power (vacuum = 1 -> 0 dB)."""
    return 10.0 * np.log10(value)


def db_to_linear(value_db):
    """Inverse of :func:`linear_to_db`."""
    return 10.0 ** (np.asarray(value_db) / 10.0)


def _quantum_noise_gain(gain):
    """2 G^2 - 1, a stage's output noise for uncorrelated input; broadcasts."""
    return 2.0 * gain * gain - 1.0


def _stage_gain(quantum_gain):
    """G = sqrt((gq + 1)/2), the inverse of :func:`_quantum_noise_gain`; broadcasts."""
    return np.sqrt((quantum_gain + 1.0) / 2.0)


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
        return _quantum_noise_gain(self.gain)

    @classmethod
    def from_quantum_gain(cls, quantum_gain: float, pump_phase: float = 0.0) -> "AmplifierParams":
        """Build a stage from its quantum noise gain 2G^2 - 1 >= 1."""
        if not quantum_gain >= 1.0:
            raise ValueError("quantum_gain must be >= 1")
        return cls(float(_stage_gain(quantum_gain)), pump_phase)

    @classmethod
    def from_quantum_gain_db(cls, quantum_gain_db: float, pump_phase: float = 0.0) -> "AmplifierParams":
        """Build a stage from the quantum noise gain expressed in dB; a dB
        value that overflows the linear gain is rejected as not finite."""
        with np.errstate(over="ignore"):
            return cls.from_quantum_gain(float(db_to_linear(quantum_gain_db)), pump_phase)


def gain_ratio_from_quantum_gain(quantum_gain):
    """Map quantum noise gain to the gain ratio g / G.

    With gq = 2G^2 - 1 and g^2 = G^2 - 1 this is sqrt((gq - 1)/(gq + 1));
    it tends to 1 for large gain (gq is clamped to the largest float, so infinity maps to exactly 1).
    """
    gq = np.asarray(quantum_gain, dtype=float)[()]
    if not _every(gq >= 1.0):
        raise ValueError("quantum_gain must be >= 1")
    gq = np.minimum(gq, _FLOAT_MAX)
    out = np.sqrt((gq - 1.0) / (gq + 1.0))
    return float(out) if out.ndim == 0 else out


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

    values: np.ndarray
    variance_linear: np.ndarray

    def __post_init__(self):
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
        if not np.all(np.isfinite(si) & np.isfinite(bg) & (si >= -1e-12) & (bg >= -1e-12)):
            raise ValueError("intensities must be finite and non-negative")
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


def _interstage_moments(scenario: CascadeScenario, prep_gain, seed=None):
    """Mean ``(..., 4)`` and covariance ``(..., 4, 4)`` between the stages.

    vacuum displaced to the quadrature means ``seed`` (None: no mean is
    computed) -> prep squeezer -> Stokes and spin-wave loss, none of which
    depends on the scan phase.  ``prep_gain`` broadcasts and replaces the
    scenario's; the caller validates it.
    """
    ch = scenario.channel
    prep = _squeezer_matrix(prep_gain, scenario.prep.pump_phase, "prep_gain")
    return _attenuate(
        None if seed is None else prep @ seed, prep @ prep.swapaxes(-1, -2),
        np.array([ch.loss_stokes, ch.loss_stokes, ch.loss_spinwave, ch.loss_spinwave]),
    )


def _cascade_moments(scenario: CascadeScenario, scan_phase):
    """Output mean ``(..., 4)`` and covariance ``(..., 4, 4)`` of the cascade.

    ``scan_phase`` may be an array and replaces the scenario's own value;
    everything else comes from ``scenario``.  After
    :func:`_interstage_moments` from the coherent seed: scan phase on the
    Stokes arm -> readout squeezer -> output loss on the Stokes arm.
    """
    alpha = complex(scenario.seed_amplitude)  # X = a + a^dag: <X> = 2 Re alpha, <Y> = 2 Im alpha
    seed = np.array([2.0 * alpha.real, 2.0 * alpha.imag, 0.0, 0.0])
    mean, cov = _interstage_moments(scenario, scenario.prep.gain, seed)
    rot = np.broadcast_to(np.eye(4), np.shape(scan_phase) + (4, 4)).copy()
    rot[..., :2, :2] = _rotation_matrix(scan_phase)
    s = _squeezer_matrix(scenario.readout.gain, scenario.readout.pump_phase, "readout gain") @ rot
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
    return GaussianState(*_cascade_moments(scenario, scenario.channel.scan_phase))


def noise_vs_phase(scenario: CascadeScenario, n_points: int = 256) -> NoiseTrace:
    """Sample the cascade output variance over phi in [0, 2*pi).

    The variance is affine in cos(phi + const), so the extremes of the
    trace sit exactly pi apart; with both pump phases 0 the maximum is at
    phi = 0 and the minimum at phi = pi.
    """
    phis = _scan_phases(n_points)
    _, cov = _cascade_moments(scenario, phis)
    return NoiseTrace(phis, cov[:, 0, 0])


def _scan_phases(n_points) -> np.ndarray:
    """``n_points`` (an integer >= 2) scan phases evenly spaced over [0, 2*pi)."""
    _check_integer("n_points", n_points, 2)
    return np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)


class HarmonicFitError(NumericalError):
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
        b = p0 w0 + p1 w1,  c = p1 w0 - p0 w1,  w = 2T C_ab q

    (the cross term 2 p^T R(phi) C_ab q); the minimum is a - hypot(b, c) at
    atan2(-c, -b).  An anisotropic C_aa adds the second harmonic
    T |p|^2 hypot((C00 - C11)/2, C01); above _HARMONIC_RTOL * a, or with a
    coefficient not finite, this raises HarmonicFitError.  Each call computes
    C, without the inter-stage mean, and the readout row from squeezers whose
    P(theta) is cached, and reads C_ab q and C_bb q from one product.
    """
    _, cov = _interstage_moments(scenario, prep_gain)
    row = _squeezer_matrix(readout_gain, scenario.readout.pump_phase, "readout gain")[..., 0, :]
    p0, p1, q = row[..., 0][()], row[..., 1][()], row[..., 2:]
    t, loss = 1.0 - scenario.channel.output_loss, scenario.channel.output_loss
    c00, c01, c11 = cov[..., 0, 0][()], cov[..., 0, 1][()], cov[..., 1, 1][()]
    p_sq = p0 * p0 + p1 * p1
    cq = cov[..., 2:] @ q[..., None]  # C_ab q stacked over C_bb q
    w0, w1 = 2.0 * t * cq[..., 0, 0][()], 2.0 * t * cq[..., 1, 0][()]
    qcq = (q[..., None, :] @ cq[..., 2:, :])[..., 0, 0][()]
    a = t * (0.5 * (c00 + c11) * p_sq + qcq) + loss
    b, c = p0 * w0 + p1 * w1, p1 * w0 - p0 * w1
    second = t * p_sq * np.hypot(0.5 * (c00 - c11), c01)
    minimum = a - np.hypot(b, c)  # not finite when any of a, b, c is not
    if not _every((second <= _HARMONIC_RTOL * a) & np.isfinite(minimum)):
        raise HarmonicFitError(f"phase trace is not a first harmonic: second harmonic up "
                               f"to {np.max(second):.3e}, mean level from {np.min(a):.3e}")
    return np.arctan2(-c, -b) % (2.0 * np.pi), minimum


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


# ---------------------------------------------------------------------------
# closed forms


def _gain_columns(quantum_gain):
    """The last two columns of :func:`noise_reduction_regressors`, unstacked."""
    lam = gain_ratio_from_quantum_gain(quantum_gain)
    denom = 1.0 + lam * lam
    return 1.0 / denom, lam / denom


def noise_reduction_regressors(quantum_gain) -> np.ndarray:
    """Columns ``(1, 1/(1 + lambda^2), lambda/(1 + lambda^2))``, shape
    ``(..., 3)``, in which R is exactly linear (see
    :func:`noise_reduction_coefficients`); gq = infinity gives lambda = 1."""
    x1, x2 = _gain_columns(quantum_gain)
    return np.stack([np.ones_like(x1), x1, x2], axis=-1)


#: largest prep gain whose closed-form terms, up to 4 mu^2, stay finite
_PREP_GAIN_MAX = math.sqrt(_FLOAT_MAX) / 2.0


def _check_prep_and_losses(prep_gain, loss_stokes, loss_spinwave):
    """(mu, L1, L2) as float arrays, a scalar as an np.float64; a prep gain below 1 or above
    _PREP_GAIN_MAX or a loss outside [0, 1], NaN included, is rejected.
    One reduction accepts; the failing value is found only after."""
    mu = np.asarray(prep_gain, dtype=float)[()]
    l1 = np.asarray(loss_stokes, dtype=float)[()]
    l2 = np.asarray(loss_spinwave, dtype=float)[()]
    if _every((mu >= 1.0) & (mu <= _PREP_GAIN_MAX) & (l1 >= 0.0) & (l1 <= 1.0)
              & (l2 >= 0.0) & (l2 <= 1.0)):
        return mu, l1, l2
    if not np.all(mu >= 1.0):
        raise ValueError("prep_gain must be >= 1")
    if not np.all(mu <= _PREP_GAIN_MAX):
        raise ValueError(f"prep_gain {np.max(mu):g} is out of range: the closed form overflows")
    for name, l in (("loss_stokes", l1), ("loss_spinwave", l2)):
        if not np.all((l >= 0.0) & (l <= 1.0)):
            raise ValueError(f"{name} must be within [0, 1]")


def _coefficients(u, v, s1, s2):
    """R's coefficients at u = 2 nu^2, v = 2 mu nu, s_i = sqrt(T_i), broadcast: alpha = 1 + u T2,
    beta = u (T1 - T2), gamma = -2 v s1 s2.  The fit passes u = 2 sinh^2 t, v = sinh 2t at
    t = arcsinh(nu): mu = cosh t rounds away t below ~1e-8, where R still moves at first order."""
    return 1.0 + u * (s2 * s2), u * (s1 * s1 - s2 * s2), -2.0 * v * (s1 * s2)


def noise_reduction_coefficients(prep_gain, loss_stokes, loss_spinwave, pairing: str = "cascade"):
    """Coefficients (alpha, beta, gamma) of R on :func:`noise_reduction_regressors`:
    :func:`_coefficients` at nu = sqrt(mu^2 - 1) and T_i = 1 - L_i for the "cascade"
    pairing; "swapped" exchanges L1 and L2.  Scalar or broadcastable array arguments
    are accepted.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}")
    mu, l1, l2 = _check_prep_and_losses(prep_gain, loss_stokes, loss_spinwave)
    if pairing == "swapped":
        l1, l2 = l2, l1
    nu2 = (mu - 1.0) * (mu + 1.0)
    return _coefficients(2.0 * nu2, 2.0 * mu * np.sqrt(nu2), np.sqrt(1.0 - l1), np.sqrt(1.0 - l2))


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
    through :func:`noise_reduction_coefficients` and the columns of
    :func:`noise_reduction_regressors`, the linear form the fitter solves.
    Scalar or broadcastable array arguments are accepted.
    """
    alpha, beta, gamma = noise_reduction_coefficients(prep_gain, loss_stokes, loss_spinwave, pairing)
    x1, x2 = _gain_columns(quantum_gain)
    r = alpha + beta * x1 + gamma * x2
    return float(r) if r.ndim == 0 else r


def joint_quadrature_variance(prep_gain, loss_stokes, loss_spinwave):
    """Variance of the summed Stokes/spin-wave quadrature after the prep
    stage and the inter-stage losses; scalars give a float, arrays broadcast.

    This is the infinite-readout-gain limit of 2R: the readout stage at
    lambda -> 1 measures exactly this joint quadrature.  Uncorrelated
    vacuum gives 2; values below 2 certify the correlation.

    X+/2 = mu^2 + nu^2 - nu^2 (L1 + L2) - 2 mu nu sqrt(T1 T2) is summed from
    non-negative terms, nu^2 (sqrt T1 - sqrt T2)^2 +
    [1/(mu + nu) + 2 nu (L1 + L2 - L1 L2)/(1 + sqrt(T1 T2))]/(mu + nu), which
    keep their precision at large gain, where the direct form cancels to 0.
    """
    mu, l1, l2 = _check_prep_and_losses(prep_gain, loss_stokes, loss_spinwave)
    nu = np.sqrt((mu - 1.0) * (mu + 1.0))
    s, d = mu + nu, np.sqrt(1.0 - l1) - np.sqrt(1.0 - l2)
    x_plus = 2.0 * nu * nu * (d * d) + 2.0 * (
        1.0 / s + 2.0 * nu * (l1 + l2 - l1 * l2) / (1.0 + np.sqrt((1.0 - l1) * (1.0 - l2)))
    ) / s
    return float(x_plus) if np.ndim(x_plus) == 0 else x_plus


def correlation_estimate_from_ratio(noise_ratio: float) -> float:
    """Single-point estimate of the joint quadrature variance from one
    measured R at finite gain: 2R.  Because R decreases toward the
    lambda -> 1 limit (for equal losses, and generically near lambda = 1),
    this estimate is an upper bound on the true value."""
    if not 0 < noise_ratio < math.inf:
        raise ValueError("noise_ratio must be positive and finite")
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
    cosh(rate*sqrt(P)) of pump power.
    """
    gains = _gain_array(prep_gains, "prep_gains")
    base = CascadeScenario(AmplifierParams(1.0), readout, channel)
    _, var_min = _harmonic_min(base, gains, readout.gain)
    return NoiseTrace(gains, var_min / reference_variance(base))


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
    gains = _stage_gain(gqs)  # the reference is their 2G^2 - 1, as reference_variance's
    ref = _reference_variance(_quantum_noise_gain(gains), channel.output_loss)
    return NoiseTrace(gqs, _harmonic_min(base, prep.gain, gains)[1] / ref)


def _gain_array(values, name: str) -> np.ndarray:
    """A sweep's gains as a non-empty 1-d array of finite values >= 1."""
    out = np.atleast_1d(np.asarray(values, dtype=float))
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence, got shape {out.shape}")
    if not np.all(np.isfinite(out) & (out >= 1.0)):
        raise ValueError(f"{name} must be finite and >= 1")
    return out


def fringe_scan(scenario: CascadeScenario, n_points: int = 256) -> FringeTrace:
    """Seeded-interferometer fringe: Stokes output intensity vs scan phase.

    Requires a nonzero coherent seed whose intensity is finite.  The seed
    term is |A e^{i phi} + B|^2 = A^2 + B^2 + 2 A B cos(phi) with
    A = G mu sqrt(T1) |alpha| and B = g nu sqrt(T2) |alpha|; the reported
    background is the seed-independent amplified noise photon number.
    """
    if scenario.seed_amplitude == 0:
        raise ValueError(
            "fringe_scan needs a nonzero seed_amplitude; for a vacuum-seeded "
            "noise scan use noise_vs_phase (the noise-scan command)"
        )
    phis = _scan_phases(n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = _cascade_moments(scenario, phis)
        # |<a>|^2 = (<X>^2 + <Y>^2)/4; noise photons (V_XX + V_YY - 2)/4
        seed = (mean[:, 0] ** 2 + mean[:, 1] ** 2) / 4.0
    if not np.all(np.isfinite(seed)):
        raise _seed_range_error(scenario)
    return FringeTrace(phis, seed, (cov[:, 0, 0] + cov[:, 1, 1] - 2.0) / 4.0)


def _seed_range_error(scenario: CascadeScenario) -> ValueError:
    return ValueError(f"seed_amplitude {abs(scenario.seed_amplitude):g} is out of range: "
                      "its fringe intensity is not finite")


def fringe_visibility(scenario: CascadeScenario) -> float:
    """Visibility (max-min)/(max+min) of the seed fringe: 2AB/(A^2+B^2).

    Zero when either interfering path vanishes (prep gain 1, i.e. nu = 0,
    or a fully blocked arm); a seed whose intensity is not finite is
    rejected as in :func:`fringe_scan`."""
    prep, readout = scenario.prep, scenario.readout
    ch, amp = scenario.channel, abs(scenario.seed_amplitude)
    a = readout.gain * prep.gain * math.sqrt(1.0 - ch.loss_stokes) * amp
    b = readout.cross_gain * prep.cross_gain * math.sqrt(1.0 - ch.loss_spinwave) * amp
    denom = a * a + b * b
    if not math.isfinite(denom):
        raise _seed_range_error(scenario)
    if denom == 0.0:
        return 0.0
    return 2.0 * a * b / denom
