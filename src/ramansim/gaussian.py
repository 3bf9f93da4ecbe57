"""Gaussian-state engine for multimode bosonic circuits.

States are characterized by the first moments and the covariance matrix of
the quadratures

    X = a + a^dag,   Y = -i (a - a^dag),

ordered as (X_0, Y_0, X_1, Y_1, ...).  With this scaling the vacuum
covariance matrix is the identity and [X, Y] = 2i, so a physical covariance
matrix V satisfies V + i*Omega >= 0 with Omega the symplectic form built
from 2x2 blocks [[0, 1], [-1, 0]].

Operations are either symplectic maps (V -> S V S^T, mean -> S mean + d) or
loss channels (contraction toward vacuum); both are small dense matrix
updates, so everything here is plain NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: absolute tolerance for the symplectic-matrix check S Omega S^T = Omega
SYMPLECTIC_ATOL = 1e-10
#: tolerance for covariance-matrix symmetry on construction
SYMMETRY_RTOL = 1e-12
#: slack on the physicality bound: symplectic eigenvalues >= 1 - this
PHYSICALITY_ATOL = 1e-9

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega for ``n_modes`` modes."""
    return np.kron(np.eye(n_modes), _J)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _symplectic_check(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Omega and the bound of :func:`_is_symplectic`, per mode count."""
    omega = _readonly(symplectic_form(n_modes))
    return omega, _readonly(SYMPLECTIC_ATOL + 1e-5 * np.abs(omega))


def _is_symplectic(s: np.ndarray) -> bool:
    """S Omega S^T = Omega for every matrix of a ``(..., 2n, 2n)`` stack:
    ``np.allclose(S Omega S^T, Omega, atol=SYMPLECTIC_ATOL)`` written out."""
    omega, bound = _symplectic_check(s.shape[-1] // 2)
    return bool(np.all(np.abs(s @ omega @ np.swapaxes(s, -1, -2) - omega) <= bound))


def _squeezer_matrix(gain, pump_phase: float) -> np.ndarray:
    """Two-mode squeezer on modes (0, 1), shape ``gain.shape + (4, 4)``.

    ``gain`` broadcasts; ``pump_phase`` is one scalar.  See
    :func:`two_mode_squeezer` for the convention.
    """
    gain = np.asarray(gain, dtype=float)
    g = np.sqrt(gain * gain - 1.0)
    c, s = np.cos(pump_phase), np.sin(pump_phase)
    mat = np.zeros(gain.shape + (4, 4))
    mat[..., range(4), range(4)] = gain[..., None]
    # X/Y coupling block of the conjugate term g e^{i theta} b^dag
    mat[..., :2, 2:] = mat[..., 2:, :2] = g[..., None, None] * np.array([[c, s], [s, -c]])
    return mat


def _rotation_matrix(phi) -> np.ndarray:
    """Phase-space rotation a -> e^{i phi} a, shape ``phi.shape + (2, 2)``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _attenuate(mean: np.ndarray, cov: np.ndarray, loss: np.ndarray):
    """Pure loss given per quadrature, ``loss`` of shape ``(..., 2n)``: the
    mean scales by sqrt(1 - loss), cov by its outer product, and the lost
    fraction of vacuum noise is added on the diagonal."""
    scale = np.sqrt(1.0 - loss)
    cov = cov * scale[..., :, None] * scale[..., None, :]
    cov[..., range(loss.shape[-1]), range(loss.shape[-1])] += loss
    return mean * scale, cov


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` bosonic modes.

    Args:
        mean: length-2n vector of quadrature expectation values.
        cov: 2n x 2n covariance matrix, vacuum normalized to the identity.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float)).copy()
        cov = np.asarray(self.cov, dtype=float).copy()
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a flat vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.allclose(cov, cov.T, rtol=SYMMETRY_RTOL, atol=SYMMETRY_RTOL):
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def is_physical(self, atol: float = PHYSICALITY_ATOL) -> bool:
        """Check V + i*Omega >= 0, i.e. all symplectic eigenvalues >= 1."""
        return bool(symplectic_eigenvalues(self.cov).min() >= 1.0 - atol)


@dataclass(frozen=True)
class SymplecticOp:
    """Linear phase-space map: cov -> S cov S^T, mean -> S mean + d.

    The matrix is validated against S Omega S^T = Omega on construction.
    """

    matrix: np.ndarray
    displacement: np.ndarray | None = field(default=None)

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=float).copy()
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise ValueError("symplectic matrix must be square with even dimension")
        if not _is_symplectic(s):
            raise ValueError("matrix is not symplectic")
        d = self.displacement
        d = np.zeros(s.shape[0]) if d is None else np.asarray(d, dtype=float).copy()
        if d.shape != (s.shape[0],):
            raise ValueError("displacement length must match matrix dimension")
        object.__setattr__(self, "matrix", _readonly(s))
        object.__setattr__(self, "displacement", _readonly(d))

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass(frozen=True)
class LossChannel:
    """Pure loss on one mode: a fraction ``loss`` of the signal is replaced
    by vacuum (transmissivity T = 1 - loss)."""

    mode: int
    loss: float

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode must be a non-negative index")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError("loss must be within [0, 1]")

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.loss


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of ``n_modes`` modes (zero mean, identity covariance)."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def two_mode_squeezer(
    mode_a: int,
    mode_b: int,
    gain: float,
    pump_phase: float = 0.0,
    n_modes: int | None = None,
) -> SymplecticOp:
    """Two-mode squeezer a -> G a + e^{i theta} g b^dag with g = sqrt(G^2-1).

    With ``pump_phase`` 0 the X quadratures of the two output modes are
    positively correlated (Delta^2(X_a - X_b) = 2 (G - g)^2), which fixes
    the convention used by the cascade model: two such stages in series
    reach their joint noise minimum when the inter-stage phase shift is pi.

    Args:
        mode_a: first mode index.
        mode_b: second mode index, distinct from ``mode_a``.
        gain: amplitude gain G >= 1.
        pump_phase: phase theta of the pump term.
        n_modes: total mode count of the returned op (default: max index + 1).

    Returns:
        SymplecticOp acting on ``n_modes`` modes.
    """
    if gain < 1.0:
        raise ValueError("gain must be >= 1")
    if mode_a == mode_b:
        raise ValueError("two_mode_squeezer needs two distinct modes")
    if min(mode_a, mode_b) < 0:
        raise ValueError("mode indices must be non-negative")
    if n_modes is None:
        n_modes = max(mode_a, mode_b) + 1
    elif max(mode_a, mode_b) >= n_modes:
        raise ValueError("mode index exceeds n_modes")
    idx = [2 * mode_a, 2 * mode_a + 1, 2 * mode_b, 2 * mode_b + 1]
    mat = np.eye(2 * n_modes)
    mat[np.ix_(idx, idx)] = _squeezer_matrix(gain, pump_phase)
    return SymplecticOp(mat)


def phase_shift(mode: int, phi: float, n_modes: int | None = None) -> SymplecticOp:
    """Phase-space rotation a -> e^{i phi} a on one mode."""
    if mode < 0:
        raise ValueError("mode must be a non-negative index")
    if n_modes is None:
        n_modes = mode + 1
    elif mode >= n_modes:
        raise ValueError("mode index exceeds n_modes")
    mat = np.eye(2 * n_modes)
    mat[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2] = _rotation_matrix(phi)
    return SymplecticOp(mat)


def displacement(mode: int, alpha: complex, n_modes: int | None = None) -> SymplecticOp:
    """Displace one mode by a coherent amplitude: <a> -> <a> + alpha."""
    if mode < 0:
        raise ValueError("mode must be a non-negative index")
    if n_modes is None:
        n_modes = mode + 1
    elif mode >= n_modes:
        raise ValueError("mode index exceeds n_modes")
    d = np.zeros(2 * n_modes)
    # X = a + a^dag scaling: <X> = 2 Re alpha, <Y> = 2 Im alpha
    d[2 * mode] = 2.0 * np.real(alpha)
    d[2 * mode + 1] = 2.0 * np.imag(alpha)
    return SymplecticOp(np.eye(2 * n_modes), d)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Apply a symplectic map to a state."""
    if op.n_modes != state.n_modes:
        raise ValueError(
            f"op acts on {op.n_modes} modes but state has {state.n_modes}"
        )
    s = op.matrix
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)  # keep the symmetry invariant exact
    return GaussianState(s @ state.mean + op.displacement, cov)


def apply_loss(state: GaussianState, channel: LossChannel) -> GaussianState:
    """Apply pure loss to one mode: V_m -> T V_m + L on the mode's block,
    off-diagonal blocks scaled by sqrt(T), mean scaled by sqrt(T)."""
    if channel.mode >= state.n_modes:
        raise ValueError("loss channel mode exceeds state n_modes")
    loss = np.zeros(2 * state.n_modes)
    loss[2 * channel.mode: 2 * channel.mode + 2] = channel.loss
    return GaussianState(*_attenuate(state.mean, state.cov, loss))


def homodyne_variance(state: GaussianState, mode: int, lo_phase: float = 0.0) -> float:
    """Variance of X_phi = cos(phi) X + sin(phi) Y measured on one mode.

    Vacuum gives 1 for every ``lo_phase``.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index exceeds state n_modes")
    c, s = np.cos(lo_phase), np.sin(lo_phase)
    block = state.cov[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2]
    u = np.array([c, s])
    return float(u @ block @ u)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    These are the moduli of the eigenvalues of i Omega V; each value appears
    once (the +/- pairs are folded).  Physical states have all values >= 1.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(symplectic_form(n) @ cov)
    return np.sort(np.abs(ev.imag))[n:]


def mean_amplitude(state: GaussianState, mode: int) -> complex:
    """Coherent amplitude <a> of one mode, from the mean quadratures."""
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index exceeds state n_modes")
    return complex(state.mean[2 * mode], state.mean[2 * mode + 1]) / 2.0


def mean_photon_number(state: GaussianState, mode: int) -> float:
    """Photon number <n> of one mode, mean-field plus noise contribution."""
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index exceeds state n_modes")
    block = state.cov[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2]
    noise = (block[0, 0] + block[1, 1] - 2.0) / 4.0
    return float(noise + abs(mean_amplitude(state, mode)) ** 2)
