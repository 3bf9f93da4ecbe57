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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

#: absolute tolerance for the symplectic-matrix check S Omega S^T = Omega
SYMPLECTIC_ATOL = 1e-10
#: largest squeezer gain G: the zero entries of S Omega S^T carry roundoff of
#: about eps G^2 / 2, which stays within SYMPLECTIC_ATOL up to this G (~949)
SQUEEZER_GAIN_MAX = math.sqrt(2.0 * SYMPLECTIC_ATOL / np.finfo(float).eps)
#: tolerance for covariance-matrix symmetry on construction
SYMMETRY_RTOL = 1e-12
#: slack on the physicality bound: symplectic eigenvalues >= 1 - this
PHYSICALITY_ATOL = 1e-9

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_EYE4 = np.eye(4)


class NumericalError(RuntimeError):
    """A computation that cannot give a trustworthy number: a Fock
    truncation refusal, a fit that did not converge, a phase trace that is
    not a first harmonic."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega for ``n_modes`` modes."""
    return np.kron(np.eye(n_modes), _J)


def _is_symplectic(s: np.ndarray) -> bool:
    """S Omega S^T = Omega to SYMPLECTIC_ATOL for every matrix of a ``(..., 2n, 2n)`` stack."""
    omega = symplectic_form(s.shape[-1] // 2)
    return np.allclose(s @ omega @ s.swapaxes(-1, -2), omega, atol=SYMPLECTIC_ATOL)


def _every(ok) -> bool:
    """Whether every entry of the conditions ``ok`` holds; a NumPy bool is read without a reduction."""
    return bool(ok) if ok.ndim == 0 else bool(ok.all())


@functools.lru_cache(maxsize=64)
def _coupling(pump_phase: float) -> np.ndarray:
    """P(theta), the X/Y coupling of the conjugate term g e^{i theta} b^dag, read-only; the
    cache pays off when calls repeat a pump phase, as every stage left at phase 0 does."""
    c, s = np.cos(pump_phase), np.sin(pump_phase)
    out = np.array([[0.0, 0.0, c, s], [0.0, 0.0, s, -c], [c, s, 0.0, 0.0], [s, -c, 0.0, 0.0]])
    out.setflags(write=False)
    return out


def _squeezer_matrix(gain, pump_phase: float, name: str) -> np.ndarray:
    """Two-mode squeezer G I + g P(theta) on modes (0, 1), shape ``gain.shape + (4, 4)``.

    ``gain`` broadcasts; ``pump_phase`` is one scalar.  See
    :func:`two_mode_squeezer` for the convention.  A gain outside
    [1, SQUEEZER_GAIN_MAX], NaN included, is a range error naming ``name``
    and the gain's quantum noise gain 2G^2 - 1, raised before anything is
    built; within that range the matrix is symplectic to SYMPLECTIC_ATOL.
    P(theta) is cached per ``float(pump_phase)`` (:func:`_coupling`); G, g and
    the sum are computed on every call.
    """
    gain = np.asarray(gain, dtype=float)[()]
    ok = (gain >= 1.0) & (gain <= SQUEEZER_GAIN_MAX)
    if not _every(ok):
        bad = float(gain[~ok].flat[0])  # as a Python float, 2G^2 - 1 overflows to inf quietly
        raise ValueError(
            f"{name} {bad:g} (quantum noise gain {2.0 * bad * bad - 1.0:g}) is out of range: a "
            f"squeezer gain must lie within [1, {SQUEEZER_GAIN_MAX:.6g}], its quantum noise gain "
            f"within [1, {2.0 * SQUEEZER_GAIN_MAX**2 - 1.0:.4g}]")
    return (gain[..., None, None] * _EYE4
            + np.sqrt(gain * gain - 1.0)[..., None, None] * _coupling(float(pump_phase)))


def _rotation_matrix(phi) -> np.ndarray:
    """Phase-space rotation a -> e^{i phi} a, shape ``phi.shape + (2, 2)``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _attenuate(mean, cov: np.ndarray, loss: np.ndarray):
    """Pure loss given per quadrature by one ``(2n,)`` vector ``loss``: the means ``(..., 2n)``,
    or None, scale by sqrt(1 - loss), the covs by its outer product, and the lost fraction of
    vacuum noise is added on each diagonal."""
    scale = np.sqrt(1.0 - loss)
    out = np.multiply(cov * scale[:, None], scale, order="C")  # C order: the reshape is a view
    out.reshape(out.shape[:-2] + (-1,))[..., :: loss.size + 1] += loss  # each diagonal
    return None if mean is None else mean * scale, out


def _frozen(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``; a non-finite entry is a
    ValueError naming ``name``."""
    arr = np.array(value, dtype=float)
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {bad[0]}")
    arr.setflags(write=False)
    return arr


def _is_integer(value) -> bool:
    """A Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value, minimum: int) -> None:
    """The one count check: an integer (see :func:`_is_integer`) >= minimum."""
    if not (_is_integer(value) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _quadratures(n_modes: int | None, *modes: int) -> tuple[int, list[int]]:
    """``n_modes`` (default: the largest index + 1) and the quadrature
    indices X_m, Y_m of each of ``modes``, in order; the one check that a
    mode index is an integer within [0, n_modes)."""
    if not all(map(_is_integer, modes)):
        raise ValueError(f"mode indices {modes} must be integers")
    if n_modes is None:
        n_modes = max(modes) + 1
    if not all(0 <= m < n_modes for m in modes):
        raise ValueError(f"mode indices {modes} must lie within [0, {n_modes})")
    return n_modes, [q for m in modes for q in (2 * m, 2 * m + 1)]


def _placed(n_modes: int | None, *modes: int, block=None, shift=0.0) -> SymplecticOp:
    """The op acting as ``block`` (default identity) and displacing by
    ``shift`` on the quadratures of ``modes``, as the identity elsewhere."""
    n_modes, idx = _quadratures(n_modes, *modes)
    mat, d = np.eye(2 * n_modes), np.zeros(2 * n_modes)
    if block is not None:
        mat[np.ix_(idx, idx)] = block
    d[idx] = shift
    return SymplecticOp(mat, d)


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
        mean = _frozen("mean", np.atleast_1d(self.mean))
        cov = _frozen("cov", self.cov)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean must be a flat vector of even length")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        if not np.allclose(cov, cov.T, rtol=SYMMETRY_RTOL, atol=SYMMETRY_RTOL):
            raise ValueError("cov must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def is_physical(self) -> bool:
        """Check V + i*Omega >= 0, i.e. all symplectic eigenvalues >= 1."""
        return bool(symplectic_eigenvalues(self.cov).min() >= 1.0 - PHYSICALITY_ATOL)


@dataclass(frozen=True)
class SymplecticOp:
    """Linear phase-space map: cov -> S cov S^T, mean -> S mean + d.

    The matrix is validated against S Omega S^T = Omega on construction.
    """

    matrix: np.ndarray
    displacement: np.ndarray | None = field(default=None)

    def __post_init__(self):
        s = _frozen("matrix", self.matrix)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise ValueError("symplectic matrix must be square with even dimension")
        if not _is_symplectic(s):
            raise ValueError("matrix is not symplectic")
        d = self.displacement
        d = _frozen("displacement", np.zeros(s.shape[0]) if d is None else d)
        if d.shape != (s.shape[0],):
            raise ValueError("displacement length must match matrix dimension")
        object.__setattr__(self, "matrix", s)
        object.__setattr__(self, "displacement", d)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state of ``n_modes`` modes (zero mean, identity covariance)."""
    _check_integer("n_modes", n_modes, 1)
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def two_mode_squeezer(mode_a: int, mode_b: int, gain: float, pump_phase: float = 0.0,
                      n_modes: int | None = None) -> SymplecticOp:
    """Two-mode squeezer a -> G a + e^{i theta} g b^dag with g = sqrt(G^2-1).

    With ``pump_phase`` 0 the X quadratures of the two output modes are
    positively correlated (Delta^2(X_a - X_b) = 2 (G - g)^2), which fixes
    the convention used by the cascade model: two such stages in series
    reach their joint noise minimum when the inter-stage phase shift is pi.

    Args:
        mode_a: first mode index.
        mode_b: second mode index, distinct from ``mode_a``.
        gain: amplitude gain G within [1, SQUEEZER_GAIN_MAX].
        pump_phase: phase theta of the pump term.
        n_modes: total mode count of the returned op (default: max index + 1).

    Returns:
        SymplecticOp acting on ``n_modes`` modes.
    """
    if mode_a == mode_b:
        raise ValueError("two_mode_squeezer needs two distinct modes")
    return _placed(n_modes, mode_a, mode_b, block=_squeezer_matrix(gain, pump_phase, "gain"))


def phase_shift(mode: int, phi: float, n_modes: int | None = None) -> SymplecticOp:
    """Phase-space rotation a -> e^{i phi} a on one mode."""
    return _placed(n_modes, mode, block=_rotation_matrix(phi))


def displacement(mode: int, alpha: complex, n_modes: int | None = None) -> SymplecticOp:
    """Displace one mode by a coherent amplitude: <a> -> <a> + alpha."""
    # X = a + a^dag scaling: <X> = 2 Re alpha, <Y> = 2 Im alpha
    return _placed(n_modes, mode, shift=[2.0 * np.real(alpha), 2.0 * np.imag(alpha)])


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Apply a symplectic map to a state."""
    if op.n_modes != state.n_modes:
        raise ValueError(f"op acts on {op.n_modes} modes but state has {state.n_modes}")
    s = op.matrix
    cov = s @ state.cov @ s.T
    cov = 0.5 * (cov + cov.T)  # keep the symmetry invariant exact
    return GaussianState(s @ state.mean + op.displacement, cov)


def apply_loss(state: GaussianState, mode: int, loss: float) -> GaussianState:
    """Pure loss on one mode: a fraction ``loss`` of the signal is replaced
    by vacuum, so with T = 1 - loss the mode's block goes to T V_m + loss,
    its off-diagonal blocks and its mean scale by sqrt(T)."""
    if not 0.0 <= loss <= 1.0:
        raise ValueError("loss must be within [0, 1]")
    per_quadrature = np.zeros(2 * state.n_modes)
    per_quadrature[_quadratures(state.n_modes, mode)[1]] = loss
    return GaussianState(*_attenuate(state.mean, state.cov, per_quadrature))


def homodyne_variance(state: GaussianState, mode: int, lo_phase: float = 0.0) -> float:
    """Variance of X_phi = cos(phi) X + sin(phi) Y measured on one mode.

    Vacuum gives 1 for every ``lo_phase``; a non-finite ``lo_phase`` is a ValueError.
    """
    if not math.isfinite(lo_phase):
        raise ValueError(f"lo_phase must be finite, got {lo_phase}")
    idx = _quadratures(state.n_modes, mode)[1]
    u = np.array([np.cos(lo_phase), np.sin(lo_phase)])
    return float(u @ state.cov[np.ix_(idx, idx)] @ u)


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
    x, y = state.mean[_quadratures(state.n_modes, mode)[1]]
    return complex(x, y) / 2.0


def mean_photon_number(state: GaussianState, mode: int) -> float:
    """Photon number <n> of one mode, mean-field plus noise contribution."""
    idx = _quadratures(state.n_modes, mode)[1]
    noise = (np.trace(state.cov[np.ix_(idx, idx)]) - 2.0) / 4.0
    return float(noise + abs(mean_amplitude(state, mode)) ** 2)
