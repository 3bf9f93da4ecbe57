"""Truncated Fock-space oracle on the charge-zero sector.

Brute-force reference for the Gaussian engine's two-mode squeezer, loss and
phase circuits, in a number basis truncated at ``n_max`` photons per mode.
States are pure: loss on mode a (index 0) or b (index 1) is a beam splitter
onto a vacuum environment mode of that arm, e_a or e_b.  With charge +1 on
a and e_a and -1 on b and e_b, every operation conserves
Q = n_a - n_b + n_ea - n_eb, which is 0 from vacuum, so a state is stored as
psi[n_a, n_ea, n_eb] of shape (n_max + 1, 1 | M + 1, 1 | M + 1), n_b implied
(U(1)-symmetric storage; Singh, Pfeifer and Vidal, PRB 83, 115125, 2011).
A splitter on a vacuum environment is a binomial law, so an environment axis
has length 1 until its loss gives it levels 0..M, M <= n_max the lowest
level from which that law puts less than ENV_TOL into it.  The squeezer acts
on the chains of fixed c = n_ea - n_eb that the store holds, through cached
exponentials of tridiagonal generators; being symmetric in a and b, it gives
chains c and -c one block.

Truncation adequacy is policed, not assumed: the squeezer checks the
population at the edge of all four modes (n_max, or M for an environment)
and raises TruncationError instead of silently wrong numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import NumericalError, _check_integer, _is_integer

#: maximum tolerated population at the truncation edge
EDGE_TOL = 1e-8
#: tolerated norm drift through a unitary application
NORM_TOL = 1e-8
#: tolerated population of a truncated environment from its last level on
ENV_TOL = 1e-14  # far below EDGE_TOL: results match the untruncated ones to 1e-12


class TruncationError(NumericalError):
    """The requested operation is not representable at this truncation."""


def _check_mode(mode: int) -> None:
    """The one check of a mode index: the integer 0 (a) or 1 (b), no bool."""
    if not _is_integer(mode) or mode not in (0, 1):
        raise ValueError(f"mode index must be 0 or 1, got {mode!r}")


def _check_finite(**values: float) -> None:
    """Reject a non-finite argument, by name."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@lru_cache(maxsize=16)
def _sector(n_max: int, shape: tuple[int, int, int]):
    """For a store of this shape: the implied n_b clipped into [0, n_max],
    the mask of entries whose n_b leaves [0, n_max] (outside the sector), and
    the edge mask: a or b at n_max, or a non-vacuum environment at level M."""
    n_a, n_ea, n_eb = np.ogrid[: shape[0], : shape[1], : shape[2]]
    n_b = n_a + n_ea - n_eb
    outside = (n_b < 0) | (n_b > n_max)
    env = ((n_ea == shape[1] - 1) & (shape[1] > 1)) | ((n_eb == shape[2] - 1) & (shape[2] > 1))
    edge = ~outside & ((n_a == n_max) | (n_b == n_max) | env)
    return np.clip(n_b, 0, n_max), outside, edge


@dataclass(frozen=True)
class FockState:
    """Pure two-mode state on the Q = 0 sector: amplitudes psi[n_a, n_ea, n_eb]
    of shape (n_max+1, 1 to n_max+1, 1 to n_max+1), zero wherever the
    implied n_b leaves [0, n_max], of norm 1; ``amps`` views the given array."""

    n_max: int
    amps: np.ndarray

    def __post_init__(self):
        _check_integer("n_max", self.n_max, 1)
        amps = np.asarray(self.amps, dtype=complex)
        d = self.n_max + 1
        if amps.ndim != 3 or amps.shape[0] != d or max(amps.shape[1:]) > d:
            raise ValueError(f"amps shape {amps.shape} inconsistent with n_max {self.n_max}")
        if np.any(amps[_sector(self.n_max, amps.shape)[1]]):
            raise ValueError("amplitudes outside the Q = 0 sector (n_b out of range)")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")
        amps = amps.view()  # the caller's array stays writeable
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _result(cls, n_max: int, amps: np.ndarray) -> FockState:
        """A state over ``amps``, output of a step that keeps norm and sector: no check runs."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_max", n_max)
        object.__setattr__(state, "amps", amps.view())
        state.amps.setflags(write=False)
        return state

    @property
    def dim(self) -> int:
        return self.n_max + 1


def vacuum_state(n_max: int) -> FockState:
    """Both modes in |0>."""
    _check_integer("n_max", n_max, 1)
    amps = np.zeros((n_max + 1, 1, 1), dtype=complex)
    amps[0, 0, 0] = 1.0
    return FockState(n_max, amps)


def edge_population(state: FockState) -> float:
    """Total population on basis states with a or the implied n_b at n_max
    or an environment at its truncation M."""
    edge = state.amps[_sector(state.n_max, state.amps.shape)[2]]
    return float(np.vdot(edge, edge).real)


@lru_cache(maxsize=128)
def _squeeze_block(coupling: complex, n_max: int, c: int) -> np.ndarray:
    """exp(K) of the squeezer on the chains n_b - n_a = c and -c, c >= 0,
    which share it: with k counting from a chain's first entry,
    K[k+1, k] = -K[k, k+1]* = g sqrt((k + 1)(k + 1 + c)).
    K = i D T D^dag with T real symmetric tridiagonal and D = diag(e^{i k alpha}),
    alpha = arg g - pi/2.  T couples even k to odd k only, through
    B = T[0::2, 1::2] = U S V^T (reduced SVD), so exp(iT) = cos T + i sin T
    has the even-even part I + U (cos S - 1) U^T (an odd-length chain has
    one more even k, a zero mode of T outside U), the odd-odd part
    V cos(S) V^T and the even-odd part i U sin(S) V^T."""
    k = np.arange(n_max - c, dtype=float)
    weights = abs(coupling) * np.sqrt((k + 1.0) * (k + 1.0 + c))
    u, s, vt = np.linalg.svd((np.diag(weights, 1) + np.diag(weights, -1))[0::2, 1::2],
                             full_matrices=False)
    block = np.empty((len(k) + 1,) * 2, dtype=complex)
    block[0::2, 0::2] = np.eye(len(u)) + (u * (np.cos(s) - 1.0)) @ u.T
    block[1::2, 1::2] = (vt.T * np.cos(s)) @ vt
    block[0::2, 1::2] = 1j * ((u * np.sin(s)) @ vt)
    block[1::2, 0::2] = block[0::2, 1::2].T
    gauge = np.exp(1j * (np.angle(coupling) - np.pi / 2.0) * np.arange(len(block)))
    block *= gauge[:, None] * gauge.conj()
    block.setflags(write=False)
    return block


@lru_cache(maxsize=8)
def _splitter_columns(theta: float, n_max: int) -> np.ndarray:
    """Amplitude [s, k] of k <= n_max photons in a vacuum environment after
    the splitter theta (m^dag e - m e^dag) acts on s photons in mode m: the
    binomial law sqrt(C(s, k)) cos^{s-k} theta (-sin theta)^k for k <= s,
    C(s, k) from log-factorials.  Rows s > n_max stay zero."""
    s, k = np.ogrid[: n_max + 1, : n_max + 1]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n_max + 1)))))
    j = np.maximum(s - k, 0)
    binom = np.exp(0.5 * (log_fact[s] - log_fact[k] - log_fact[j]))
    out = np.zeros((2 * n_max + 1, n_max + 1))
    out[: n_max + 1] = np.where(k <= s, binom * np.cos(theta) ** j * (-np.sin(theta)) ** k, 0.0)
    out.setflags(write=False)
    return out


def _unitary_result(n_max: int, amps: np.ndarray, what: str) -> FockState:
    """Normalise the freshly computed output of a unitary in place and wrap
    it, refusing norm drift."""
    norm = math.sqrt(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
        raise NumericalError(f"{what} drifted the norm to {norm}")
    amps /= norm
    return FockState._result(n_max, amps)


def apply_two_mode_squeeze(state: FockState, r: float, theta: float = 0.0) -> FockState:
    """Apply exp(r (e^{i theta} a^dag b^dag - h.c.)), which is symmetric in
    the two modes.  The chains run along n_a; the (n_ea, n_eb) columns
    sharing c = n_ea - n_eb lie on one diagonal of the environment plane, a
    strided slice, and share a block with the diagonal of -c.  Norm
    preservation is verified to 1e-8 and the edge population of the result
    must stay below 1e-8, otherwise TruncationError."""
    _check_finite(r=r, theta=theta)
    if r < 0:
        raise ValueError("r must be non-negative")
    coupling = complex(r * np.exp(1j * theta))
    d, n_ea, n_eb = state.amps.shape
    flat = state.amps.reshape(d, n_ea * n_eb)
    out = np.zeros_like(flat)
    for c in range(1 - n_eb, n_ea):
        first, last = max(0, -c), min(n_eb - 1, n_ea - 1 - c)  # n_eb along the diagonal
        cols = slice(c * n_eb + first * (n_eb + 1), c * n_eb + last * (n_eb + 1) + 1, n_eb + 1)
        rows = slice(max(0, -c), d - max(0, c))
        out[rows, cols] = _squeeze_block(coupling, state.n_max, abs(c)) @ flat[rows, cols]
    out = _unitary_result(state.n_max, out.reshape(d, n_ea, n_eb), "squeezer application")
    pop = edge_population(out)
    if pop >= EDGE_TOL:
        raise TruncationError(
            f"edge population {pop:.2e} at n_max={state.n_max} exceeds {EDGE_TOL}; "
            "increase the truncation"
        )
    return out


def apply_phase_rotation(state: FockState, mode: int, phi: float) -> FockState:
    """Apply e^{i phi n} on one mode; on b, n_b = n_a + n_ea - n_eb."""
    _check_finite(phi=phi)
    _check_mode(mode)
    d, n_ea, n_eb = state.amps.shape
    phases = np.exp(1j * phi * np.arange(d))[:, None, None]
    if mode == 1:
        phases = phases * np.exp(1j * phi * np.arange(n_ea))[:, None]
        phases = phases * np.exp(-1j * phi * np.arange(n_eb))
    return FockState._result(state.n_max, state.amps * phases)


def apply_loss(state: FockState, mode: int, loss: float) -> FockState:
    """Pure-loss channel as a beam splitter of angle arcsin(sqrt(loss)) between
    the mode and its vacuum environment.  The environment enters each chain
    n_m + n_e = s at n_e = 0, so only the first column of a chain's splitter
    is needed; after that it is no longer vacuum, so a mode takes one nonzero
    loss.  It keeps levels 0..M, M the lowest level from which the binomial
    law of the mode's populations holds less than ENV_TOL (else n_max)."""
    if not 0.0 <= loss <= 1.0:
        raise ValueError("loss must be within [0, 1]")
    _check_mode(mode)
    if loss == 0.0:
        return state
    d, n_ea, n_eb = state.amps.shape
    if (n_ea, n_eb)[mode] != 1:
        raise ValueError(f"mode {mode} already carries a loss; the store holds one per mode")
    col = _splitter_columns(float(np.arcsin(np.sqrt(loss))), state.n_max)
    tail = np.cumsum((_populations(state, mode) @ col[:d] ** 2)[::-1])  # from level n_max down
    m = min(int(np.count_nonzero(tail >= ENV_TOL)), state.n_max)  # a tail falls as its level rises
    s = np.add.outer(np.arange(d), np.arange(m + 1 if mode == 0 else n_ea))  # n_m + n_e
    if mode == 0:  # out[n_a, n_ea, :] = col[s, n_ea] psi[s, 0, :]
        out = col[s, np.arange(m + 1)][:, :, None] * state.amps[np.minimum(s, d - 1), 0, :]
    else:  # out[n_a, n_ea, n_eb] = col[s, n_eb] psi[n_a, n_ea, 0], with s = n_b
        out = col[s, : m + 1] * state.amps[:, :, :1]
    return _unitary_result(state.n_max, out, "loss channel")


def _populations(state: FockState, mode: int) -> np.ndarray:
    """Photon-number populations p_n of one mode."""
    _check_mode(mode)
    p = state.amps.real**2 + state.amps.imag**2
    if mode == 0:
        return p.sum(axis=(1, 2))
    n_b = _sector(state.n_max, p.shape)[0]
    return np.bincount(n_b.ravel(), weights=p.ravel(), minlength=state.dim)


def quadrature_variance(state: FockState, mode: int) -> float:
    """Variance of X_phi = e^{-i phi} a + e^{i phi} a^dag on one mode.

    On the Q = 0 sector <a> and <a^2> vanish, so the variance is the same at
    every phi: <X^2> = |X psi|^2 = sum (2n + 1) p_n - (n_max + 1) p_{n_max},
    for X truncated at n_max, where a a^dag vanishes on |n_max>.
    """
    pop = _populations(state, mode)
    return float((2 * np.arange(state.dim) + 1) @ pop - state.dim * pop[-1])


def mean_photon_number(state: FockState, mode: int) -> float:
    """<n> of one mode."""
    return float(np.arange(state.dim) @ _populations(state, mode))


def pair_correlation(state: FockState) -> complex:
    """<ab>, which pairs psi[n_a] with psi[n_a - 1], weight sqrt(n_a n_b)."""
    n_b = _sector(state.n_max, state.amps.shape)[0]
    lowered = np.sqrt(np.arange(state.dim)[:, None, None] * n_b) * state.amps
    return complex(np.vdot(state.amps[:-1], lowered[1:]))
