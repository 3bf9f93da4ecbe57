"""Truncated Fock-space oracle.

Brute-force reference implementation of the same squeezer/loss/phase
circuits as the Gaussian engine, in a number basis truncated at
``n_max`` photons per mode.  Every state is pure: a complex amplitude
tensor of shape (n_max+1,)*n_modes.  A lossy mode stays pure through its
purification: pure loss L is a beam splitter of transmission 1 - L onto a
vacuum environment mode appended as the last axis, so a state carries the
environment modes of its losses after the modes of its circuit.

The two-mode squeezer K = r (e^{i theta} a^dag b^dag - e^{-i theta} a b)
conserves n_a - n_b and the beam splitter K = theta (a^dag b - a b^dag)
conserves n_a + n_b, so exp(K) of either is a set of small dense blocks
over the invariant subspaces of K.  The blocks are built once per
coupling and truncation and cached, because the cross-check battery
reuses them; one helper applies them to any two axes of a state.

Truncation adequacy is policed, not assumed: every builder and squeezer
application checks the population at the truncation edge and raises
TruncationError instead of returning silently wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

#: maximum tolerated population at the truncation edge
EDGE_TOL = 1e-8
#: maximum tolerated relative amplitude of the highest retained TMSV term
TAIL_TOL = 1e-6
#: tolerated norm drift through a unitary application
NORM_TOL = 1e-8


class TruncationError(RuntimeError):
    """The requested operation is not representable at this truncation."""


@dataclass(frozen=True)
class FockState:
    """Pure state: amplitude tensor of shape (n_max+1,)*n_modes."""

    n_max: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        d = self.n_max + 1
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if amps.shape != (d,) * amps.ndim or amps.ndim < 1:
            raise ValueError(f"amps shape {amps.shape} inconsistent with n_max {self.n_max}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-9")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    @property
    def dim(self) -> int:
        return self.n_max + 1


def vacuum_state(n_modes: int, n_max: int) -> FockState:
    """All modes in |0>."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    amps = np.zeros((n_max + 1,) * n_modes, dtype=complex)
    amps[(0,) * n_modes] = 1.0
    return FockState(n_max, amps)


def two_mode_squeezed_vacuum(r: float, theta: float = 0.0, n_max: int = 40) -> FockState:
    """TMSV in Schmidt form: psi(n, n) = (e^{i theta} tanh r)^n / cosh r.

    Refuses (TruncationError) when the highest retained coefficient is not
    negligible, i.e. tanh(r)^n_max / cosh(r) >= 1e-6.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    tail = np.tanh(r) ** n_max / np.cosh(r)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"TMSV r={r} tail amplitude {tail:.2e} at n_max={n_max} exceeds {TAIL_TOL}"
        )
    d = n_max + 1
    amps = np.zeros((d, d), dtype=complex)
    coeff = (np.exp(1j * theta) * np.tanh(r)) ** np.arange(d) / np.cosh(r)
    amps[np.arange(d), np.arange(d)] = coeff
    amps /= np.linalg.norm(amps)
    return FockState(n_max, amps)


def edge_population(state: FockState) -> float:
    """Total population on basis states with any mode at n = n_max."""
    interior = state.amps[(slice(0, state.n_max),) * state.n_modes]
    return float(max(0.0, 1.0 - np.linalg.norm(interior) ** 2))


def _check_edge(state: FockState) -> None:
    pop = edge_population(state)
    if pop >= EDGE_TOL:
        raise TruncationError(
            f"edge population {pop:.2e} at n_max={state.n_max} exceeds {EDGE_TOL}; "
            "increase the truncation"
        )


@lru_cache(maxsize=8)
def _pair_blocks(coupling: complex, dim: int, squeeze: bool):
    """exp(K) for K = g P^dag - g* P on two modes (the first is the slower
    index), with P = a b for the squeezer and P = a b^dag for the beam
    splitter, as (indices, dense block) pairs over the connected components
    of the sparsity graph of K, which are its conserved-number subspaces;
    cached because the battery reuses few couplings."""
    a = sp.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
    p = sp.kron(a, a if squeeze else a.T, format="csr")
    k = (coupling * p.conj().T - np.conj(coupling) * p).tocsr()
    labels = connected_components(k != 0, directed=False)[1]
    blocks = []
    for label in range(labels.max() + 1):
        idx = np.flatnonzero(labels == label)
        u = expm(k[idx][:, idx].toarray())
        u.setflags(write=False)
        blocks.append((idx, u))
    return tuple(blocks)


def _apply_pair(amps: np.ndarray, blocks, axes: tuple[int, int]) -> np.ndarray:
    """exp(K) from its blocks on two axes of an amplitude tensor: the axes
    are moved to the front, and each block acts on its rows."""
    t = np.moveaxis(amps, axes, (0, 1))
    rows = t.reshape(t.shape[0] * t.shape[1], -1)
    out = np.empty_like(rows)
    for idx, u in blocks:
        out[idx] = u @ rows[idx]
    return np.moveaxis(out.reshape(t.shape), (0, 1), axes)


def _unitary_result(n_max: int, amps: np.ndarray, what: str) -> FockState:
    """Normalise the freshly computed output of a unitary in place and wrap
    it, refusing norm drift."""
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > NORM_TOL:
        raise RuntimeError(f"{what} drifted the norm to {norm}")
    amps /= norm
    return FockState(n_max, amps)


def _validate_modes(modes: tuple[int, int], n_modes: int) -> None:
    if len(modes) != 2 or modes[0] == modes[1]:
        raise ValueError("modes must be two distinct indices")
    if min(modes) < 0 or max(modes) >= n_modes:
        raise ValueError("mode index out of range")


def apply_two_mode_squeeze(
    state: FockState,
    r: float,
    theta: float = 0.0,
    modes: tuple[int, int] = (0, 1),
) -> FockState:
    """Apply exp(r (e^{i theta} a^dag b^dag - h.c.)) to a state.

    Norm preservation is verified to 1e-8 and the edge population of the
    result must stay below 1e-8, otherwise TruncationError.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    modes = tuple(modes)
    _validate_modes(modes, state.n_modes)
    blocks = _pair_blocks(complex(r * np.exp(1j * theta)), state.dim, True)
    out = _unitary_result(
        state.n_max, _apply_pair(state.amps, blocks, modes), "squeezer application"
    )
    _check_edge(out)
    return out


def apply_phase_rotation(state: FockState, mode: int, phi: float) -> FockState:
    """Apply e^{i phi n} on one mode."""
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index out of range")
    phases = np.exp(1j * phi * np.arange(state.dim))
    shape = [1] * state.n_modes
    shape[mode] = state.dim
    return FockState(state.n_max, state.amps * phases.reshape(shape))


def apply_loss(state: FockState, mode: int, loss: float) -> FockState:
    """Pure-loss channel as a beam splitter of angle arcsin(sqrt(loss))
    between the mode and a vacuum environment mode appended as the last
    axis.  The splitter conserves the photon number of the pair, so a
    vacuum environment never reaches beyond the mode's own truncation.
    """
    if not 0.0 <= loss <= 1.0:
        raise ValueError("loss must be within [0, 1]")
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index out of range")
    if loss == 0.0:
        return state
    d = state.dim
    moved = np.moveaxis(state.amps, mode, 0)
    padded = np.zeros((d, d) + moved.shape[1:], dtype=complex)
    padded[:, 0] = moved
    blocks = _pair_blocks(complex(np.arcsin(np.sqrt(loss))), d, False)
    out = np.moveaxis(_apply_pair(padded, blocks, (0, 1)), (0, 1), (mode, -1))
    return _unitary_result(state.n_max, out, "loss channel")


def _mode_moments(state: FockState, mode: int):
    """Populations p_n, <a> and <a^2> of one mode, from the overlaps of the
    rows psi_n of the amplitude tensor at n photons in that mode."""
    rows = np.moveaxis(state.amps, mode, 0).reshape(state.dim, -1)
    bra = rows.conj()
    n = np.arange(state.dim, dtype=float)
    pop = np.einsum("ij,ij->i", bra, rows).real
    a1 = np.sqrt(n[1:]) @ np.einsum("ij,ij->i", bra[:-1], rows[1:])
    a2 = np.sqrt(n[1:-1] * n[2:]) @ np.einsum("ij,ij->i", bra[:-2], rows[2:])
    return pop, a1, a2


def quadrature_variance(state: FockState, mode: int, lo_phase: float = 0.0) -> float:
    """Variance of X_phi = e^{-i phi} a + e^{i phi} a^dag on one mode, with
    <X^2> = |X psi|^2 for X truncated at n_max, where a a^dag vanishes on
    |n_max>."""
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index out of range")
    pop, a1, a2 = _mode_moments(state, mode)
    n = np.arange(state.dim)
    m1 = 2.0 * (np.exp(-1j * lo_phase) * a1).real
    m2 = (2 * n + 1) @ pop - state.dim * pop[-1] + 2.0 * (np.exp(-2j * lo_phase) * a2).real
    return float(m2 - m1 * m1)


def mean_photon_number(state: FockState, mode: int) -> float:
    """<n> of one mode."""
    if not 0 <= mode < state.n_modes:
        raise ValueError("mode index out of range")
    pop = _mode_moments(state, mode)[0]
    return float(np.arange(state.dim) @ pop)


def overlap(state_a: FockState, state_b: FockState) -> complex:
    """<a|b> for two pure states on the same space."""
    if state_a.n_max != state_b.n_max or state_a.n_modes != state_b.n_modes:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(state_a.amps.reshape(-1), state_b.amps.reshape(-1)))
