"""Two-stage Raman amplifier noise simulator.

Gaussian covariance-matrix engine for the squeezer/loss/phase cascade, a
truncated Fock-space oracle for cross-checking it, closed-form noise
formulas, and least-squares fitting of measured noise-reduction data.
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    SymplecticOp,
    apply_loss,
    apply_symplectic,
    displacement,
    homodyne_variance,
    phase_shift,
    symplectic_eigenvalues,
    two_mode_squeezer,
    vacuum,
)
from .model import (
    AmplifierParams,
    CascadeScenario,
    ChannelParams,
    FringeTrace,
    NoiseTrace,
    build_cascade,
    closed_form_noise_reduction,
    fringe_scan,
    fringe_visibility,
    gain_ratio_from_quantum_gain,
    joint_quadrature_variance,
    min_noise_over_phase,
    noise_vs_phase,
    prep_gain_sweep,
    quantum_gain_sweep,
)

__all__ = [
    "GaussianState",
    "SymplecticOp",
    "vacuum",
    "two_mode_squeezer",
    "phase_shift",
    "displacement",
    "apply_symplectic",
    "apply_loss",
    "homodyne_variance",
    "symplectic_eigenvalues",
    "AmplifierParams",
    "ChannelParams",
    "CascadeScenario",
    "NoiseTrace",
    "FringeTrace",
    "gain_ratio_from_quantum_gain",
    "build_cascade",
    "noise_vs_phase",
    "min_noise_over_phase",
    "closed_form_noise_reduction",
    "joint_quadrature_variance",
    "prep_gain_sweep",
    "quantum_gain_sweep",
    "fringe_scan",
    "fringe_visibility",
]
