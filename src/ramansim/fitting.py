"""Least-squares fitting of noise-reduction data.

A dataset is a set of (quantum gain, noise reduction R) points measured at
fixed preparation stage and losses; the fitter recovers (mu, L1, L2) from
the closed-form model and extrapolates to the infinite-gain joint
quadrature variance, reported in dB relative to the uncorrelated value 2.

R is exactly linear in the three regressors of model.noise_reduction_regressors,
R = alpha + beta/(1 + lambda^2) + gamma lambda/(1 + lambda^2), and
(alpha, beta, gamma) invert to (mu, L1, L2) in closed form.  The fit
therefore solves one weighted 3x3 linear least-squares problem; when its
inverse lies inside the box mu in [1, mu_max], losses in [0, 1], it is the
global optimum and no optimizer runs.  Otherwise the optimum sits on the
box boundary, and a projected Levenberg-Marquardt polish of the weighted
residuals runs in x = (t, s1, s2) = (arccosh mu, sqrt(1 - L1), sqrt(1 - L2)),
in which R is smooth at mu = 1 and polynomial in s1, s2; this module adds only the
Jacobian of model._coefficients at u = 2 sinh^2 t, v = sinh 2t.  Datasets sharing
(L1, L2) are fit jointly in z = (t_1, ..., t_n, s1, s2) on their summed
objective; the single fit is its one-dataset case, z = x.  Every polish
starts from each dataset's clipped linear point and the best cells of an
(s1, s2) grid with t profiled out, as in variable projection (Golub &
Pereyra 1973).  Every fit must reach a projected gradient below GRAD_TOL.

The residual bootstrap keeps the design fixed and resamples only R, so its
interior refits share one linear solve, a right-hand side per resample, and
one broadcast gradient gate; only the resamples whose linear inverse
leaves the box run the boundary polish, on the same design and weights.
The config's seed feeds only the resampling.  A refit fails when a
resampled R leaves (0, R_UPPER_SANITY] or its gradient gate fails.

L1 and L2 become exactly interchangeable in the large-gain limit and
nearly so at lambda close to 1, so the fit reports the objective for both
orderings and flags near-degeneracy instead of pretending uniqueness.

Only the cascade convention of model.closed_form_noise_reduction is fit:
"swapped" is the same formula with L1 and L2 exchanged, so for such data
read l1_hat as L2 and l2_hat as L1, and exchange those covariance axes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import NumericalError, _check_integer
from .model import (
    _coefficients as _model_coefficients,
    closed_form_noise_reduction,
    joint_quadrature_variance,
    linear_to_db,
    noise_reduction_regressors,
)

#: measured R may exceed 1 slightly through measurement noise
R_UPPER_SANITY = 1.05
#: two loss orderings are reported indistinguishable below this objective gap
DEGENERACY_TOL = 1e-10
#: required projected-gradient norm at the returned point
GRAD_TOL = 1e-8
#: largest mu_max: the objective and its gradient, ~mu^4, stay below sqrt(max float)
MU_MAX_LIMIT = np.finfo(float).max ** 0.125


class InsufficientDataError(ValueError):
    """Fewer points than the model has identifiable parameters."""


class DegenerateDesignError(ValueError):
    """The design carries no information (e.g. all gq identical)."""


class UnstableFitError(NumericalError):
    """The fit (or too many bootstrap refits) failed to converge."""


@dataclass(frozen=True)
class NoiseDataset:
    """(gq, R[, sigma]) points; sorted by gq on construction."""

    quantum_gain: np.ndarray
    noise_ratio: np.ndarray
    sigma: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        gq = np.atleast_1d(np.asarray(self.quantum_gain, dtype=float))
        r = np.atleast_1d(np.asarray(self.noise_ratio, dtype=float))
        if gq.shape != r.shape or gq.ndim != 1 or gq.size == 0:
            raise ValueError("quantum_gain and noise_ratio must be matching 1-d arrays")
        if not (np.all(np.isfinite(gq)) and np.all(np.isfinite(r))):
            raise ValueError("quantum_gain and noise_ratio must be finite")
        if np.any(gq < 1.0):
            raise ValueError("quantum_gain values must be >= 1")
        if np.any(r <= 0.0):
            raise ValueError("noise_ratio values must be positive")
        if np.any(r > R_UPPER_SANITY):
            raise ValueError(
                f"noise_ratio above {R_UPPER_SANITY} is not a noise-reduction "
                "measurement; check the data reduction"
            )
        sigma = self.sigma
        if sigma is not None:
            sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
            if sigma.shape != gq.shape:
                raise ValueError("sigma must match the data length")
            if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
                raise ValueError("sigma values must be positive and finite")
        order = np.argsort(gq, kind="stable")
        gq, r = gq[order], r[order]
        if sigma is not None:
            sigma = sigma[order]
        if np.unique(gq).size == 1 and gq.size > 1:
            raise DegenerateDesignError("all quantum_gain values are identical")
        if np.any(np.diff(gq) <= 0.0):
            raise ValueError("quantum_gain values must be distinct")
        for arr in (gq, r) + (() if sigma is None else (sigma,)):
            arr.setflags(write=False)
        object.__setattr__(self, "quantum_gain", gq)
        object.__setattr__(self, "noise_ratio", r)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_points(self) -> int:
        return self.quantum_gain.size

    @property
    def weights(self) -> np.ndarray:
        """Inverse-variance weights, normalized to mean 1.

        The normalization leaves the minimizer unchanged but keeps the
        objective (and its gradient) on an O(1) scale regardless of the
        units of ``sigma``, so absolute convergence tolerances apply.
        """
        if self.sigma is None:
            return np.ones(self.n_points)
        w = (self.sigma.min() / self.sigma) ** 2  # in (0, 1]: no 1/sigma^2 overflow
        return w / w.mean()


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    ``n_starts`` grid cells (169 at most) join the linear points as starts
    of the boundary polish, which draws no random numbers; ``seed`` fixes
    only the bootstrap resampling.
    """

    n_starts: int = 1
    mu_max: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _check_integer("n_starts", self.n_starts, 1)
        _check_integer("seed", self.seed, 0)
        if not 1.0 < self.mu_max <= MU_MAX_LIMIT:
            raise ValueError(f"mu_max must be within (1, {MU_MAX_LIMIT:.3g}]")


@dataclass(frozen=True)
class FitResult:
    """Fit outcome, in physical parameters."""

    mu_hat: float
    l1_hat: float
    l2_hat: float
    residual_rms: float
    objective: float
    objective_swapped_losses: float
    loss_ordering_degenerate: bool
    correlation_x_plus: float
    correlation_db: float
    n_restarts_used: int
    projected_grad_norm: float
    dataset_label: str = ""

    @property
    def nu_hat(self) -> float:
        return math.sqrt(self.mu_hat * self.mu_hat - 1.0)


@dataclass(frozen=True)
class BootstrapResult:
    """Residual-resampling uncertainty estimate."""

    covariance: np.ndarray  # 3x3 over (mu, L1, L2)
    correlation_db_ci: tuple[float, float]  # 2.5 / 97.5 percentiles
    n_resamples: int
    n_failures: int


# ---------------------------------------------------------------------------
# model in the fit coordinates z = (t_1, ..., t_n, s1, s2)


def _coefficients(x) -> tuple[np.ndarray, np.ndarray]:
    """model._coefficients at x = (t, s1, s2), with u = 2 sinh^2 t and v = sinh 2t, and their
    Jacobian in x, broadcast over the leading axes of x: shapes x.shape and x.shape + (3,)."""
    t, s1, s2 = x[..., 0], x[..., 1], x[..., 2]
    sh = np.sinh(t)  # squared as a product: NumPy's ** 2 takes pow on a scalar, square on an array
    u, v = 2.0 * (sh * sh), np.sinh(2.0 * t)
    u2, du, dc = 2.0 * u, 2.0 * v, -4.0 * np.cosh(2.0 * t)
    out = np.zeros(t.shape + (4, 3))  # the coefficients, then the Jacobian's rows
    out[..., 0, 0], out[..., 0, 1], out[..., 0, 2] = _model_coefficients(u, v, s1, s2)
    out[..., 1, 0], out[..., 1, 2] = du * (s2 * s2), u2 * s2
    out[..., 2, 0], out[..., 2, 1], out[..., 2, 2] = du * (s1 * s1 - s2 * s2), u2 * s1, -u2 * s2
    out[..., 3, 0], out[..., 3, 1], out[..., 3, 2] = dc * (s1 * s2), -du * s2, -du * s1
    return out[..., 0, :], out[..., 1:, :]


def _residuals(z, terms) -> tuple[np.ndarray, np.ndarray]:
    """The stacked weighted residuals sqrt(w) (X c(t_k, s1, s2) - R) of the
    datasets and their Jacobian in z = (t_1, ..., t_n, s1, s2); ``terms``
    holds each dataset's (design X, R, weights w).  Broadcasts over the
    leading axes of z and of the R rows."""
    n = len(terms)
    coef, dcoef = _coefficients(z[..., [[k, n, n + 1] for k in range(n)]])
    res, jac = [], []
    for k, (design, r, w) in enumerate(terms):
        sw = np.sqrt(w)
        a = design * sw[:, None]
        res.append(coef[..., k, :] @ a.T - r * sw)
        jac.append(np.zeros(res[-1].shape + (n + 2,)))
        jac[-1][..., [k, n, n + 1]] = a @ dcoef[..., k, :, :]
    return np.concatenate(res, axis=-1), np.concatenate(jac, axis=-2)


def _objective(z, terms) -> tuple[np.ndarray, np.ndarray]:
    """The weighted sum of squared residuals, f = r.r, and its gradient
    2 J^T r in z, broadcast as :func:`_residuals`."""
    r, jac = _residuals(z, terms)
    return np.sum(r * r, axis=-1), 2.0 * (r[..., None, :] @ jac)[..., 0, :]


def _held(z, g, hi) -> np.ndarray:
    """The coordinates at a bound (within 1e-12) whose gradient points out of the box."""
    return ((z <= 1e-12) & (g > 0)) | ((z >= hi - 1e-12) & (g < 0))


def _projected_gradient(z, terms, hi) -> tuple[np.ndarray, np.ndarray]:
    """The objective at z and the norm of its gradient without the held
    components, broadcast as :func:`_residuals`; np.hypot cannot overflow."""
    f, g = _objective(z, terms)
    return f, np.hypot.reduce(np.where(_held(z, g, hi), 0.0, g), axis=-1)


#: the polish stops at a projected gradient of _POLISH_TOL unless its last step still halved f
#: (noiseless data), or after _PATIENCE failed steps in a row, _FLOOR_PATIENCE once the
#: projected gradient is below _FLOOR_TOL (the roundoff floor of f), or after _MAX_STEPS
_POLISH_TOL, _FLOOR_TOL = 1e-2 * GRAD_TOL, 1e-1 * GRAD_TOL
_PATIENCE, _FLOOR_PATIENCE, _MAX_STEPS = 9, 2, 500


def _polish(z0, terms, hi) -> tuple[np.ndarray, float]:
    """Projected Levenberg-Marquardt on [0, hi] from z0 (More 1978; bounds by
    projection, as in Coleman & Li 1996): each step holds the coordinates at
    a bound whose gradient points out of the box, solves the damped normal
    equations (J^T J + lam max(diag J^T J)) h = -J^T r on the others, clips
    z + h into the box and is taken only when it lowers f; lam follows the
    ratio of actual to predicted decrease (Nielsen 1999).  The caller's gate
    judges the end point."""
    z = np.clip(z0, 0.0, hi)
    r, jac = _residuals(z, terms)
    f, lam, grow, rejected, halved = float(r @ r), 1e-3, 2.0, 0, False
    for _ in range(_MAX_STEPS):
        g = 2.0 * (r @ jac)
        free = ~_held(z, g, hi)
        norm = np.hypot.reduce(g[free])
        if (norm <= (0.0 if halved else _POLISH_TOL)
                or rejected >= (_FLOOR_PATIENCE if norm <= _FLOOR_TOL else _PATIENCE)):
            break
        a = jac[:, free]
        gram = a.T @ a
        gram.flat[:: len(gram) + 1] += lam * gram.diagonal().max()
        trial = z.copy()
        try:
            trial[free] += np.linalg.solve(gram, -(a.T @ r))
        except np.linalg.LinAlgError:  # J^T J singular on the free set: a null step, then more damping
            pass
        trial = trial.clip(0.0, hi)
        r_new, jac_new = _residuals(trial, terms)
        f_new = float(r_new @ r_new)
        if f_new < f:
            model = r + jac @ (trial - z)  # the linearised residuals at the trial
            predicted = f - float(model @ model)
            rho = (f - f_new) / predicted if predicted > 0.0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            halved, grow, rejected = f_new < 0.5 * f, 2.0, 0
            z, r, jac, f = trial, r_new, jac_new, f_new
        else:  # beyond 1/eps, lam only shrinks the step below the roundoff of z
            lam, grow, rejected = min(lam * grow, 1.0 / np.finfo(float).eps), 2.0 * grow, rejected + 1
    return z, f


def _linear_solution(design, r, w, hi) -> tuple[np.ndarray, np.ndarray]:
    """Weighted linear least squares for (alpha, beta, gamma), inverted to x = (t, s1, s2).

    ``r`` is one R row or a stack of rows on the same design, solved as one
    problem with a right-hand side per row.  Returns x, shape
    ``r.shape[:-1] + (3,)``, clipped into [0, hi], and whether each inverse
    already lay inside it, in which case that x is the global optimum of its fit.
    """
    sw = np.sqrt(w)
    a, b = design * sw[:, None], (r * sw).T
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):  # NaN can hang LAPACK
        raise NumericalError("weighted least squares is not finite; check gq, R and sigma")
    alpha, beta, gamma = np.linalg.lstsq(a, b, rcond=None)[0]
    p, q = alpha - 1.0, alpha - 1.0 + beta  # u T2 and u T1
    gamma = np.minimum(gamma, 0.0)  # gamma > 0 has no preimage; 0 maps to mu = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 2.0 / (gamma * gamma / (4.0 * p * q) - 1.0)
        # math.asinh: NumPy's vectorised arcsinh rounds differently in the last bit
        t = [math.asinh(math.sqrt(v / 2.0)) if v >= 0 else 0.0 for v in np.ravel(u).tolist()]
        x = np.stack([np.reshape(t, np.shape(u)), np.sqrt(q / u), np.sqrt(p / u)], axis=-1)
    inside = (p > 0) & (q > 0) & (gamma < 0) & np.all(x <= hi, axis=-1)
    return np.clip(np.nan_to_num(x, nan=0.0), 0.0, hi), inside


def _box(n: int, config: FitConfig) -> np.ndarray:
    """Upper bounds of z for n datasets; every lower bound is 0."""
    return np.array([math.acosh(config.mu_max)] * n + [1.0, 1.0])


def _physical(t, s1, s2) -> tuple[np.ndarray, ...]:
    """(mu, L1, L2, X+, X+ in dB relative to 2) at x = (t, s1, s2), broadcast."""
    mu, l1, l2 = np.cosh(t), 1.0 - s1 * s1, 1.0 - s2 * s2
    x_plus = joint_quadrature_variance(mu, l1, l2)
    return mu, l1, l2, x_plus, linear_to_db(x_plus / 2.0)


def _check_point_count(n: int, n_points: int) -> None:
    if n_points < n + 3:
        raise InsufficientDataError(
            f"need >= {n + 3} points to fit {n + 2} parameters, got {n_points}"
        )


def _grid_starts(terms, hi, n_cells) -> list[np.ndarray]:
    """The ``n_cells`` lowest cells (the earliest in a tie) of a 13 x 13 (s1, s2) grid on
    [0, 1]^2, each dataset's t at its best of 0 and 23 geometric levels from 1e-3 to the bound:
    with R = X c(t, s1, s2), a dataset's objective is c^T X^T W X c - 2 c^T X^T W r + const."""
    s = np.linspace(0.0, 1.0, 13)
    t = np.minimum(np.concatenate([[0.0], np.geomspace(1e-3, hi[0], 23)]), hi[0])
    tt, s1, s2 = np.meshgrid(t, s, s, indexing="ij")
    u, v = 2.0 * np.sinh(tt) ** 2, np.sinh(2.0 * tt)
    coef = np.stack(_model_coefficients(u, v, s1, s2), axis=-1)
    costs = np.array([np.sum((coef @ (x.T @ (w[:, None] * x)) - 2.0 * x.T @ (w * r)) * coef, axis=-1)
                      for x, r, w in terms])
    best_t, total = t[np.argmin(costs, axis=1)], np.min(costs, axis=1).sum(axis=0)
    cells = zip(*np.unravel_index(np.argsort(total, axis=None, kind="stable")[:n_cells], (13, 13)))
    return [np.array([*best_t[:, i, j], s[i], s[j]]) for i, j in cells]


def _fit(terms, labels: Sequence[str], config: FitConfig | None) -> list[FitResult]:
    """Fit z to n datasets sharing (L1, L2), given as their (design X, R, weights w) and labels:
    one dataset's linear inverse inside the box, or else the lowest polish (the earliest start
    in a tie) from each dataset's clipped linear point, with every dataset's t, and the
    ``config.n_starts`` cells of :func:`_grid_starts`.  The objective fields are joint.

    Raises:
        InsufficientDataError: fewer than n + 3 points in all.
        UnstableFitError: the projected gradient at the fit is not below GRAD_TOL.
    """
    if config is None:
        config = FitConfig()
    n = len(terms)
    _check_point_count(n, sum(r.size for _, r, _ in terms))
    hi = _box(n, config)
    xs, inside = zip(*(_linear_solution(*term, hi[-3:]) for term in terms))
    if n == 1 and inside[0]:
        z, n_polished = xs[0], 0
    else:
        zs = [np.array([*(x[0] for x in xs), *x[1:]]) for x in xs]
        zs += _grid_starts(terms, hi, config.n_starts)
        z = min((_polish(z0, terms, hi) for z0 in zs), key=lambda zf: zf[1])[0]
        n_polished = len(zs)
    f, norm = map(float, _projected_gradient(z, terms, hi))
    if not norm < GRAD_TOL:
        raise UnstableFitError(f"projected gradient norm {norm:.2e} at the fit; it did not converge")
    f_swapped = float(_objective(np.concatenate([z[:-2], z[:-3:-1]]), terms)[0])  # s1 and s2 exchanged
    s1, s2 = z[n:]
    results = []
    for t, label, term in zip(z[:n], labels, terms):
        mu, l1, l2, x_plus, x_plus_db = map(float, _physical(t, s1, s2))
        results.append(FitResult(
            mu_hat=mu,
            l1_hat=l1,
            l2_hat=l2,
            residual_rms=math.sqrt(_objective(np.array([t, s1, s2]), [term])[0] / term[1].size),
            objective=f,
            objective_swapped_losses=f_swapped,
            loss_ordering_degenerate=bool(abs(f - f_swapped) < DEGENERACY_TOL),
            correlation_x_plus=x_plus,
            correlation_db=x_plus_db,
            n_restarts_used=n_polished,
            projected_grad_norm=norm,
            dataset_label=label,
        ))
    return results


def fit_dataset(data: NoiseDataset, config: FitConfig | None = None) -> FitResult:
    """Weighted least-squares fit of (mu, L1, L2) to one dataset.

    The linear solve, or the boundary polish when its inverse leaves the
    box; ``n_restarts_used`` is 0 or the number of polishes, 1 + n_starts.

    Raises:
        InsufficientDataError: fewer than 4 points.
        UnstableFitError: the optimizer could not reach a local minimum.
    """
    return fit_datasets_shared_loss([data], config)[0]


def fit_datasets_shared_loss(
    datasets: Sequence[NoiseDataset], config: FitConfig | None = None
) -> list[FitResult]:
    """Joint fit of several datasets sharing (L1, L2), one mu per dataset.

    Two or more datasets always polish; one is the single fit, and none
    raises InsufficientDataError.  Returns one FitResult per dataset; the
    objective fields carry the total (summed) objective of the joint problem.
    """
    terms = [(noise_reduction_regressors(d.quantum_gain), d.noise_ratio, d.weights)
             for d in datasets]
    return _fit(terms, [d.label for d in datasets], config)


def bootstrap_uncertainty(
    data: NoiseDataset,
    fit: FitResult,
    n_resamples: int = 200,
    config: FitConfig | None = None,
) -> BootstrapResult:
    """Residual-resampling bootstrap around an existing fit.

    Residuals of the fit are resampled with replacement onto the model
    curve at the data's gains (the design stays fixed), and each synthetic
    dataset is refit.  The interior refits share one linear solve, one
    right-hand side per resample, and one broadcast of the fit's gradient
    gate; only the resamples whose linear inverse leaves the box run the
    boundary polish of :func:`fit_dataset`.
    ``config``'s ``seed`` fixes the resampling.  A refit fails when a resampled
    R leaves (0, R_UPPER_SANITY] or its gradient gate fails.  Returns the
    empirical covariance of (mu, L1, L2) and a 95% percentile interval for
    correlation_db.

    Raises:
        ValueError: ``n_resamples`` is not an integer >= 100.
        InsufficientDataError: fewer than 4 points.
        UnstableFitError: more than 20% of the refits fail.
    """
    _check_integer("n_resamples", n_resamples, 100)
    if config is None:
        config = FitConfig()
    _check_point_count(1, data.n_points)
    rng = np.random.default_rng(config.seed + 0x5EED)
    gq, n = data.quantum_gain, data.n_points
    model_r = closed_form_noise_reduction(fit.mu_hat, fit.l1_hat, fit.l2_hat, gq)
    residuals = data.noise_ratio - model_r
    rs = model_r + residuals[rng.integers(0, n, size=(n_resamples, n))]  # row by row as drawn one by one
    valid = np.all((rs > 0.0) & (rs <= R_UPPER_SANITY), axis=1)
    design, w, hi = noise_reduction_regressors(gq), data.weights, _box(1, config)
    xs, inside = _linear_solution(design, rs, w, hi)
    interior = valid & inside & (_projected_gradient(xs, [(design, rs, w)], hi)[1] < GRAD_TOL)
    mu, l1, l2, _, x_plus_db = _physical(*xs[interior].T)
    params, corr_db = np.stack([mu, l1, l2], axis=-1).tolist(), x_plus_db.tolist()
    failures = int(np.sum(~valid | (inside & ~interior)))
    for r in rs[valid & ~inside]:
        try:
            res = _fit([(design, r, w)], [data.label], config)[0]
        except UnstableFitError:
            failures += 1
            continue
        params.append([res.mu_hat, res.l1_hat, res.l2_hat])
        corr_db.append(res.correlation_db)
    if failures > 0.2 * n_resamples:
        raise UnstableFitError(
            f"{failures}/{n_resamples} bootstrap refits failed; uncertainty not trustworthy"
        )
    arr = np.asarray(params)
    cov = np.cov(arr.T, ddof=1) if arr.shape[0] > 1 else np.zeros((3, 3))
    lo, hi = np.percentile(corr_db, [2.5, 97.5])
    return BootstrapResult(cov, (float(lo), float(hi)), n_resamples, failures)


# ---------------------------------------------------------------------------
# CSV interface


def load_noise_csv(path: str) -> NoiseDataset:
    """Load a (gq, R) dataset from CSV.

    Comment lines start with '#'.  The header row must contain gq_linear
    and R_linear columns (as written by the gain-sweep command); a sigma
    column is used as per-point standard deviation when present.

    Raises:
        ValueError: malformed content, with the offending line number.
    """
    gq, r, sigma = [], [], []
    header: dict[str, int] | None = None
    has_sigma = False
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = {name.strip(): i for i, name in enumerate(row)}
                if "gq_linear" not in header or "R_linear" not in header:
                    raise ValueError(
                        f"{path}: line {lineno}: header must contain gq_linear and R_linear"
                    )
                has_sigma = "sigma" in header
                continue
            try:
                gq.append(float(row[header["gq_linear"]]))
                r.append(float(row[header["R_linear"]]))
                if has_sigma:
                    sigma.append(float(row[header["sigma"]]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no header row found")
    if not gq:
        raise InsufficientDataError(f"{path}: no data rows")
    label = os.path.splitext(os.path.basename(path))[0]
    return NoiseDataset(
        np.array(gq), np.array(r), np.array(sigma) if has_sigma else None, label
    )
