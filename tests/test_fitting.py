"""Unit tests for the noise-reduction least-squares fitting module."""

import itertools
import math

import numpy as np
import pytest
from scipy import optimize

from ramansim import fitting
from ramansim.fitting import (
    DegenerateDesignError,
    FitConfig,
    InsufficientDataError,
    NoiseDataset,
    UnstableFitError,
    bootstrap_uncertainty,
    fit_dataset,
    fit_datasets_shared_loss,
    load_noise_csv,
)
from ramansim.gaussian import NumericalError
from ramansim.model import (
    closed_form_noise_reduction,
    correlation_estimate_from_ratio,
    joint_quadrature_variance,
    noise_reduction_coefficients,
    noise_reduction_regressors,
)

GQ_GRID = np.array([2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0])


def synthetic_dataset(mu, l1, l2, sigma_rel=None, seed=None, pairing="cascade", label=""):
    r = closed_form_noise_reduction(mu, l1, l2, GQ_GRID, pairing=pairing)
    sigma = None
    if sigma_rel is not None:
        sigma = sigma_rel * r
        r = r + np.random.default_rng(seed).normal(0.0, sigma)
    return NoiseDataset(GQ_GRID, r, sigma, label)


def weighted_sse(data, mu, l1, l2):
    pred = closed_form_noise_reduction(mu, l1, l2, data.quantum_gain)
    return float(np.sum(data.weights * (pred - data.noise_ratio) ** 2))


def loss_recovery_error(fit, l1, l2):
    """Parameter error allowing the documented loss-ordering swap."""
    direct = max(abs(fit.l1_hat - l1), abs(fit.l2_hat - l2))
    swapped = max(abs(fit.l1_hat - l2), abs(fit.l2_hat - l1))
    return min(direct, swapped)


class TestNoiseDataset:
    def test_sorts_by_gain(self):
        data = NoiseDataset(np.array([8.0, 2.0, 4.0]), np.array([0.5, 0.9, 0.7]))
        assert data.quantum_gain == pytest.approx([2.0, 4.0, 8.0])
        assert data.noise_ratio == pytest.approx([0.9, 0.7, 0.5])

    def test_sigma_sorted_with_data(self):
        data = NoiseDataset(
            np.array([8.0, 2.0]), np.array([0.5, 0.9]), np.array([0.02, 0.01])
        )
        assert data.sigma == pytest.approx([0.01, 0.02])

    def test_weights_normalized_to_mean_one(self):
        data = NoiseDataset(
            np.array([2.0, 4.0, 8.0]),
            np.array([0.9, 0.7, 0.5]),
            np.array([0.004, 0.002, 0.008]),
        )
        assert data.weights.mean() == pytest.approx(1.0, abs=1e-14)
        assert data.weights[1] == data.weights.max()

    def test_weights_are_normalised_inverse_variances(self):
        sigma = np.array([0.004, 0.002, 0.008, 0.003])
        data = NoiseDataset(np.array([2.0, 4.0, 8.0, 16.0]), np.array([0.9, 0.7, 0.5, 0.4]), sigma)
        w = 1.0 / sigma**2
        assert data.weights == pytest.approx(w / w.mean(), rel=1e-15)

    @pytest.mark.parametrize("sigma", [[1e-300, 0.01, 0.01], [1e-200] * 3], ids=["one", "all"])
    def test_tiny_sigma_weights_stay_finite(self, sigma):
        """1/sigma^2 overflows for sigma below ~1e-154; the weights do not."""
        data = NoiseDataset(np.array([2.0, 4.0, 8.0]), np.array([0.9, 0.7, 0.5]), np.array(sigma))
        assert np.all(np.isfinite(data.weights))
        assert data.weights.mean() == pytest.approx(1.0, abs=1e-14)
        assert data.weights[0] == data.weights.max()

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["design", "r", "weights"])
    def test_non_finite_least_squares_is_numerical_error(self, which):
        """No NaN or inf reaches LAPACK, whose SVD can hang on one."""
        args = [noise_reduction_regressors(GQ_GRID), np.full(GQ_GRID.size, 0.5), np.ones(GQ_GRID.size)]
        args[which][2] = np.inf
        with pytest.raises(NumericalError, match="sigma"):
            fitting._linear_solution(*args, np.ones(3))

    def test_unweighted_default(self):
        data = NoiseDataset(np.array([2.0, 4.0]), np.array([0.9, 0.7]))
        assert data.weights == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize(
        "gq,r",
        [
            ([0.5, 2.0], [0.9, 0.8]),
            ([2.0, 4.0], [0.9, -0.1]),
            ([2.0, 4.0], [0.9, 1.2]),
            ([2.0, 2.0, 4.0], [0.9, 0.8, 0.7]),
            ([2.0, np.nan], [0.9, 0.8]),
            ([2.0, np.inf], [0.9, 0.8]),
            ([2.0, 4.0], [0.9, np.nan]),
            ([2.0, 4.0], [0.9, -np.inf]),
            ([2.0, 4.0, 8.0], [0.9, 0.8]),
        ],
    )
    def test_validation(self, gq, r):
        with pytest.raises(ValueError):
            NoiseDataset(np.array(gq, dtype=float), np.array(r, dtype=float))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_sigma_validation(self, bad):
        with pytest.raises(ValueError):
            NoiseDataset(np.array([2.0, 4.0]), np.array([0.9, 0.8]), np.array([0.01, bad]))
        with pytest.raises(ValueError, match="sigma must match the data length"):
            NoiseDataset(np.array([2.0, 4.0]), np.array([0.9, 0.8]), np.array([0.01]))

    def test_constant_design_rejected(self):
        with pytest.raises(DegenerateDesignError):
            NoiseDataset(np.array([8.0, 8.0, 8.0]), np.array([0.5, 0.5, 0.5]))


class TestFitConfig:
    @pytest.mark.parametrize("mu_max", [1.0, np.nan, np.inf, 1e300])
    def test_mu_max_finite_above_one(self, mu_max):
        with pytest.raises(ValueError, match="mu_max"):
            FitConfig(mu_max=mu_max)

    def test_boundary_fit_at_the_mu_max_limit_stays_finite(self):
        """At mu_max = 1e300 a boundary polish once overflowed in math.sinh;
        at the limit the grid's top t level and a polish from it stay finite
        (a RuntimeWarning is an error here)."""
        config = FitConfig(mu_max=fitting.MU_MAX_LIMIT)
        data = synthetic_dataset(1.001, 1.0, 0.0)
        fit = fit_dataset(data, config)
        assert fit.n_restarts_used == 2 and fit.objective < 1e-20
        terms = [(noise_reduction_regressors(GQ_GRID), data.noise_ratio, data.weights)]
        hi = fitting._box(1, config)
        assert math.isfinite(fitting._polish(np.array([hi[0], 0.3, 0.9]), terms, hi)[1])

    @pytest.mark.parametrize("n_starts", [0, 2.5, np.nan, np.float64(3.0), "4", True])
    def test_n_starts_integer_at_least_one(self, n_starts):
        with pytest.raises(ValueError, match="n_starts"):
            FitConfig(n_starts=n_starts)
        assert FitConfig(n_starts=np.int64(3)).n_starts == 3

    @pytest.mark.parametrize("seed", [-1, 2.5, np.nan, np.float64(3.0), "4", True])
    def test_seed_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            FitConfig(seed=seed)
        assert FitConfig(seed=np.uint64(3)).seed == 3


class TestFitRoundTrip:
    def test_noiseless_recovery_unequal_losses(self):
        data = synthetic_dataset(1.3, 0.05, 0.25, label="clean")
        fit = fit_dataset(data)
        assert abs(fit.mu_hat - 1.3) < 1e-6
        assert loss_recovery_error(fit, 0.05, 0.25) < 1e-6
        assert fit.projected_grad_norm < 1e-8
        assert fit.n_restarts_used == 0  # the linear solve landed inside the box
        assert fit.dataset_label == "clean"
        # at finite gain the loss ordering is identifiable
        assert fit.objective_swapped_losses > fit.objective + 1e-6
        assert not fit.loss_ordering_degenerate

    def test_joint_variance_swap_invariant(self):
        data = synthetic_dataset(1.3, 0.05, 0.25)
        fit = fit_dataset(data)
        truth = joint_quadrature_variance(1.3, 0.05, 0.25)
        assert abs(fit.correlation_x_plus - truth) < 1e-8

    def test_equal_losses_flagged_degenerate(self):
        fit = fit_dataset(synthetic_dataset(1.17, 0.1, 0.1))
        assert fit.loss_ordering_degenerate
        assert abs(fit.mu_hat - 1.17) < 1e-6

    def test_vacuum_dataset(self):
        data = NoiseDataset(GQ_GRID, np.ones(GQ_GRID.size))
        fit = fit_dataset(data, FitConfig(n_starts=4))
        assert fit.mu_hat == pytest.approx(1.0, abs=1e-6)
        assert fit.correlation_db == pytest.approx(0.0, abs=1e-5)
        assert fit.n_restarts_used == 5  # boundary polish: 4 starts plus the linear point

    def test_swapped_pairing_round_trip(self):
        """Swapped-convention data fit as the cascade curve with L1 and L2
        exchanged."""
        data = synthetic_dataset(1.4, 0.3, 0.08, pairing="swapped")
        fit = fit_dataset(data)
        assert abs(fit.mu_hat - 1.4) < 1e-6
        assert max(abs(fit.l1_hat - 0.08), abs(fit.l2_hat - 0.3)) < 1e-6
        assert not fit.loss_ordering_degenerate

    def test_weighted_fit_uses_sigma(self):
        data = synthetic_dataset(1.25, 0.15, 0.15, sigma_rel=0.01, seed=3)
        fit = fit_dataset(data)
        assert fit.projected_grad_norm < 1e-8
        assert abs(fit.mu_hat - 1.25) < 0.1

    def test_insufficient_points(self):
        data = NoiseDataset(np.array([2.0, 4.0, 8.0]), np.array([0.9, 0.8, 0.7]))
        with pytest.raises(InsufficientDataError):
            fit_dataset(data)

    def test_deterministic(self):
        data = synthetic_dataset(1.3, 0.05, 0.25)
        a = fit_dataset(data, FitConfig(seed=5))
        b = fit_dataset(data, FitConfig(seed=5))
        assert a.mu_hat == b.mu_hat
        assert a.objective == b.objective


class TestLinearAgainstPolish:
    @pytest.mark.parametrize("pairing", ["cascade", "swapped"])
    def test_fit_coordinates_match_model(self, pairing):
        """The fitter's coefficient map in (t, s1, s2) against the model's in
        (mu, L1, L2), and its Jacobian against central differences.  A
        swapped-pairing point is the fitter's point with s1 and s2 exchanged."""
        order = [0, 1, 2] if pairing == "cascade" else [0, 2, 1]
        rng = np.random.default_rng(4)
        for x in rng.uniform([0.0, 0.0, 0.0], [2.0, 1.0, 1.0], (20, 3)):
            mu, l1, l2 = math.cosh(x[0]), 1.0 - x[1] ** 2, 1.0 - x[2] ** 2
            x = x[order]
            coef, jac = fitting._coefficients(x)
            ref = noise_reduction_coefficients(mu, l1, l2, pairing)
            assert coef == pytest.approx(np.array(ref), rel=1e-12, abs=1e-12)
            h = 1e-6
            for i in range(3):
                step = np.eye(3)[i] * h
                fd = (fitting._coefficients(x + step)[0]
                      - fitting._coefficients(x - step)[0]) / (2 * h)
                assert jac[:, i] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_scalar_and_stacked_t_agree_to_the_last_bit(self):
        """One point x = (t, s1, s2), whose t is a NumPy scalar, gives the
        coefficients and Jacobian rows of the same point in a stack, bit for
        bit: NumPy's ** 2 is pow on a scalar and square on an array, and
        sinh(t)^2 by pow differs in the last bit for some t in [0, 3]."""
        rng = np.random.default_rng(205)
        xs = rng.uniform([0.0, 0.0, 0.0], [3.0, 1.0, 1.0], (5000, 3))
        coef, jac = fitting._coefficients(xs)
        for x, c, j in zip(xs, coef, jac):
            one_coef, one_jac = fitting._coefficients(x)
            assert one_coef.tolist() == c.tolist() and one_jac.tolist() == j.tolist()

    def test_fit_coordinates_keep_t_below_cosh_resolution(self):
        """At t = 1e-9, where mu = cosh t rounds to 1, the kernel still gives
        gamma = -2 sinh(2t) = -4t and its slope -4 cosh(2t) = -4."""
        coef, jac = fitting._coefficients(np.array([1e-9, 1.0, 1.0]))
        assert coef[2] == pytest.approx(-4e-9, rel=1e-12)
        assert jac[2, 0] == pytest.approx(-4.0, rel=1e-12)
        assert noise_reduction_coefficients(math.cosh(1e-9), 0.0, 0.0)[2] == 0.0

    @pytest.mark.parametrize("n_sets", [1, 3])
    def test_joint_objective_gradient(self, n_sets):
        """The objective in z = (t_1, ..., t_n, s1, s2) is the sum of the
        per-dataset objectives, and its gradient matches central differences."""
        design = noise_reduction_regressors(GQ_GRID)
        sets = [synthetic_dataset(1.1 + 0.2 * j, 0.2, 0.3, 0.01, seed=j) for j in range(n_sets)]
        terms = [(design, d.noise_ratio, d.weights) for d in sets]
        rng = np.random.default_rng(n_sets)
        for z in rng.uniform(0.05, [1.5] * n_sets + [0.95, 0.95], (10, n_sets + 2)):
            f, g = fitting._objective(z, terms)
            parts = [fitting._objective(np.array([z[j], *z[n_sets:]]), [terms[j]])[0]
                     for j in range(n_sets)]
            assert f == pytest.approx(sum(parts), rel=1e-14)
            h = 1e-6
            fd = [fitting._objective(z + h * e, terms)[0] - fitting._objective(z - h * e, terms)[0]
                  for e in np.eye(n_sets + 2)]
            assert g == pytest.approx(np.array(fd) / (2 * h), rel=1e-6, abs=1e-7)

    def test_interior_solve_not_above_polish_from_truth(self):
        """The closed-form solve against SciPy's bounded L-BFGS-B started at
        the truth; both objectives through the closed form, in the cascade
        convention, where swapped-pairing data have L1 and L2 exchanged."""
        hi = np.array([math.acosh(FitConfig().mu_max), 1.0, 1.0])
        design = noise_reduction_regressors(GQ_GRID)
        interior = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            mu, l1, l2 = rng.uniform(1.1, 2.0), *rng.uniform(0.05, 0.6, 2)
            pairing = ("cascade", "swapped")[seed % 2]
            if np.max(closed_form_noise_reduction(mu, l1, l2, GQ_GRID, pairing=pairing)) > 1.0:
                continue  # not a noise-reduction curve
            data = synthetic_dataset(mu, l1, l2, sigma_rel=0.01, seed=seed, pairing=pairing)
            if pairing == "swapped":
                l1, l2 = l2, l1
            fit = fit_dataset(data)
            if fit.n_restarts_used:
                continue
            interior += 1
            truth = np.array([math.acosh(mu), math.sqrt(1.0 - l1), math.sqrt(1.0 - l2)])
            terms = [(design, data.noise_ratio, data.weights)]
            (t, s1, s2), _ = lbfgsb_polish(truth, terms, hi)
            slow = weighted_sse(data, math.cosh(t), 1.0 - s1 * s1, 1.0 - s2 * s2)
            fast = weighted_sse(data, fit.mu_hat, fit.l1_hat, fit.l2_hat)
            assert fast <= slow * (1.0 + 1e-12), (seed, fast, slow)
        assert interior >= 50

    def test_boundary_battery_not_above_truth(self):
        """mu at or next to 1 with losses 0 or 1, where the linear solve mostly
        leaves the box: the polish must still reach the truth's objective,
        with L1 and L2 exchanged for swapped-pairing data."""
        battery = list(itertools.product(
            (1.0, 1.001), (0.0, 1.0), (0.0, 1.0), ("cascade", "swapped"), (None, 1, 2)
        ))
        unstable = 0
        for mu, l1, l2, pairing, noise_seed in battery:
            sigma_rel = None if noise_seed is None else 0.01
            data = synthetic_dataset(mu, l1, l2, sigma_rel, noise_seed, pairing)
            if pairing == "swapped":
                l1, l2 = l2, l1
            try:
                fit = fit_dataset(data)
            except UnstableFitError:
                unstable += 1
                continue
            got = weighted_sse(data, fit.mu_hat, fit.l1_hat, fit.l2_hat)
            truth = weighted_sse(data, mu, l1, l2)
            assert got <= truth + 1e-12, (mu, l1, l2, pairing, noise_seed)
        assert unstable <= 0.1 * len(battery)


def lbfgsb_polish(z0, terms, hi):
    """The reference polish, independent of fitting._polish: SciPy's bounded
    L-BFGS-B on fitting._objective from z0.  ftol = 0, because L-BFGS-B
    measures the decrease relative to max(|f|, 1) and f is O(n sigma^2)."""
    res = optimize.minimize(
        fitting._objective, z0, args=(terms,), method="L-BFGS-B", jac=True,
        bounds=optimize.Bounds(0.0, hi),
        options={"ftol": 0.0, "gtol": 1e-12, "maxiter": 1000},
    )
    z = np.clip(res.x, 0.0, hi)
    return z, float(fitting._objective(z, terms)[0])


def fit_starts(datasets):
    """(starts, terms, box) of a default-config fit: each dataset's clipped
    linear point, with every dataset's t, and the best grid cell."""
    n = len(datasets)
    hi = np.array([math.acosh(FitConfig().mu_max)] * n + [1.0, 1.0])
    terms = [(noise_reduction_regressors(d.quantum_gain), d.noise_ratio, d.weights)
             for d in datasets]
    xs = [fitting._linear_solution(*term, hi[-3:])[0] for term in terms]
    starts = [np.array([*(x[0] for x in xs), *x[1:]]) for x in xs]
    return starts + fitting._grid_starts(terms, hi, 1), terms, hi


def multistart_objective(datasets):
    """The reference for the start rule: L-BFGS-B from the clipped linear
    points, as the fit builds them, plus 16 seeded uniform random starts in
    the box; the lowest objective."""
    starts, terms, hi = fit_starts(datasets)
    starts = starts[:len(datasets)] + list(np.random.default_rng(0).uniform(0.0, hi, (16, hi.size)))
    return min(lbfgsb_polish(z0, terms, hi)[1] for z0 in starts)


def noisy_dataset(rng, mu, l1, l2, sigma_rel=0.01):
    """``synthetic_dataset`` with noise drawn from ``rng``; None when a
    noisy R leaves (0, R_UPPER_SANITY]."""
    r = closed_form_noise_reduction(mu, l1, l2, GQ_GRID)
    try:
        return NoiseDataset(GQ_GRID, r + rng.normal(0.0, sigma_rel * r), sigma_rel * r)
    except ValueError:
        return None


def shared_pairs(n_pairs=48):
    """(datasets, mus, shared losses) of the shared-loss battery: pairs on
    criterion 6's design with 1% noise, mu = 1 + Exp(0.2) each, and
    losses drawn, by turns, from {0, 0.02, 0.5, 0.98, 1} and from U(0, 1)."""
    rng = np.random.default_rng(0)
    pairs = 0
    while pairs < n_pairs:
        mus = 1.0 + rng.exponential(0.2, 2)
        losses = rng.uniform(0.0, 1.0, 2) if pairs % 2 else rng.choice([0.0, 0.02, 0.5, 0.98, 1.0], 2)
        sets = [noisy_dataset(rng, mu, *losses) for mu in mus]
        if None not in sets:
            yield sets, mus, losses
            pairs += 1


def box_leaving_datasets(n_sets=60):
    """Single datasets whose linear inverse leaves the box: mu = 1 +
    Exp(0.3), losses uniform on [0, 1], 0.5, 1 or 3% noise."""
    rng = np.random.default_rng(0)
    hi = np.array([math.acosh(FitConfig().mu_max), 1.0, 1.0])
    checked = 0
    while checked < n_sets:
        data = noisy_dataset(rng, 1.0 + rng.exponential(0.3), *rng.uniform(0.0, 1.0, 2),
                             sigma_rel=rng.choice([0.005, 0.01, 0.03]))
        if data is None or fitting._linear_solution(
                noise_reduction_regressors(GQ_GRID), data.noise_ratio, data.weights, hi)[1]:
            continue
        yield data
        checked += 1


class TestStartRule:
    """Every polish starts from the linear points and the best cell of the
    profiled grid.  The single fits are held to a 17-start random L-BFGS-B
    multistart and the shared pairs to the truth's objective (their
    multistart would take ~5 s); every fit of both batteries is held to
    L-BFGS-B from its own starts."""

    def test_box_leaving_single_fits_match_multistart(self):
        for checked, data in enumerate(box_leaving_datasets()):
            fit = fit_dataset(data)
            assert fit.n_restarts_used == 2
            assert fit.objective <= multistart_objective([data]) + 1e-12, checked

    def test_shared_pairs_reach_the_truth(self):
        for sets, mus, losses in shared_pairs():
            fits = fit_datasets_shared_loss(sets)
            assert fits[0].n_restarts_used == 3
            truth = sum(weighted_sse(d, mu, *losses) for d, mu in zip(sets, mus))
            assert fits[0].objective <= truth + 1e-12, (mus, losses)

    def test_no_fit_above_lbfgsb_from_its_own_starts(self):
        """The 60 box-leaving single fits and the 48 shared pairs: no fit
        ends above the lowest L-BFGS-B polish from the same starts."""
        batteries = [[data] for data in box_leaving_datasets()] + [s for s, _, _ in shared_pairs()]
        for k, sets in enumerate(batteries):
            fit = fit_datasets_shared_loss(sets)[0]
            starts, terms, hi = fit_starts(sets)
            reference = min(lbfgsb_polish(z0, terms, hi)[1] for z0 in starts)
            assert fit.objective <= reference + 1e-12, k

    def test_shared_pair_38_matches_multistart(self):
        """Pair 38 of the battery (mu 1.047 and 1.010, losses 0.98 and 0.5),
        where L-BFGS-B from the linear points and the best grid cell ends
        1.6e-5 above the multistart: the Levenberg-Marquardt polish from the
        same starts reaches it."""
        sets, _, _ = list(shared_pairs())[38]
        fit = fit_datasets_shared_loss(sets)[0]
        assert fit.objective <= multistart_objective(sets) + 1e-12

    def test_pair_123_passes_the_gate_in_one_round(self):
        """Pair 123 of the battery generator (mu 1.130 and 1.126, losses 0.820
        and 0.042), where the winning L-BFGS-B run stopped above GRAD_TOL:
        the polishes from the three starts pass the gate."""
        sets, _, _ = list(shared_pairs(124))[123]
        fit = fit_datasets_shared_loss(sets)[0]
        assert fit.n_restarts_used == 3
        assert fit.projected_grad_norm < fitting.GRAD_TOL

    def test_no_datasets_is_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit_datasets_shared_loss([])

    def test_boundary_fit_ignores_the_seed(self):
        """With random starts this fit moved in the last bits between seeds."""
        data = synthetic_dataset(1.0, 0.0, 1.0, sigma_rel=0.01, seed=1)
        a, b = fit_dataset(data, FitConfig(seed=0)), fit_dataset(data, FitConfig(seed=7))
        assert a.n_restarts_used == 2
        assert a == b


class TestCorrelationHelpers:
    def test_single_point_estimate(self):
        assert correlation_estimate_from_ratio(0.4) == pytest.approx(0.8, abs=1e-14)


class TestBootstrap:
    def test_interval_covers_truth(self):
        data = synthetic_dataset(1.17, 0.1, 0.1, sigma_rel=0.01, seed=7)
        config = FitConfig()
        fit = fit_dataset(data, config)
        boot = bootstrap_uncertainty(data, fit, n_resamples=100, config=config)
        truth_db = 10 * math.log10(joint_quadrature_variance(1.17, 0.1, 0.1) / 2.0)
        lo, hi = boot.correlation_db_ci
        assert lo < truth_db < hi
        assert hi - lo < 0.5
        assert boot.n_failures <= 20
        assert boot.covariance.shape == (3, 3)
        assert np.allclose(boot.covariance, boot.covariance.T, atol=1e-15)
        assert np.all(np.diag(boot.covariance) >= 0.0)

    def test_reproducible(self):
        data = synthetic_dataset(1.2, 0.1, 0.2, sigma_rel=0.01, seed=1)
        config = FitConfig(seed=9)
        fit = fit_dataset(data, config)
        a = bootstrap_uncertainty(data, fit, n_resamples=100, config=config)
        b = bootstrap_uncertainty(data, fit, n_resamples=100, config=config)
        assert a.correlation_db_ci == b.correlation_db_ci

    def test_resample_count_validated(self):
        data = synthetic_dataset(1.2, 0.1, 0.2)
        fit = fit_dataset(data)
        with pytest.raises(ValueError):
            bootstrap_uncertainty(data, fit, n_resamples=50)

    @pytest.mark.parametrize("n_resamples", [150.0, np.float64(150.0), True, "150"],
                             ids=["float", "numpy-float", "bool", "str"])
    def test_resample_count_is_an_integer(self, n_resamples):
        data = synthetic_dataset(1.2, 0.1, 0.2)
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_uncertainty(data, fit_dataset(data), n_resamples=n_resamples)

    def test_more_than_a_fifth_failed_is_unstable(self):
        """R alternating 1.05, 0.95 on criterion 6's gains: its resamples
        mostly leave (0, R_UPPER_SANITY] or fail the gate."""
        data = NoiseDataset(GQ_GRID, np.where(np.arange(GQ_GRID.size) % 2, 0.95, 1.05))
        fit = fit_dataset(data)
        with pytest.raises(UnstableFitError, match=r"^82/100 bootstrap refits failed"):
            bootstrap_uncertainty(data, fit, n_resamples=100)

    def test_too_few_points_rejected_before_resampling(self):
        fit = fit_dataset(synthetic_dataset(1.2, 0.1, 0.2))
        data = NoiseDataset(GQ_GRID[:3], closed_form_noise_reduction(1.2, 0.1, 0.2, GQ_GRID[:3]))
        with pytest.raises(InsufficientDataError, match="need >= 4 points"):
            bootstrap_uncertainty(data, fit, n_resamples=100)


def bootstrap_rows(data, fit, n_resamples, config):
    """bootstrap_uncertainty's resampled R rows, drawn one resample at a time."""
    rng = np.random.default_rng(config.seed + 0x5EED)
    model_r = closed_form_noise_reduction(fit.mu_hat, fit.l1_hat, fit.l2_hat, data.quantum_gain)
    residuals = data.noise_ratio - model_r
    n = data.n_points
    return [model_r + residuals[rng.integers(0, n, size=n)] for _ in range(n_resamples)]


def replay_bootstrap(data, fit, n_resamples, config):
    """The per-resample bootstrap: every resample a validated NoiseDataset
    refit by fit_dataset."""
    params, corr_db, failures = [], [], 0
    for r in bootstrap_rows(data, fit, n_resamples, config):
        try:
            res = fit_dataset(NoiseDataset(data.quantum_gain, r, data.sigma), config)
        except (ValueError, UnstableFitError):
            failures += 1
            continue
        params.append([res.mu_hat, res.l1_hat, res.l2_hat])
        corr_db.append(res.correlation_db)
    return np.cov(np.array(params).T, ddof=1), tuple(np.percentile(corr_db, [2.5, 97.5])), failures


def linear_boundary_resamples(data, fit, n_resamples, config):
    """Resamples with every R in (0, R_UPPER_SANITY] whose one-row linear
    inverse leaves the box."""
    design = noise_reduction_regressors(data.quantum_gain)
    hi = np.array([math.acosh(config.mu_max), 1.0, 1.0])
    return sum(
        not fitting._linear_solution(design, r, data.weights, hi)[1]
        for r in bootstrap_rows(data, fit, n_resamples, config)
        if np.all((r > 0.0) & (r <= fitting.R_UPPER_SANITY))
    )


#: fit-bootstrap's first noisy set at seed 902: 10 of 100 resamples leave the box
BOUNDARY_SET = dict(mu=1.5, l1=0.2, l2=0.3, sigma_rel=0.01, seed=902)
#: R near 1 with 2.7% noise: 13 of 100 resamples cross R_UPPER_SANITY, 2 leave the box
CROSSING_SET = dict(mu=1.03, l1=0.55, l2=0.96, sigma_rel=0.027, seed=149)


class TestBootstrapSharedSolve:
    """bootstrap_uncertainty against the per-resample replay it replaces."""

    @staticmethod
    def assert_matches_replay(data, config, n_resamples=100):
        fit = fit_dataset(data, config)
        boot = bootstrap_uncertainty(data, fit, n_resamples, config)
        cov, ci, failures = replay_bootstrap(data, fit, n_resamples, config)
        assert boot.n_failures == failures
        assert np.max(np.abs(boot.covariance - cov)) <= 1e-12 * np.max(np.abs(cov))
        assert boot.correlation_db_ci == pytest.approx(ci, rel=1e-12, abs=0.0)
        return boot

    @pytest.mark.parametrize("seed", range(20))
    def test_criterion_6_noise_draws_match_replay(self, seed):
        data = synthetic_dataset(1.5, 0.2, 0.3, sigma_rel=0.01, seed=seed)
        self.assert_matches_replay(data, FitConfig(seed=seed))

    def test_boundary_resamples_match_replay(self):
        self.assert_matches_replay(synthetic_dataset(**BOUNDARY_SET), FitConfig())

    def test_resamples_crossing_the_sanity_bound_match_replay(self):
        boot = self.assert_matches_replay(synthetic_dataset(**CROSSING_SET), FitConfig())
        assert 0 < boot.n_failures <= 20

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_fit": 0, "_polish": 0}

        def counting(name):
            inner = getattr(fitting, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(fitting, name, counting(name))
        return counts

    def test_interior_resamples_neither_refit_nor_polish(self, calls):
        data = synthetic_dataset(1.5, 0.2, 0.3, sigma_rel=0.01, seed=901)
        fit = fit_dataset(data)
        calls.update(_fit=0, _polish=0)
        boot = bootstrap_uncertainty(data, fit, n_resamples=100)
        assert boot.n_failures == 0
        assert calls == {"_fit": 0, "_polish": 0}

    def test_only_box_leaving_resamples_refit(self, calls):
        data, config = synthetic_dataset(**BOUNDARY_SET), FitConfig()
        fit = fit_dataset(data, config)
        expected = linear_boundary_resamples(data, fit, 100, config)
        assert expected == 10
        calls.update(_fit=0, _polish=0)
        bootstrap_uncertainty(data, fit, n_resamples=100, config=config)
        assert calls["_fit"] == expected
        assert calls["_polish"] == expected * (1 + config.n_starts)

    def test_refits_build_no_dataset(self, calls, monkeypatch):
        """The box-leaving refits reuse the bootstrap's design and weights:
        no resample is re-sorted or re-validated as a NoiseDataset."""
        data = synthetic_dataset(**BOUNDARY_SET)
        fit = fit_dataset(data)
        built, check = [], NoiseDataset.__post_init__

        def counting(self):
            built.append(self)
            check(self)
        monkeypatch.setattr(NoiseDataset, "__post_init__", counting)
        calls.update(_fit=0, _polish=0)
        bootstrap_uncertainty(data, fit, n_resamples=100)
        assert calls["_fit"] == 10 and built == []


#: every key a rejection by the public fitting API may name; "points" for too few
API_KEYS = ("quantum_gain", "noise_ratio", "sigma", "n_starts", "mu_max", "seed",
            "n_resamples", "points")
#: (value, valid) injected at one position of a dataset column, or as a config field
EDGES = {
    "quantum_gain": [(np.nan, False), (np.inf, False), (-np.inf, False), (0.5, False),
                     (-0.0, False), (1e300, True)],
    "noise_ratio": [(np.nan, False), (np.inf, False), (0.0, False), (-1e-300, False),
                    (1.06, False), (1e300, False), (1e-300, True), (1.05, True)],
    "sigma": [(0.0, False), (-1.0, False), (np.nan, False), (np.inf, False), ("short", False),
              (1e-300, True), (1e300, True)],
    "n_starts": [(0, False), (2.5, False), (np.nan, False), ("3", False), (True, False),
                 (np.int64(3), True)],
    "mu_max": [(1.0, False), (np.nan, False), (np.inf, False), (1e300, False), (-5.0, False),
               (1.0 + 1e-12, True), (2.0, True), (fitting.MU_MAX_LIMIT, True)],
    "seed": [(-1, False), (2.5, False), (np.nan, False), ("4", False), (np.uint64(3), True)],
    "n_resamples": [(99, False), (100.0, False), (True, False), ("100", False), (100, True)],
}


def fuzz_case(rng):
    """One seeded API call: a thunk and whether it carries an invalid value.
    1-3 datasets of 1, 3, 4, 8 or 16 points (gq up to 1e300, R from the
    closed form, capped at 1, with 0-10% noise, an optional sigma down to
    1e-300) sharing losses, a config, and fit_dataset, fit_datasets_shared_loss or
    bootstrap_uncertainty (of noisy data); at most two keys get an edge value."""
    injected = dict.fromkeys(rng.choice(list(EDGES), size=rng.integers(0, 3), replace=False))
    for key in injected:
        injected[key] = EDGES[key][rng.integers(len(EDGES[key]))]
    api = rng.choice(["fit_dataset", "fit_datasets_shared_loss", "bootstrap_uncertainty"],
                     p=[0.4, 0.5, 0.1])
    losses = rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 2)], 2)
    columns = []
    for k in range(rng.integers(1, 4)):
        n = int(rng.choice([1, 3, 4, 8, 16]))
        gq = np.sort(1.0 + rng.choice([1.0, 1e3, 1e300]) * rng.uniform(0.0, 1.0, n))
        r = np.minimum(closed_form_noise_reduction(1.0 + rng.exponential(0.3), *losses, gq), 1.0)
        sigma = None
        if rng.integers(2):
            sigma = rng.choice([0.0, 0.003, 0.01, 0.1], p=[0.3, 0.3, 0.3, 0.1]) * r
        if k == 0 and api == "bootstrap_uncertainty":  # noiseless boundary data refit slowly
            sigma = 0.01 * r
        if sigma is not None and rng.integers(4) == 0:
            sigma = np.where(rng.integers(2, size=n), 1e-300, 0.01)
        r = r + (0.0 if sigma is None else rng.normal(0.0, sigma))
        if sigma is not None:
            sigma = np.where(sigma > 0.0, sigma, 0.01)
        columns.append({"quantum_gain": gq, "noise_ratio": r, "sigma": sigma})
    for key in set(injected) & {"quantum_gain", "noise_ratio", "sigma"}:
        value, _ = injected[key]
        column = columns[rng.integers(len(columns))]
        if key == "sigma" and column["sigma"] is None:
            column["sigma"] = np.full(column["noise_ratio"].size, 0.01)
        if value == "short":
            column["sigma"] = column["sigma"][1:]
        else:
            column[key] = column[key].copy()
            column[key][rng.integers(column[key].size)] = value
    fields = {key: injected[key][0] for key in ("n_starts", "mu_max", "seed") if key in injected}
    n_resamples = injected.get("n_resamples", (100, True))[0]

    def call():
        config = FitConfig(**fields)
        datasets = [NoiseDataset(**column) for column in columns]
        if api == "fit_datasets_shared_loss":
            return fit_datasets_shared_loss(datasets, config)
        fit = fit_dataset(datasets[0], config)
        if api == "fit_dataset":
            return [fit]
        return [fit, bootstrap_uncertainty(datasets[0], fit, n_resamples, config)]

    used = set(injected) - ({"n_resamples"} if api != "bootstrap_uncertainty" else set())
    return call, not all(injected[key][1] for key in used)


class TestApiFuzz:
    def test_fuzzed_api_calls_end_cleanly(self):
        """200 seeded cases: each returns finite results, raises a ValueError
        that names an API key, or raises a NumericalError; an invalid value
        is always rejected.  A RuntimeWarning is an error (pyproject)."""
        rng = np.random.default_rng(11)
        outcomes = {"result": 0, "rejected": 0, "numerical": 0}
        for case in range(200):
            call, invalid = fuzz_case(rng)
            try:
                results = call()
            except NumericalError:
                outcomes["numerical"] += 1
                assert not invalid, case
                continue
            except ValueError as exc:
                outcomes["rejected"] += 1
                assert any(key in str(exc) for key in API_KEYS), (case, str(exc))
                continue
            outcomes["result"] += 1
            assert not invalid, case
            for res in results:
                if isinstance(res, fitting.FitResult):
                    values = [res.mu_hat, res.l1_hat, res.l2_hat, res.objective, res.correlation_db]
                else:
                    values = [*res.covariance.ravel(), *res.correlation_db_ci]
                assert np.all(np.isfinite(values)), (case, res)
        assert outcomes["result"] > 50 and outcomes["rejected"] > 50, outcomes


class TestSharedLossFit:
    def test_joint_recovery(self):
        sets = [
            synthetic_dataset(1.10, 0.15, 0.05, label="low"),
            synthetic_dataset(1.35, 0.15, 0.05, label="high"),
        ]
        fits = fit_datasets_shared_loss(sets)
        assert [f.dataset_label for f in fits] == ["low", "high"]
        assert abs(fits[0].mu_hat - 1.10) < 1e-6
        assert abs(fits[1].mu_hat - 1.35) < 1e-6
        for f in fits:
            assert loss_recovery_error(f, 0.15, 0.05) < 1e-6
        assert fits[0].l1_hat == fits[1].l1_hat
        assert fits[0].l2_hat == fits[1].l2_hat

    def test_singular_polish_step_is_a_null_step(self, monkeypatch):
        """A singular damped system takes a null step and more damping: with
        the polish's first solve raising LinAlgError, the fit still passes the
        gate at the objective of the unpatched fit."""
        rng = np.random.default_rng(31)
        sets = [noisy_dataset(rng, mu, 0.2, 0.3) for mu in (1.5, 1.3)]
        reference = fit_datasets_shared_loss(sets)[0]
        solve, calls = np.linalg.solve, []

        def singular_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        fit = fit_datasets_shared_loss(sets)[0]
        assert len(calls) > 1
        assert fit.projected_grad_norm < fitting.GRAD_TOL
        assert fit.objective == pytest.approx(reference.objective, rel=0.0, abs=1e-12)


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "# comment line\n"
            "sweep_value,gq_linear,R_linear,R_db\n"
            "1,2.0,0.9,-0.46\n"
            "2,8.0,0.7,-1.55\n"
        )
        data = load_noise_csv(str(path))
        assert data.quantum_gain == pytest.approx([2.0, 8.0])
        assert data.noise_ratio == pytest.approx([0.9, 0.7])
        assert data.sigma is None
        assert data.label == "sweep"

    def test_sigma_column(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("gq_linear,R_linear,sigma\n2.0,0.9,0.01\n8.0,0.7,0.02\n")
        data = load_noise_csv(str(path))
        assert data.sigma == pytest.approx([0.01, 0.02])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gq_linear,R_linear\n2.0,0.9\nnot-a-number,0.7\n")
        with pytest.raises(ValueError, match="line 3"):
            load_noise_csv(str(path))

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="gq_linear"):
            load_noise_csv(str(path))

    def test_empty_data(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("gq_linear,R_linear\n")
        with pytest.raises(InsufficientDataError):
            load_noise_csv(str(path))
        path.write_text("# comments only\n\n# no header\n")
        with pytest.raises(ValueError, match="no header row found"):
            load_noise_csv(str(path))
