"""The four benchmark workloads: inputs made from a seed, one pass of fixed
work, and the checks on every output.

Each workload has ``setup(seed, size, workdir)``, which makes the inputs,
and ``run(inputs, ledger)``, which makes the public calls one after the
other and records each operation in the ledger.  Calls go through module
attributes (``model.min_noise_over_phase``, not a name imported here) so
that a traced pass sees them.

An operation fails when it raises, returns the wrong exit code, or falls
outside its tolerance.  Only the last kind is a wrong output: the ledger
counts it separately, and a pass with a wrong output is not correct.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time

import numpy as np
from scipy.stats import qmc

from ramansim import cli, crosscheck, fitting, model

class WrongOutput(Exception):
    """An output fell outside its tolerance."""


class BadExitCode(Exception):
    """A CLI invocation returned another exit code than expected."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


class Ledger:
    """Attempted, failed and wrong operations of one pass."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def fail(self, name: str, message: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(f"{name}: {message}")

    def attempt(self, name: str, fn, *args):
        """Run one operation; return its value, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except WrongOutput as exc:
            self.fail(name, f"wrong output: {exc}", wrong=True)
        except BadExitCode as exc:
            self.fail(name, f"exit code {exc}")
        except Exception as exc:  # a raising operation is counted, not fatal
            self.fail(name, f"raised {type(exc).__name__}: {exc}")
        return None


# ---------------------------------------------------------------------------
# scenario-batch: the cascade phase minimum against the closed form


def scenario_batch_setup(seed: int, size: str, workdir: str) -> dict:
    """Sobol scenarios drawn like acceptance criterion 4: mu in [1, 2.5],
    unequal losses in [0, 0.9], readout gq from 0.2 to 25 dB."""
    m = 9 if size == "full" else 3
    sample = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m)
    scenarios = []
    for u in sample:
        mu, l1, l2 = 1.0 + 1.5 * u[0], 0.9 * u[1], 0.9 * u[2]
        gq = 10.0 ** ((0.2 + 24.8 * u[3]) / 10.0)
        scenario = model.CascadeScenario(
            model.AmplifierParams(mu),
            model.AmplifierParams.from_quantum_gain(gq),
            model.ChannelParams(l1, l2),
        )
        scenarios.append(((mu, l1, l2, gq), scenario))
    return {"scenarios": scenarios}


def _scenario_r(params, scenario) -> None:
    _, var_min = model.min_noise_over_phase(scenario)
    r = var_min / model.reference_variance(scenario)
    ref = model.closed_form_noise_reduction(*params, pairing="cascade")
    check(abs(r - ref) < 1e-8, f"R {r!r} vs closed form {ref!r}")


def scenario_batch_run(inputs: dict, ledger: Ledger) -> dict:
    for i, (params, scenario) in enumerate(inputs["scenarios"]):
        ledger.attempt(f"scenario {i}", _scenario_r, params, scenario)
    return {}


# ---------------------------------------------------------------------------
# fit-bootstrap: cold fits, a round trip, a bootstrap and a shared-loss fit

FIT_GQ = np.array([2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0])  # criterion 6
FIT_TRUTH = (1.5, 0.2, 0.3)
SHARED_SECOND_MU = 1.3
BOOTSTRAP_RESAMPLES = 100


def _weighted_sse(data, mu, l1, l2) -> float:
    pred = model.closed_form_noise_reduction(mu, l1, l2, data.quantum_gain)
    return float(np.sum(data.weights * (pred - data.noise_ratio) ** 2))


def _noisy(r0, rng, label):
    sigma = 0.01 * r0
    return fitting.NoiseDataset(FIT_GQ, r0 + rng.normal(0.0, sigma), sigma, label)


def fit_bootstrap_setup(seed: int, size: str, workdir: str) -> dict:
    """Datasets with 1% noise on criterion 6's design, around (1.5, 0.2, 0.3)."""
    rng = np.random.default_rng(seed)
    mu, l1, l2 = FIT_TRUTH
    r0 = model.closed_form_noise_reduction(mu, l1, l2, FIT_GQ)
    n_noisy = 4 if size == "full" else 1
    noisy = [_noisy(r0, rng, f"noisy{k}") for k in range(n_noisy)]
    r_second = model.closed_form_noise_reduction(SHARED_SECOND_MU, l1, l2, FIT_GQ)
    return {
        "noisy": noisy,
        "noiseless": fitting.NoiseDataset(FIT_GQ, r0, label="noiseless"),
        "shared": [noisy[0], _noisy(r_second, rng, "shared-second")],
    }


def _cold_fit(data):
    fit = fitting.fit_dataset(data)
    mu, l1, l2 = FIT_TRUTH
    got, truth = _weighted_sse(data, fit.mu_hat, fit.l1_hat, fit.l2_hat), _weighted_sse(data, mu, l1, l2)
    check(got <= truth + 1e-12, f"fit objective {got!r} above the truth's {truth!r}")
    return fit


def _round_trip(data) -> None:
    fit = fitting.fit_dataset(data)
    mu, l1, l2 = FIT_TRUTH
    check(abs(fit.mu_hat - mu) < 1e-6, f"mu_hat {fit.mu_hat!r}")
    direct = max(abs(fit.l1_hat - l1), abs(fit.l2_hat - l2))
    swapped = max(abs(fit.l1_hat - l2), abs(fit.l2_hat - l1))
    check(min(direct, swapped) < 1e-6, f"losses {fit.l1_hat!r}, {fit.l2_hat!r}")


def _shared_loss(datasets) -> None:
    fits = fitting.fit_datasets_shared_loss(datasets)
    check(len(fits) == len(datasets), f"{len(fits)} results for {len(datasets)} datasets")
    _, l1, l2 = FIT_TRUTH
    got = sum(_weighted_sse(d, f.mu_hat, f.l1_hat, f.l2_hat) for d, f in zip(datasets, fits))
    truth = _weighted_sse(datasets[0], FIT_TRUTH[0], l1, l2) + _weighted_sse(
        datasets[1], SHARED_SECOND_MU, l1, l2
    )
    check(got <= truth + 1e-12, f"joint objective {got!r} above the truth's {truth!r}")


def fit_bootstrap_run(inputs: dict, ledger: Ledger) -> dict:
    fits = [ledger.attempt(f"fit {d.label}", _cold_fit, d) for d in inputs["noisy"]]
    ledger.attempt("round trip", _round_trip, inputs["noiseless"])

    # one operation per resample; a failed resample is a failed operation
    ledger.attempted += BOOTSTRAP_RESAMPLES
    success = 0.0
    data, fit = inputs["noisy"][0], fits[0]
    if fit is None:
        ledger.fail("bootstrap", "no fit to resample around", BOOTSTRAP_RESAMPLES)
    else:
        try:
            boot = fitting.bootstrap_uncertainty(data, fit, BOOTSTRAP_RESAMPLES)
        except Exception as exc:  # a raising operation is counted, not fatal
            ledger.fail("bootstrap", f"raised {type(exc).__name__}: {exc}", BOOTSTRAP_RESAMPLES)
        else:
            lo, hi = boot.correlation_db_ci
            cov = np.asarray(boot.covariance)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                ledger.fail("bootstrap", f"interval [{lo!r}, {hi!r}]", BOOTSTRAP_RESAMPLES, wrong=True)
            elif cov.shape != (3, 3) or not np.all(np.isfinite(cov)) or np.any(np.diag(cov) < 0):
                ledger.fail("bootstrap", "covariance not a finite 3x3 with a non-negative diagonal",
                            BOOTSTRAP_RESAMPLES, wrong=True)
            else:
                if boot.n_failures:
                    ledger.fail("bootstrap", f"{boot.n_failures} refits failed", boot.n_failures)
                success = (boot.n_resamples - boot.n_failures) / boot.n_resamples
    ledger.attempt("shared-loss fit", _shared_loss, inputs["shared"])
    return {"bootstrap_refit_success": success}


# ---------------------------------------------------------------------------
# oracle-slice: four battery circuits through the Fock oracle

ORACLE_CIRCUITS = (
    "r0.5+0.5_phi3.14_L0.0_0.0",
    "r0.5+0.5_phi3.14_L0.1_0.1",
    "r0.5+0.5_phi3.14_L0.5_0.5",
    "r0.5+0.5_phi3.14_L0.1_0.5",
)
ORACLE_N_MAX = {"full": 40, "small": 20}


def oracle_slice_setup(seed: int, size: str, workdir: str) -> dict:
    """The seed sets the order in which the circuits run."""
    battery = dict(crosscheck.standard_battery())
    names = list(ORACLE_CIRCUITS if size == "full" else ORACLE_CIRCUITS[:2])
    order = np.random.default_rng(seed).permutation(len(names))
    return {
        "circuits": [(names[i], battery[names[i]]) for i in order],
        "n_max": ORACLE_N_MAX[size],
    }


def oracle_slice_run(inputs: dict, ledger: Ledger) -> dict:
    deviations = []

    def one(circuit):
        dev = crosscheck.variance_deviation(circuit, n_max=inputs["n_max"])
        deviations.append(dev)
        check(dev < crosscheck.AGREEMENT_TOL, f"deviation {dev!r}")

    for name, circuit in inputs["circuits"]:
        ledger.attempt(name, one, circuit)
    return {"max_deviation": max(deviations, default=0.0)}


# ---------------------------------------------------------------------------
# cli-readme: the README command chain through ramansim.cli.main

CLI_GROUPS = ("noise-scan", "gain-sweep", "fit", "correlation", "fringes", "bad_input")


def _num(x: float) -> str:
    return f"{x:.6f}"


def cli_readme_setup(seed: int, size: str, workdir: str) -> dict:
    """README-like parameters drawn from the seed, the argument lists, and
    a sweep-shaped CSV with a ``nan`` R cell."""
    rng = np.random.default_rng(seed)
    p = {
        "prep_gain": float(_num(rng.uniform(1.1, 1.3))),
        "loss_stokes": float(_num(rng.uniform(0.05, 0.15))),
        "loss_spinwave": float(_num(rng.uniform(0.05, 0.15))),
        "readout_gq_db": float(_num(rng.uniform(13.0, 17.0))),
        "seed_amplitude": float(_num(rng.uniform(1.0, 3.0))),
    }
    points = 256 if size == "full" else 16
    sweep_points = 16 if size == "full" else 8
    prep_points = 33 if size == "full" else 8
    gq = 10.0 ** (p["readout_gq_db"] / 10.0)
    p["gq"] = gq
    p["ratio"] = float(_num(model.closed_form_noise_reduction(
        p["prep_gain"], p["loss_stokes"], p["loss_spinwave"], gq)))
    prep = ["--prep-gain", _num(p["prep_gain"])]
    losses = ["--loss-stokes", _num(p["loss_stokes"]), "--loss-spinwave", _num(p["loss_spinwave"])]
    readout = ["--readout-gq-db", _num(p["readout_gq_db"])]

    def out(name):
        return os.path.join(workdir, name)

    nan_csv = out("nan.csv")
    with open(nan_csv, "w", newline="") as fh:
        fh.write("sweep_value,gq_linear,R_linear,R_db\n")
        r = model.closed_form_noise_reduction(p["prep_gain"], p["loss_stokes"], p["loss_spinwave"], FIT_GQ)
        for i, (g, ri) in enumerate(zip(FIT_GQ.tolist(), r.tolist())):
            cell = "nan" if i == 3 else repr(ri)
            fh.write(f"{g!r},{g!r},{cell},0\n")

    steps = [
        ("noise-scan", ["noise-scan", *prep, *readout, *losses, "--points", str(points),
                        "--out", out("scan.csv")], 0, "scan.csv"),
        ("gain-sweep", ["gain-sweep", "--sweep", "readout-gq", "--start", "2", "--stop", "64",
                        "--points", str(sweep_points), *prep, *losses, "--out", out("sweep.csv")],
         0, "sweep.csv"),
        ("gain-sweep", ["gain-sweep", "--sweep", "prep-gain", "--start", "1", "--stop", "2",
                        "--points", str(prep_points), *readout, *losses, "--out", out("prep.csv")],
         0, "prep.csv"),
        ("fit", ["fit", out("sweep.csv"), "--out", out("fit.csv")], 0, "fit.csv"),
        ("correlation", ["correlation", *prep, *losses, "--out", out("corr.csv")], 0, "corr.csv"),
        ("correlation", ["correlation", "--from-ratio", _num(p["ratio"]), *readout,
                         "--out", out("ratio.csv")], 0, "ratio.csv"),
        ("fringes", ["fringes", "--seed-amplitude", _num(p["seed_amplitude"]), *prep, *readout,
                     *losses, "--points", str(points), "--out", out("fringes.csv")], 0, "fringes.csv"),
        ("bad_input", ["noise-scan", "--loss-stokes", "1.5", "--out", out("bad.csv")], 2, None),
        ("bad_input", ["fit", nan_csv, "--out", out("nan-fit.csv")], 2, None),
    ]
    return {"params": p, "steps": steps, "workdir": workdir}


def _read_csv(path: str):
    """``key = value`` comment lines as a dict, the header, and the data rows."""
    comments = {}
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    for line in lines:
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                comments[key.strip()] = value.strip()
    header, *rows = csv.reader(line for line in lines if line and not line.startswith("#"))
    return comments, header, rows


def _col(header, rows, name):
    i = header.index(name)
    return np.array([float(r[i]) for r in rows])


def _check_scan(path, p) -> None:
    comments, header, rows = _read_csv(path)
    phi = _col(header, rows, "phi_rad")
    var = _col(header, rows, "variance_linear")
    ref = float(comments["reference_variance_linear"])
    check(abs(ref - p["gq"]) < 1e-9 * p["gq"], f"reference {ref!r} vs gq {p['gq']!r}")
    i = int(np.argmin(np.abs(phi - np.pi)))
    check(abs(phi[i] - np.pi) < 1e-9, "no scan point at phi = pi")
    r = model.closed_form_noise_reduction(p["prep_gain"], p["loss_stokes"], p["loss_spinwave"], p["gq"])
    check(abs(var[i] / ref - r) < 1e-8, f"minimum {var[i] / ref!r} vs closed form {r!r}")
    check(float(var.min()) >= var[i] * (1 - 1e-11), "scan dips below its value at phi = pi")


def _check_sweep(path, p, sweeps_prep: bool) -> None:
    _, header, rows = _read_csv(path)
    gq = _col(header, rows, "gq_linear")
    r = _col(header, rows, "R_linear")
    mu = _col(header, rows, "sweep_value") if sweeps_prep else p["prep_gain"]
    expected = model.closed_form_noise_reduction(mu, p["loss_stokes"], p["loss_spinwave"], gq)
    worst = float(np.max(np.abs(r - expected)))
    check(worst < 1e-8, f"R_linear off the closed form by {worst!r}")


def _check_fit(path, p) -> None:
    _, header, rows = _read_csv(path)
    mu, l1, l2 = (float(rows[0][header.index(k)]) for k in ("mu_hat", "l1_hat", "l2_hat"))
    check(abs(mu - p["prep_gain"]) < 1e-6, f"mu_hat {mu!r} vs {p['prep_gain']!r}")
    a, b = p["loss_stokes"], p["loss_spinwave"]
    check(min(max(abs(l1 - a), abs(l2 - b)), max(abs(l1 - b), abs(l2 - a))) < 1e-6,
          f"losses {l1!r}, {l2!r} vs {a!r}, {b!r}")


def _report_value(path, key) -> float:
    with open(path) as fh:
        for line in fh:
            if line.startswith(key + " = "):
                return float(line.split("=", 1)[1])
    raise WrongOutput(f"{key} missing from {os.path.basename(path)}")


def _check_corr(path, p) -> None:
    x = _report_value(path, "x_plus")
    ref = model.joint_quadrature_variance(p["prep_gain"], p["loss_stokes"], p["loss_spinwave"])
    check(abs(x - ref) < 1e-10 * ref, f"x_plus {x!r} vs {ref!r}")


def _check_ratio(path, p) -> None:
    x = _report_value(path, "x_plus")
    check(abs(x - 2.0 * p["ratio"]) < 1e-10, f"x_plus {x!r} vs 2R {2.0 * p['ratio']!r}")


def _check_fringes(path, p) -> None:
    comments, header, rows = _read_csv(path)
    phi = _col(header, rows, "phi_rad")
    inten = _col(header, rows, "intensity")
    readout = model.AmplifierParams.from_quantum_gain_db(p["readout_gq_db"])
    prep = model.AmplifierParams(p["prep_gain"])
    s = p["seed_amplitude"]
    a = readout.gain * prep.gain * math.sqrt(1.0 - p["loss_stokes"]) * s
    b = readout.cross_gain * prep.cross_gain * math.sqrt(1.0 - p["loss_spinwave"]) * s
    expected = a * a + b * b + 2.0 * a * b * np.cos(phi)
    worst = float(np.max(np.abs(inten - expected)))
    check(worst < 1e-8 * (a + b) ** 2, f"fringe off the cosine by {worst!r}")
    vis = float(comments["visibility"])
    check(abs(vis - 2 * a * b / (a * a + b * b)) < 1e-10, f"visibility {vis!r}")


CLI_CHECKS = {
    "scan.csv": _check_scan,
    "sweep.csv": lambda path, p: _check_sweep(path, p, sweeps_prep=False),
    "prep.csv": lambda path, p: _check_sweep(path, p, sweeps_prep=True),
    "fit.csv": _check_fit,
    "corr.csv": _check_corr,
    "ratio.csv": _check_ratio,
    "fringes.csv": _check_fringes,
}


def cli_readme_run(inputs: dict, ledger: Ledger) -> dict:
    p, workdir = inputs["params"], inputs["workdir"]
    seconds = {g: 0.0 for g in CLI_GROUPS}
    hashes, csv_bytes = {}, 0

    def invoke(argv, expected, output):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects flags this way
                code = exc.code
        if code != expected:
            raise BadExitCode(f"{code} (expected {expected})")
        if output is not None:
            CLI_CHECKS[output](os.path.join(workdir, output), p)

    for group, argv, expected, output in inputs["steps"]:
        t0 = time.perf_counter()
        ledger.attempt(f"{group} {argv[0]}", invoke, argv, expected, output)
        seconds[group] += time.perf_counter() - t0
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if name.endswith(".csv") and name != "nan.csv":
            with open(path, "rb") as fh:
                data = fh.read()
            hashes[name] = hashlib.sha256(data).hexdigest()
            csv_bytes += len(data)
    return {"cli_seconds": seconds, "csv_sha256": hashes, "csv_bytes": csv_bytes}


# ---------------------------------------------------------------------------

WORKLOADS = {
    "scenario-batch": (scenario_batch_setup, scenario_batch_run),
    "fit-bootstrap": (fit_bootstrap_setup, fit_bootstrap_run),
    "oracle-slice": (oracle_slice_setup, oracle_slice_run),
    "cli-readme": (cli_readme_setup, cli_readme_run),
}
