"""Command-line interface.

Subcommands: noise-scan, gain-sweep, fit, correlation, fringes,
oracle-check.  All numeric output is CSV with '#' comment lines echoing
the fully resolved configuration, so a file is reproducible from its own
header; identical config + seed produce byte-identical output.

Option precedence: command-line flags > config file (--config, flat
"key = value" lines, keys as in the flag names with dashes replaced by
underscores) > built-in defaults.

Exit codes: 0 success; 2 usage error (bad flags, malformed input data,
insufficient or degenerate datasets); 3 numerical failure (truncation
refusal, non-convergent fit, oracle deviation beyond tolerance, a phase
trace that is not a first harmonic).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import __version__
from .crosscheck import AGREEMENT_TOL, N_MAX_LIMIT, run_battery
from .fitting import (
    DegenerateDesignError,
    FitConfig,
    InsufficientDataError,
    UnstableFitError,
    bootstrap_uncertainty,
    fit_dataset,
    fit_datasets_shared_loss,
    load_noise_csv,
)
from .fock import TruncationError
from .model import (
    AmplifierParams,
    CascadeScenario,
    ChannelParams,
    HarmonicFitError,
    correlation_estimate_from_ratio,
    fringe_scan,
    fringe_visibility,
    joint_quadrature_variance,
    linear_to_db,
    noise_vs_phase,
    prep_gain_sweep,
    quantum_gain_sweep,
    reference_variance,
)


#: largest --points of the batched scans (noise-scan, gain-sweep, fringes):
#: the cascade kernel holds every point's matrices at once, up to ~8 KB each
MAX_POINTS = 4096


class UsageError(Exception):
    """Bad flag/config values; mapped to exit code 2."""


def _fmt(x) -> str:
    """Stable formatting for CSV cells and reports."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".12g")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# per-subcommand option schema: dest -> (converter, default)
_SCHEMAS: dict[str, dict] = {
    "noise-scan": {
        "prep_gain": (float, 1.0),
        "readout_gq": (float, None),
        "readout_gq_db": (float, None),
        "loss_stokes": (float, 0.0),
        "loss_spinwave": (float, 0.0),
        "output_loss": (float, 0.0),
        "points": (int, 256),
    },
    "gain-sweep": {
        "sweep": (str, "prep-gain"),
        "start": (float, None),
        "stop": (float, None),
        "points": (int, 33),
        "prep_gain": (float, 1.0),
        "readout_gq": (float, None),
        "readout_gq_db": (float, None),
        "loss_stokes": (float, 0.0),
        "loss_spinwave": (float, 0.0),
        "output_loss": (float, 0.0),
    },
    "fit": {
        "shared_loss": (_parse_bool, False),
        "starts": (int, 16),
        "mu_max": (float, 10.0),
        "pairing": (str, "cascade"),
        "bootstrap": (int, 0),
        "seed": (int, 0),
    },
    "correlation": {
        "prep_gain": (float, None),
        "loss_stokes": (float, 0.0),
        "loss_spinwave": (float, 0.0),
        "from_ratio": (float, None),
        "readout_gq": (float, None),
        "readout_gq_db": (float, None),
    },
    "fringes": {
        "seed_amplitude": (float, 1.0),
        "prep_gain": (float, 1.5),
        "readout_gq": (float, None),
        "readout_gq_db": (float, None),
        "loss_stokes": (float, 0.0),
        "loss_spinwave": (float, 0.0),
        "output_loss": (float, 0.0),
        "points": (int, 256),
    },
    "oracle-check": {
        "truncation": (int, 40),
    },
}


def _load_config_file(path: str, schema: dict) -> dict:
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in schema:
            raise UsageError(
                f"{path}: line {lineno}: unknown key {key!r} "
                f"(valid: {', '.join(sorted(schema))})"
            )
        conv = schema[key][0]
        try:
            values[key] = conv(value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from None
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """defaults < config file < explicit flags."""
    schema = _SCHEMAS[command]
    merged = {k: default for k, (_, default) in schema.items()}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config, schema))
    for key in schema:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    return merged


def _resolve_readout(cfg: dict) -> AmplifierParams:
    gq, gq_db = cfg.get("readout_gq"), cfg.get("readout_gq_db")
    if gq is not None and gq_db is not None:
        raise UsageError("give either readout-gq or readout-gq-db, not both")
    if gq is None:
        gq = 10.0 ** ((15.0 if gq_db is None else gq_db) / 10.0)
    if gq < 1.0:
        raise UsageError("readout-gq must be >= 1")
    return AmplifierParams.from_quantum_gain(gq)


def _check_range(cfg: dict, key: str, lo: float, hi: float) -> float:
    v = cfg[key]
    if not lo <= v <= hi:
        raise UsageError(f"{key.replace('_', '-')} must be within [{_fmt(lo)}, {_fmt(hi)}]")
    return v


def _check_points(cfg: dict, lo: int) -> None:
    if not lo <= cfg["points"] <= MAX_POINTS:
        raise UsageError(f"points must be within [{lo}, {MAX_POINTS}]")


def _channel(cfg: dict) -> ChannelParams:
    return ChannelParams(
        loss_stokes=_check_range(cfg, "loss_stokes", 0.0, 1.0),
        loss_spinwave=_check_range(cfg, "loss_spinwave", 0.0, 1.0),
        output_loss=_check_range(cfg, "output_loss", 0.0, 1.0),
    )


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _echo_config(fh, command: str, cfg: dict) -> None:
    fh.write(f"# ramansim {__version__} {command}\n")
    for key in sorted(cfg):
        fh.write(f"# {key} = {_fmt(cfg[key]) if cfg[key] is not None else ''}\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_noise_scan(args) -> int:
    cfg = _resolve(args, "noise-scan")
    if cfg["prep_gain"] < 1.0:
        raise UsageError("prep-gain must be >= 1")
    _check_points(cfg, 2)
    scenario = CascadeScenario(
        AmplifierParams(cfg["prep_gain"]), _resolve_readout(cfg), _channel(cfg)
    )
    trace = noise_vs_phase(scenario, cfg["points"])
    ref = reference_variance(scenario)
    with _open_out(args.out) as fh:
        _echo_config(fh, "noise-scan", cfg)
        fh.write(f"# reference_variance_linear = {_fmt(ref)}\n")
        fh.write(f"# reference_variance_db = {_fmt(linear_to_db(ref))}\n")
        fh.write("phi_rad,variance_linear,variance_db\n")
        for phi, v, vdb in zip(trace.values, trace.variance_linear, trace.variance_db):
            fh.write(f"{_fmt(phi)},{_fmt(v)},{_fmt(vdb)}\n")
    return 0


def _sweep_values(cfg: dict, start: float, stop: float) -> np.ndarray:
    """The swept values from start/stop (defaults given) and points."""
    start = start if cfg["start"] is None else cfg["start"]
    stop = stop if cfg["stop"] is None else cfg["stop"]
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise UsageError("start and stop must be finite")
    if not 1.0 <= start <= stop:
        raise UsageError(f"{cfg['sweep']} sweep requires 1 <= start <= stop")
    return np.linspace(start, stop, cfg["points"])


def _cmd_gain_sweep(args) -> int:
    cfg = _resolve(args, "gain-sweep")
    sweep = cfg["sweep"]
    if sweep not in ("prep-gain", "readout-gq"):
        raise UsageError("sweep must be 'prep-gain' or 'readout-gq'")
    _check_points(cfg, 1)
    channel = _channel(cfg)
    if sweep == "prep-gain":
        values = _sweep_values(cfg, 1.0, 2.0)
        readout = _resolve_readout(cfg)
        trace = prep_gain_sweep(values, readout, channel)
        gq_col = np.full(values.size, readout.quantum_noise_gain)
    else:
        values = _sweep_values(cfg, 2.0, 64.0)
        if cfg["prep_gain"] < 1.0:
            raise UsageError("prep-gain must be >= 1")
        trace = quantum_gain_sweep(values, AmplifierParams(cfg["prep_gain"]), channel)
        gq_col = values
    with _open_out(args.out) as fh:
        _echo_config(fh, "gain-sweep", cfg)
        fh.write("sweep_value,gq_linear,R_linear,R_db\n")
        for x, gq, r, rdb in zip(trace.values, gq_col, trace.variance_linear, trace.variance_db):
            fh.write(f"{_fmt(x)},{_fmt(gq)},{_fmt(r)},{_fmt(rdb)}\n")
    return 0


#: FitResult fields in the fit report; fit --out has all but the last
_FIT_FIELDS = (
    "mu_hat", "nu_hat", "l1_hat", "l2_hat", "residual_rms", "objective",
    "objective_swapped_losses", "loss_ordering_degenerate", "correlation_x_plus",
    "correlation_db", "n_restarts_used", "projected_grad_norm",
)


def _report_fit(fh, fit, boot=None) -> None:
    fh.write(f"dataset: {fit.dataset_label}\n")
    for name in _FIT_FIELDS:
        fh.write(f"{name}: {_fmt(getattr(fit, name))}\n")
    if boot is not None:
        lo, hi = boot.correlation_db_ci
        fh.write(f"correlation_db_ci_95: [{_fmt(lo)}, {_fmt(hi)}]\n")
        fh.write(f"bootstrap_failures: {boot.n_failures}/{boot.n_resamples}\n")
        for i, row_name in enumerate(("mu", "l1", "l2")):
            row = ",".join(_fmt(v) for v in boot.covariance[i])
            fh.write(f"covariance_{row_name}: {row}\n")
    fh.write("\n")


def _cmd_fit(args) -> int:
    cfg = _resolve(args, "fit")
    if cfg["pairing"] not in ("cascade", "swapped"):
        raise UsageError("pairing must be 'cascade' or 'swapped'")
    if cfg["starts"] < 1:
        raise UsageError("starts must be >= 1")
    if cfg["bootstrap"] != 0 and cfg["bootstrap"] < 100:
        raise UsageError("bootstrap must be 0 (off) or >= 100 resamples")
    if cfg["bootstrap"] and cfg["shared_loss"]:
        raise UsageError("bootstrap is not available with shared-loss")
    config = FitConfig(
        n_starts=cfg["starts"], mu_max=cfg["mu_max"], seed=cfg["seed"], pairing=cfg["pairing"]
    )
    datasets = [load_noise_csv(path) for path in args.inputs]
    if cfg["shared_loss"] and len(datasets) > 1:
        fits = fit_datasets_shared_loss(datasets, config)
    else:
        fits = [fit_dataset(d, config) for d in datasets]
    boots = [
        bootstrap_uncertainty(d, f, cfg["bootstrap"], config) if cfg["bootstrap"] else None
        for d, f in zip(datasets, fits)
    ]
    for f, b in zip(fits, boots):
        _report_fit(sys.stdout, f, b)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _echo_config(fh, "fit", cfg)
            fields = _FIT_FIELDS[:-1]
            ci_names = ("correlation_db_ci_lo", "correlation_db_ci_hi")
            fh.write(",".join(("label",) + fields + ci_names) + "\n")
            for f, b in zip(fits, boots):
                ci = [_fmt(v) for v in b.correlation_db_ci] if b else ["", ""]
                cells = [f.dataset_label] + [_fmt(getattr(f, n)) for n in fields] + ci
                fh.write(",".join(cells) + "\n")
    return 0


def _cmd_correlation(args) -> int:
    cfg = _resolve(args, "correlation")
    if cfg["from_ratio"] is not None:
        if cfg["readout_gq"] is None and cfg["readout_gq_db"] is None:
            raise UsageError("--from-ratio needs readout-gq or readout-gq-db")
        readout = _resolve_readout(cfg)
        x_plus = correlation_estimate_from_ratio(cfg["from_ratio"], readout.quantum_noise_gain)
        estimate = "finite-gain single point (2R, upper-bound-style)"
    else:
        if cfg["prep_gain"] is None:
            raise UsageError("give --prep-gain (with losses) or --from-ratio")
        x_plus = joint_quadrature_variance(
            cfg["prep_gain"], cfg["loss_stokes"], cfg["loss_spinwave"]
        )
        estimate = "infinite-gain joint quadrature variance"
    with _open_out(args.out) as fh:
        _echo_config(fh, "correlation", cfg)
        fh.write(f"estimate: {estimate}\n")
        fh.write(f"x_plus = {_fmt(x_plus)}\n")
        fh.write(f"correlation_db = {_fmt(linear_to_db(x_plus / 2.0))}\n")
    return 0


def _cmd_fringes(args) -> int:
    cfg = _resolve(args, "fringes")
    if cfg["seed_amplitude"] == 0.0:
        raise UsageError(
            "fringes needs a nonzero seed-amplitude; for vacuum input use noise-scan"
        )
    if cfg["prep_gain"] < 1.0:
        raise UsageError("prep-gain must be >= 1")
    _check_points(cfg, 2)
    scenario = CascadeScenario(
        AmplifierParams(cfg["prep_gain"]),
        _resolve_readout(cfg),
        _channel(cfg),
        seed_amplitude=complex(cfg["seed_amplitude"]),
    )
    trace = fringe_scan(scenario, cfg["points"])
    with _open_out(args.out) as fh:
        _echo_config(fh, "fringes", cfg)
        fh.write(f"# visibility = {_fmt(fringe_visibility(scenario))}\n")
        fh.write("phi_rad,intensity,background\n")
        for phi, inten, bg in zip(trace.phases, trace.seed_intensity, trace.background):
            fh.write(f"{_fmt(phi)},{_fmt(inten)},{_fmt(bg)}\n")
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _resolve(args, "oracle-check")
    if not 2 <= cfg["truncation"] <= N_MAX_LIMIT:
        raise UsageError(f"truncation must be within [2, {N_MAX_LIMIT}]")
    result = run_battery(n_max=cfg["truncation"])
    with _open_out(args.out) as fh:
        _echo_config(fh, "oracle-check", cfg)
        fh.write("circuit,deviation\n")
        for name, dev in result.entries:
            fh.write(f"{name},{_fmt(dev)}\n")
        fh.write(f"# max_deviation = {_fmt(result.max_deviation)}\n")
        fh.write(f"# tolerance = {_fmt(AGREEMENT_TOL)}\n")
        fh.write(f"# status = {'PASS' if result.passed else 'FAIL'}\n")
    return 0 if result.passed else 3


# ---------------------------------------------------------------------------
# parser


_COMMANDS = {  # subcommand -> (help, handler); its flags are its _SCHEMAS keys
    "noise-scan": ("cascade output variance vs scan phase", _cmd_noise_scan),
    "gain-sweep": ("noise reduction R vs prep gain or readout gq", _cmd_gain_sweep),
    "fit": ("fit (mu, L1, L2) to gain-sweep CSV data", _cmd_fit),
    "correlation": ("joint quadrature variance from parameters or from one R", _cmd_correlation),
    "fringes": ("seeded interference fringe vs scan phase", _cmd_fringes),
    "oracle-check": ("Gaussian engine vs Fock oracle battery", _cmd_oracle_check),
}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a longer flag (--seed for
    # --seed-amplitude) is an error, not that flag
    parser = argparse.ArgumentParser(
        prog="ramansim",
        description="Two-stage Raman amplifier noise simulator and fitter",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"ramansim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "fit":
            p.add_argument("inputs", nargs="+", help="CSV files with gq_linear,R_linear columns")
        for name, (conv, _) in _SCHEMAS[command].items():
            flag = "--" + name.replace("_", "-")
            if conv is _parse_bool:
                p.add_argument(flag, action="store_const", const=True, default=None, dest=name)
            else:
                p.add_argument(flag, type=conv, default=None, dest=name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InsufficientDataError, DegenerateDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, UnstableFitError, HarmonicFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
