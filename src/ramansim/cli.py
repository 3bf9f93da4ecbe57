"""Command-line interface.

Subcommands: noise-scan, gain-sweep, fit, correlation, fringes,
oracle-check.  All numeric output is CSV with '#' comment lines echoing
the fully resolved configuration, so a file is reproducible from its own
header; identical config + seed produce byte-identical output.

Option precedence: command-line flags > config file (--config, flat
"key = value" lines, keys as in the flag names with dashes replaced by
underscores) > built-in defaults.  Setting a key that the chosen mode of
gain-sweep, fit or correlation does not read is a usage error.

Exit codes: 0 success; 2 usage error (bad flags, malformed input data,
insufficient or degenerate datasets); 3 numerical failure (truncation
refusal, non-convergent fit, oracle deviation beyond tolerance, Fock norm
drift, a phase trace that is not a first harmonic).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

import numpy as np

from . import __version__
from .gaussian import NumericalError
from .model import (
    AmplifierParams,
    CascadeScenario,
    ChannelParams,
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


def _write_rows(fh, *columns) -> None:
    """One CSV line per row of the float ``columns``, each cell as :func:`_fmt` writes a float."""
    line = ",".join(["{:.12g}"] * len(columns)) + "\n"
    fh.writelines(line.format(*row) for row in zip(*(np.asarray(c, float).tolist() for c in columns)))


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: the cascade options of noise-scan, gain-sweep and fringes: dest -> (converter, default)
_CASCADE = {
    "prep_gain": (float, 1.0),
    "readout_gq": (float, None),
    "readout_gq_db": (float, None),
    "loss_stokes": (float, 0.0),
    "loss_spinwave": (float, 0.0),
    "output_loss": (float, 0.0),
}

# per-subcommand option schema: dest -> (converter, default)
_SCHEMAS: dict[str, dict] = {
    "noise-scan": {**_CASCADE, "points": (int, 256)},
    "gain-sweep": {
        "sweep": (str, "prep-gain"),
        "start": (float, None),
        "stop": (float, None),
        "points": (int, 33),
        **_CASCADE,
    },
    "fit": {
        "shared_loss": (_parse_bool, False),
        "mu_max": (float, 10.0),
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
    # a repeated key keeps its first position and takes the later default
    "fringes": {"seed_amplitude": (float, 1.0), **_CASCADE, "prep_gain": (float, 1.5),
                "points": (int, 256)},
    "oracle-check": {"truncation": (int, 40)},
}

#: (command, mode) -> the keys that mode does not read: setting one is a
#: usage error, and the '#' header leaves them out
_UNREAD = {
    ("gain-sweep", "with sweep = prep-gain"): ("prep_gain",),
    ("gain-sweep", "with sweep = readout-gq"): ("readout_gq", "readout_gq_db"),
    ("fit", "with shared_loss"): ("seed", "bootstrap"),
    ("fit", "without bootstrap"): ("seed",),
    ("correlation", "with from_ratio"): ("prep_gain", "loss_stokes", "loss_spinwave"),
    ("correlation", "without from_ratio"): ("from_ratio", "readout_gq", "readout_gq_db"),
}


def _mode(command: str, cfg: dict) -> str:
    """The mode of ``command`` that ``cfg`` selects, as named in _UNREAD."""
    if command == "correlation":
        return "without from_ratio" if cfg["from_ratio"] is None else "with from_ratio"
    if command == "fit":
        return ("with shared_loss" if cfg["shared_loss"]
                else "without bootstrap" if cfg["bootstrap"] == 0 else "")
    return f"with sweep = {cfg['sweep']}" if command == "gain-sweep" else ""


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


def _resolve(args: argparse.Namespace) -> tuple[dict, set]:
    """defaults < config file < explicit flags, for ``args.command``; also
    the keys that the file or a flag set."""
    schema = _SCHEMAS[args.command]
    given = _load_config_file(args.config, schema) if args.config else {}
    given.update((k, getattr(args, k)) for k in schema if getattr(args, k) is not None)
    return {k: default for k, (_, default) in schema.items()} | given, set(given)


def _stage(key: str, build, value) -> AmplifierParams:
    """The amplifier stage ``build(value)``; a value the model rejects is a
    usage error that names the config key it came from."""
    try:
        return build(value)
    except ValueError as exc:
        raise UsageError(f"{key}: {exc}") from None


def _resolve_readout(cfg: dict) -> AmplifierParams:
    gq, gq_db = cfg.get("readout_gq"), cfg.get("readout_gq_db")
    if gq is not None and gq_db is not None:
        raise UsageError("give either readout-gq or readout-gq-db, not both")
    if gq is not None:
        return _stage("readout_gq", AmplifierParams.from_quantum_gain, gq)
    return _stage("readout_gq_db", AmplifierParams.from_quantum_gain_db,
                  15.0 if gq_db is None else gq_db)


def _prep(cfg: dict) -> AmplifierParams:
    return _stage("prep_gain", AmplifierParams, cfg["prep_gain"])


def _check_points(cfg: dict, lo: int) -> None:
    if not lo <= cfg["points"] <= MAX_POINTS:
        raise UsageError(f"points must be within [{lo}, {MAX_POINTS}]")


def _channel(cfg: dict) -> ChannelParams:
    return ChannelParams(
        loss_stokes=cfg["loss_stokes"],
        loss_spinwave=cfg["loss_spinwave"],
        output_loss=cfg["output_loss"],
    )


@contextlib.contextmanager
def _open_out(args, cfg: dict):
    """``--out`` (default stdout), headed by '#' lines echoing the command
    and ``cfg``."""
    with (contextlib.nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w", newline="")) as fh:
        fh.write(f"# ramansim {__version__} {args.command}\n")
        for key in sorted(cfg):
            fh.write(f"# {key} = {_fmt(cfg[key]) if cfg[key] is not None else ''}\n")
        yield fh


# ---------------------------------------------------------------------------
# subcommand handlers: each gets the resolved config without the keys
# that its mode does not read (see _UNREAD)


def _cmd_noise_scan(args, cfg: dict) -> int:
    _check_points(cfg, 2)
    scenario = CascadeScenario(_prep(cfg), _resolve_readout(cfg), _channel(cfg))
    trace = noise_vs_phase(scenario, cfg["points"])
    ref = reference_variance(scenario)
    with _open_out(args, cfg) as fh:
        fh.write(f"# reference_variance_linear = {_fmt(ref)}\n")
        fh.write(f"# reference_variance_db = {_fmt(linear_to_db(ref))}\n")
        fh.write("phi_rad,variance_linear,variance_db\n")
        _write_rows(fh, trace.values, trace.variance_linear, trace.variance_db)
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


def _cmd_gain_sweep(args, cfg: dict) -> int:
    if cfg["sweep"] not in ("prep-gain", "readout-gq"):
        raise UsageError("sweep must be 'prep-gain' or 'readout-gq'")
    _check_points(cfg, 1)
    channel = _channel(cfg)
    if cfg["sweep"] == "prep-gain":
        values = _sweep_values(cfg, 1.0, 2.0)
        readout = _resolve_readout(cfg)
        trace = prep_gain_sweep(values, readout, channel)
        gq_col = np.full(values.size, readout.quantum_noise_gain)
    else:
        values = _sweep_values(cfg, 2.0, 64.0)
        trace = quantum_gain_sweep(values, _prep(cfg), channel)
        gq_col = values
    with _open_out(args, cfg) as fh:
        fh.write("sweep_value,gq_linear,R_linear,R_db\n")
        _write_rows(fh, trace.values, gq_col, trace.variance_linear, trace.variance_db)
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


def _cmd_fit(args, cfg: dict) -> int:
    from .fitting import (
        FitConfig,
        bootstrap_uncertainty,
        fit_dataset,
        fit_datasets_shared_loss,
        load_noise_csv,
    )

    resamples = cfg.get("bootstrap", 0)  # unread with shared_loss
    if resamples != 0 and resamples < 100:
        raise UsageError("bootstrap must be 0 (off) or >= 100 resamples")
    config = FitConfig(mu_max=cfg["mu_max"], seed=cfg.get("seed", 0))  # seed: read with bootstrap
    datasets = [load_noise_csv(path) for path in args.inputs]
    if cfg["shared_loss"]:
        fits = fit_datasets_shared_loss(datasets, config)
    else:
        fits = [fit_dataset(d, config) for d in datasets]
    boots = [
        bootstrap_uncertainty(d, f, resamples, config) if resamples else None
        for d, f in zip(datasets, fits)
    ]
    if args.out is not None:  # written first: a bad path prints no report
        with _open_out(args, cfg) as fh:
            fields = _FIT_FIELDS[:-1]
            ci_names = ("correlation_db_ci_lo", "correlation_db_ci_hi")
            fh.write(",".join(("label",) + fields + ci_names) + "\n")
            for f, b in zip(fits, boots):
                ci = [_fmt(v) for v in b.correlation_db_ci] if b else ["", ""]
                cells = [f.dataset_label] + [_fmt(getattr(f, n)) for n in fields] + ci
                fh.write(",".join(cells) + "\n")
    for f, b in zip(fits, boots):
        _report_fit(sys.stdout, f, b)
    return 0


def _cmd_correlation(args, cfg: dict) -> int:
    if "from_ratio" in cfg:  # kept only with from_ratio
        if cfg["readout_gq"] is None and cfg["readout_gq_db"] is None:
            raise UsageError("--from-ratio needs readout-gq or readout-gq-db")
        _resolve_readout(cfg)  # validated here, echoed in the header
        x_plus = correlation_estimate_from_ratio(cfg["from_ratio"])
        estimate = "finite-gain single point (2R, upper-bound-style)"
    else:
        if cfg["prep_gain"] is None:
            raise UsageError("give --prep-gain (with losses) or --from-ratio")
        x_plus = joint_quadrature_variance(
            cfg["prep_gain"], cfg["loss_stokes"], cfg["loss_spinwave"]
        )
        estimate = "infinite-gain joint quadrature variance"
    with _open_out(args, cfg) as fh:
        fh.write(f"estimate: {estimate}\n")
        fh.write(f"x_plus = {_fmt(x_plus)}\n")
        fh.write(f"correlation_db = {_fmt(linear_to_db(x_plus / 2.0))}\n")
    return 0


def _cmd_fringes(args, cfg: dict) -> int:
    _check_points(cfg, 2)
    scenario = CascadeScenario(
        _prep(cfg),
        _resolve_readout(cfg),
        _channel(cfg),
        seed_amplitude=complex(cfg["seed_amplitude"]),
    )
    trace = fringe_scan(scenario, cfg["points"])
    with _open_out(args, cfg) as fh:
        fh.write(f"# visibility = {_fmt(fringe_visibility(scenario))}\n")
        fh.write("phi_rad,intensity,background\n")
        _write_rows(fh, trace.phases, trace.seed_intensity, trace.background)
    return 0


def _cmd_oracle_check(args, cfg: dict) -> int:
    from .crosscheck import (AGREEMENT_TOL, N_MAX_LIMIT, BatteryResult, paper_battery,
                             run_battery, standard_battery)

    standard = run_battery(standard_battery(), n_max=cfg["truncation"])
    paper = run_battery(paper_battery(), n_max=N_MAX_LIMIT)  # only the cap is adequate for it
    result = BatteryResult(standard.entries + paper.entries, standard.elapsed_s + paper.elapsed_s)
    with _open_out(args, cfg) as fh:
        fh.write(f"# start_truncation = standard {cfg['truncation']}, paper {N_MAX_LIMIT}\n")
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
    "oracle-check": ("Gaussian engine vs Fock oracle batteries", _cmd_oracle_check),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; ``parse_args`` returns a fresh namespace."""
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
    args = build_parser().parse_args(argv)
    try:
        cfg, given = _resolve(args)
        mode = _mode(args.command, cfg)
        for key in _UNREAD.get((args.command, mode), ()):
            if key in given:
                raise UsageError(f"{args.command} {mode} does not read {key}")
            del cfg[key]
        return args.func(args, cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
