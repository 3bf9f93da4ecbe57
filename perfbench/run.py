"""ramansim benchmark: times the cascade, fit, Fock-oracle and CLI layers
from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The load is a closed loop from one process: each call is issued after the
previous one returns.  Every pass of a workload runs in a fresh
interpreter (``worker.py``), because every ramansim invocation pays the
import and the Fock unitary cache from scratch.  BLAS threads are capped
at the number of usable cores.

A run first starts a few interpreters that only import and make the
inputs, for set-up time; then it runs passes until ``--seconds`` have
passed (at least one pass; two on cli-readme, whose CSVs must repeat
byte for byte).  With ``--trace 1`` the passes alternate between untraced
and traced, and the run reports the per-layer metrics of the traced
passes.

Standard output ends with one JSON line: ``correct`` (no output fell
outside its tolerance and the CSVs repeated), ``attempted`` and ``failed``
operations over all passes, and the metrics, each the median over the
run's passes (set-up: over every interpreter started).  The lines before
it give a readable summary, with ``failed_frac``, and the environment
record.

Exit codes: 0 with a result; 1 when a pass crashed or timed out; 2 when the
checkout has no ramansim sources or an argument is bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import BINDINGS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scenario-batch", "fit-bootstrap", "oracle-slice", "cli-readme")
# cli-readme needs two passes to compare its CSVs across passes
MIN_PASSES = {"cli-readme": 2}
SETUP_ONLY_STARTS = 3
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gaussian.op_build_calls": "count",
    "gaussian.op_build_self_s": "s",
    "gaussian.apply_calls": "count",
    "gaussian.apply_self_s": "s",
    "gaussian.homodyne_calls": "count",
    "model.min_noise_calls": "count",
    "model.min_noise_self_s": "s",
    "model.R_p50_ms": "ms",
    "model.R_p90_ms": "ms",
    "model.scan_self_s": "s",
    "model.closed_form_calls": "count",
    "model.variance_evals_per_R": "ratio",
    "fitting.fit_p50_s": "s",
    "fitting.bootstrap_s": "s",
    "fitting.shared_loss_s": "s",
    "fitting.closed_form_calls_per_fit": "ratio",
    "fitting.bootstrap_refit_success": "ratio",
    "fock.squeeze_first_s": "s",
    "fock.squeeze_warm_p50_s": "s",
    "fock.loss_self_s": "s",
    "fock.rotate_self_s": "s",
    "fock.to_density_self_s": "s",
    "fock.variance_self_s": "s",
    "fock.density_bytes": "bytes-computed",
    "fock.squeeze_flops": "flop-computed",
    "crosscheck.run_fock_self_s": "s",
    "crosscheck.run_gaussian_self_s": "s",
    "crosscheck.fock_attempts": "count",
    "crosscheck.max_deviation": "variance",
    "cli.noise-scan_s": "s",
    "cli.gain-sweep_s": "s",
    "cli.fit_s": "s",
    "cli.correlation_s": "s",
    "cli.fringes_s": "s",
    "cli.bad_input_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

# span labels (see tracing.BINDINGS) each traced metric is read from
METRIC_LABELS = {
    "gaussian.op_build_calls": ["gaussian.op_build"],
    "gaussian.op_build_self_s": ["gaussian.op_build"],
    "gaussian.apply_calls": ["gaussian.apply"],
    "gaussian.apply_self_s": ["gaussian.apply"],
    "gaussian.homodyne_calls": ["gaussian.homodyne"],
    "model.min_noise_calls": ["model.min_noise"],
    "model.min_noise_self_s": ["model.min_noise"],
    "model.R_p50_ms": ["model.min_noise"],
    "model.R_p90_ms": ["model.min_noise"],
    "model.scan_self_s": ["model.scan"],
    "model.closed_form_calls": ["model.closed_form"],
    "model.variance_evals_per_R": ["model.min_noise", "gaussian.homodyne"],
    "fitting.fit_p50_s": ["fitting.fit"],
    "fitting.bootstrap_s": ["fitting.bootstrap"],
    "fitting.shared_loss_s": ["fitting.shared_loss"],
    "fitting.closed_form_calls_per_fit": ["fitting.fit", "fitting.closed_form"],
    "fock.squeeze_first_s": ["fock.squeeze"],
    "fock.squeeze_warm_p50_s": ["fock.squeeze"],
    "fock.loss_self_s": ["fock.loss"],
    "fock.rotate_self_s": ["fock.rotate"],
    "fock.to_density_self_s": ["fock.to_density"],
    "fock.variance_self_s": ["fock.variance"],
    "fock.density_bytes": ["fock.vacuum"],
    "fock.squeeze_flops": ["fock.vacuum", "fock.squeeze"],
    "crosscheck.run_fock_self_s": ["crosscheck.run_fock"],
    "crosscheck.run_gaussian_self_s": ["crosscheck.run_gaussian"],
    "crosscheck.fock_attempts": ["fock.vacuum"],
}

def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile; 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict, extras: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, total_s = snap["calls"], snap["self_s"], snap["total_s"]
    durations, tags, nested = snap["durations"], snap["tags"], snap["parent_counts"]
    n = lambda label: calls.get(label, 0)  # noqa: E731
    own = lambda label: self_s.get(label, 0.0)  # noqa: E731

    r_ms = [d * 1e3 for d in durations.get("model.min_noise", [])]
    squeezes = zip(durations.get("fock.squeeze", []), tags.get("fock.squeeze", []))
    density = [d for d, kind in squeezes if kind == "density"]
    n_max = max((int(t.split("=")[1]) for t in tags.get("fock.vacuum", [])), default=-1)
    dim = (n_max + 1) ** 2 if n_max >= 0 else 0  # two modes
    cli_s = extras.get("cli_seconds", {})

    m = {
        "gaussian.op_build_calls": n("gaussian.op_build"),
        "gaussian.op_build_self_s": own("gaussian.op_build"),
        "gaussian.apply_calls": n("gaussian.apply"),
        "gaussian.apply_self_s": own("gaussian.apply"),
        "gaussian.homodyne_calls": n("gaussian.homodyne"),
        "model.min_noise_calls": n("model.min_noise"),
        "model.min_noise_self_s": own("model.min_noise"),
        "model.R_p50_ms": _quantile(r_ms, 0.5),
        "model.R_p90_ms": _quantile(r_ms, 0.9),
        "model.scan_self_s": own("model.scan"),
        "model.closed_form_calls": n("model.closed_form"),
        "model.variance_evals_per_R": _ratio(
            nested.get("model.min_noise>gaussian.homodyne", 0), n("model.min_noise")
        ),
        "fitting.fit_p50_s": _quantile(durations.get("fitting.fit", []), 0.5),
        "fitting.bootstrap_s": total_s.get("fitting.bootstrap", 0.0),
        "fitting.shared_loss_s": total_s.get("fitting.shared_loss", 0.0),
        "fitting.closed_form_calls_per_fit": _ratio(
            nested.get("fitting.fit>fitting.closed_form", 0), n("fitting.fit")
        ),
        "fitting.bootstrap_refit_success": extras.get("bootstrap_refit_success", 0.0),
        "fock.squeeze_first_s": density[0] if density else 0.0,
        "fock.squeeze_warm_p50_s": _quantile(density[1:], 0.5),
        "fock.loss_self_s": own("fock.loss"),
        "fock.rotate_self_s": own("fock.rotate"),
        "fock.to_density_self_s": own("fock.to_density"),
        "fock.variance_self_s": own("fock.variance"),
        # computed from the truncation, not measured: one complex128
        # density matrix, and two dense complex products U rho U^dag per
        # density-path squeeze at 8 flops per multiply-add
        "fock.density_bytes": 16 * dim * dim,
        "fock.squeeze_flops": len(density) * 2 * 8 * dim**3,
        "crosscheck.run_fock_self_s": own("crosscheck.run_fock"),
        "crosscheck.run_gaussian_self_s": own("crosscheck.run_gaussian"),
        "crosscheck.fock_attempts": n("fock.vacuum"),
        "crosscheck.max_deviation": extras.get("max_deviation", 0.0),
        "cli.csv_bytes": extras.get("csv_bytes", 0),
    }
    for name in PER_LAYER:
        if name.startswith("cli.") and name.endswith("_s"):
            m[name] = cli_s.get(name[len("cli."):-len("_s")], 0.0)
    return m


def absent_metrics(absent_bindings: list) -> list:
    """Metrics whose every binding for one of their span labels is gone."""
    present = {label for label, module, attr in BINDINGS if f"{module}.{attr}" not in absent_bindings}
    return sorted(
        name for name, labels in METRIC_LABELS.items() if any(lab not in present for lab in labels)
    )


def git_commit() -> str:
    """Commit of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class PassError(RuntimeError):
    """A worker crashed, timed out, or printed no result."""


def spawn(args, env, deadline: float, traced: bool = False, setup_only: bool = False) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("run time limit reached")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", "1" if traced else "0",
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"{args.workload} pass exceeded the run time limit") from None
    if proc.returncode != 0:
        raise PassError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassError("worker printed no result")
    return json.loads(lines[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: minimal inputs, for the self-check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "ramansim", "__init__.py")):
        print(f"error: no ramansim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    nproc = usable_cores()
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)

    deadline = time.monotonic() + RUN_LIMIT_S
    min_passes = max(MIN_PASSES.get(args.workload, 1), 2 if args.trace else 1)
    try:
        setups = [spawn(args, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_ONLY_STARTS)]
        passes = []
        start = time.monotonic()
        while len(passes) < min_passes or time.monotonic() - start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(spawn(args, env, deadline, traced=traced))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    notes = [note for p in passes for note in p["notes"]]
    reference = passes[0]["extras"].get("csv_sha256", {})
    for i, p in enumerate(passes[1:], start=2):
        for name, digest in p["extras"].get("csv_sha256", {}).items():
            if reference.get(name) != digest:
                failed += 1
                wrong += 1
                notes.append(f"pass {i}: {name} differs from pass 1")

    untraced = [p for p in passes if "trace" not in p]
    traced = [p for p in passes if "trace" in p]
    if args.trace:
        per_pass = [layer_metrics(p["trace"], p["extras"]) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced) - 1.0
        )
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "passes": len(passes),
        "setup_starts": len(setups),
        "nproc": nproc,
        "python": platform.python_version(),
        **passes[0]["environment"],
        "git_commit": git_commit(),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({len(traced)} traced)  set-up starts {len(setups)}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    print(f"  {'failed_frac':36s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} operations)")
    print(f"  {'correct':36s} {wrong == 0}")
    for note in notes[:10]:
        print(f"  failed: {note}")
    print(json.dumps({"environment": record}))
    if args.trace:
        absent = sorted({b for p in traced for b in p["trace"]["absent"]})
        print(json.dumps({"trace": {"absent_bindings": absent,
                                    "absent_metrics": absent_metrics(absent)}}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
