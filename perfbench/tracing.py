"""Spans around calls into ramansim, recorded from outside the package.

A traced pass replaces public names with timing wrappers at the place
where the caller looks them up.  ``ramansim.model.apply_symplectic`` is a
binding of its own, separate from ``ramansim.gaussian.apply_symplectic``,
so each binding is wrapped where it is used.  A name that no longer
exists is recorded as absent instead of failing the pass.

Each wrapper keeps a stack of open spans.  A span's self time is its
duration minus the time covered by the wrapped spans it called.  Spans are
aggregated in memory and returned with :meth:`Tracer.snapshot`.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span label, module, attribute).  The label names the layer and the
# operation; several bindings of one function share a label.
BINDINGS = [
    # Gaussian engine, as looked up by the cascade model and the cross-check
    ("gaussian.op_build", "ramansim.model", "two_mode_squeezer"),
    ("gaussian.op_build", "ramansim.model", "phase_shift"),
    ("gaussian.op_build", "ramansim.model", "displacement"),
    ("gaussian.op_build", "ramansim.crosscheck", "two_mode_squeezer"),
    ("gaussian.op_build", "ramansim.crosscheck", "phase_shift"),
    ("gaussian.apply", "ramansim.model", "apply_symplectic"),
    ("gaussian.apply", "ramansim.model", "apply_loss"),
    ("gaussian.apply", "ramansim.crosscheck", "apply_symplectic"),
    ("gaussian.apply", "ramansim.crosscheck", "apply_loss"),
    ("gaussian.homodyne", "ramansim.model", "homodyne_variance"),
    ("gaussian.homodyne", "ramansim.crosscheck", "homodyne_variance"),
    # cascade model
    ("model.min_noise", "ramansim.model", "min_noise_over_phase"),
    ("model.closed_form", "ramansim.model", "closed_form_noise_reduction"),
    ("model.scan", "ramansim.cli", "noise_vs_phase"),
    ("model.scan", "ramansim.cli", "fringe_scan"),
    ("model.scan", "ramansim.cli", "prep_gain_sweep"),
    ("model.scan", "ramansim.cli", "quantum_gain_sweep"),
    # fitting
    ("fitting.fit", "ramansim.fitting", "fit_dataset"),
    ("fitting.fit", "ramansim.cli", "fit_dataset"),
    ("fitting.bootstrap", "ramansim.fitting", "bootstrap_uncertainty"),
    ("fitting.bootstrap", "ramansim.cli", "bootstrap_uncertainty"),
    ("fitting.shared_loss", "ramansim.fitting", "fit_datasets_shared_loss"),
    ("fitting.shared_loss", "ramansim.cli", "fit_datasets_shared_loss"),
    ("fitting.closed_form", "ramansim.fitting", "closed_form_noise_reduction"),
    # Fock oracle, looked up as attributes of the module by the cross-check
    ("fock.vacuum", "ramansim.fock", "vacuum_state"),
    ("fock.squeeze", "ramansim.fock", "apply_two_mode_squeeze"),
    ("fock.loss", "ramansim.fock", "apply_loss_kraus"),
    ("fock.rotate", "ramansim.fock", "apply_phase_rotation"),
    ("fock.to_density", "ramansim.fock", "to_density"),
    ("fock.variance", "ramansim.fock", "quadrature_variance"),
    # cross-check harness
    ("crosscheck.run_fock", "ramansim.crosscheck", "run_fock"),
    ("crosscheck.run_gaussian", "ramansim.crosscheck", "run_gaussian"),
]

# labels whose individual call durations are kept (the others keep sums)
KEEP_DURATIONS = {"model.min_noise", "fitting.fit", "fock.squeeze"}


def _squeeze_kind(args, kwargs) -> str:
    """Split Fock squeezes into pure-state and density-operator calls; the
    first density call is the one that builds the cached dense unitary."""
    state = args[0] if args else kwargs.get("state")
    return "pure" if type(state).__name__ == "FockState" else "density"


def _vacuum_n_max(args, kwargs) -> str:
    n_max = args[1] if len(args) > 1 else kwargs.get("n_max")
    return f"n_max={n_max}"


# labels that tag each call with a detail taken from its arguments
TAGGERS = {"fock.squeeze": _squeeze_kind, "fock.vacuum": _vacuum_n_max}


class Tracer:
    """Install wrappers, collect span totals, and restore the originals."""

    def __init__(self):
        self._stack: list[list] = []  # [label, child_seconds]
        self._originals: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        self.tags: dict[str, list] = {}
        self.parent_counts: dict[str, int] = {}  # "parent>child" -> calls
        self.absent: list[str] = []

    def install(self) -> None:
        for label, module_name, attr in BINDINGS:
            binding = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(binding)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(binding)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(label, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, label: str, fn):
        stack = self._stack
        tagger = TAGGERS.get(label)
        keep = label in KEEP_DURATIONS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tagger(args, kwargs) if tagger else None
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                self._record(label, dt, dt - frame[1], parent[0] if parent else None, tag, keep)

        return wrapper

    def _record(self, label, dt, self_dt, parent, tag, keep) -> None:
        self.calls[label] = self.calls.get(label, 0) + 1
        self.total_s[label] = self.total_s.get(label, 0.0) + dt
        self.self_s[label] = self.self_s.get(label, 0.0) + self_dt
        if keep:
            self.durations.setdefault(label, []).append(dt)
        if tag is not None:
            self.tags.setdefault(label, []).append(tag)
        if parent is not None:
            key = f"{parent}>{label}"
            self.parent_counts[key] = self.parent_counts.get(key, 0) + 1

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "tags": {k: list(v) for k, v in self.tags.items()},
            "parent_counts": dict(self.parent_counts),
            "absent": list(self.absent),
        }
