"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports ramansim
from the checkout's ``src``, makes the workload's inputs, runs the pass
(traced or not), and prints one JSON object on its standard output.  With
``--setup-only`` it stops after the inputs are made.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from tracing import Tracer

    setup, run = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as workdir:
        inputs = setup(args.seed, args.size, workdir)
        out = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            tracer = Tracer() if args.trace else None
            if tracer:
                tracer.install()
            ledger = workloads.Ledger()
            t0 = time.perf_counter()
            extras = run(inputs, ledger)
            out["wall_s"] = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
                out["trace"] = tracer.snapshot()
            out.update(
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                attempted=ledger.attempted,
                failed=ledger.failed,
                wrong=ledger.wrong,
                notes=ledger.notes,
                extras=extras,
                environment=environment(),
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
