"""Run every workload once, untraced and traced, and check the results.

    python3 perfbench/check.py           # full size: prints every metric
    python3 perfbench/check.py --quick   # minimal inputs: a self-check

For each workload it prints ``setup_s``, ``wall_s``, ``peak_rss_mb`` and
``failed_frac`` with their units, and whether every correctness check
passed.  It asserts that each run exits 0, ends with a well-formed result
line, and emits exactly the metrics ``BENCHMARK.json`` names, with valid
names, the declared units and finite values.  Exits 1 if an assertion
fails.  A workload whose ``correct`` is false is reported, not an
assertion: it is what the benchmark found, not a fault of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(spec: dict, workload: str, trace: int, quick: bool) -> dict:
    cmd = [sys.executable if a == "python3" else a for a in spec["command"]]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "1" if quick else str(spec["run_seconds"]),
            "--trace", str(trace)]
    if quick:
        cmd += ["--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    env = [json.loads(line)["environment"] for line in lines if line.startswith('{"environment"')]
    assert env and {"nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                    "git_commit", "seed"} <= set(env[0]), f"{workload}: environment record incomplete"
    declared = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in declared], f"{workload}: metrics {sorted(got)}"
    for m in declared:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value["unit"])
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), m["name"]
    if not trace:
        for m in declared:
            assert got[m["name"]]["value"] > 0, f"{workload}: {m['name']} is not positive"
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="minimal inputs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            result = run(spec, workload, 0, args.quick)
            run(spec, workload, 1, args.quick)
            print(f"{workload}: correct={result['correct']}")
            for m in spec["end_to_end"]:
                print(f"  {m['name']:12s} {result['metrics'][m['name']]['value']:.6g} {m['unit']}")
            print(f"  {'failed_frac':12s} {result['failed'] / result['attempted']:.6g} ratio "
                  f"({result['failed']} of {result['attempted']})")
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print("all workloads emitted every declared metric")
    return 0


if __name__ == "__main__":
    sys.exit(main())
