#!/usr/bin/env python3
"""Layered benchmark of the pqgrams library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload strings --seed 1 --seconds 20 --trace 0

The benchmark imports ``pqgrams`` from ``src/`` of the checkout, generates
the workload's corpus from ``--seed``, measures cycles for about
``--seconds`` seconds and checks the outputs. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The line before it records the environment and details.
Scratch files, determinism records and span dumps go under
``.perfbench_runs/`` in the checkout. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("strings", "wide", "deep-query")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc, or lower if the environment asks for
    fewer; must run before numpy is imported."""
    wanted = nproc()
    for var in THREAD_VARS:
        try:
            wanted = min(wanted, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in THREAD_VARS:
        os.environ[var] = str(wanted)
    return wanted


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": nproc(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring budget of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pqgrams" / "__init__.py").is_file():
        print(f"perfbench: no pqgrams sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    blas_threads = pin_threads()
    sys.path.insert(0, str(src))
    import bench

    result, detail = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), RUNS_DIR, ROOT)
    for failure in detail["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": environment(blas_threads), **detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
