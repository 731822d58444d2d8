#!/usr/bin/env python3
"""Offline benchmark of ``minority_diffusion.harness.run_experiment``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload calibrated --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's experiments back to back (a
closed loop), with BLAS threads capped at the number of usable cores. Every
run passes a correctness gate. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. The exit code is 0 only when every run passed.
Workloads, metrics and their bounds are listed in ``BENCHMARK.json``.

``--smoke`` shrinks every workload to a few chains; ``perfbench/selftest.py``
uses it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="calibrated | mlp-guided | traced-16d")
    p.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = traced run, per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="a few chains per workload, for the self-test")
    p.add_argument("--cold-run", metavar="CONFIG", help="internal: one gated run of CONFIG, as a JSON line")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "minority_diffusion", "harness.py")):
        print(f"run.py: no minority_diffusion source under {src}", file=sys.stderr)
        return 2
    # must precede the first numpy import, which starts the BLAS thread pool
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.chdir(ROOT)
    start = time.perf_counter()
    sys.path.insert(0, src)
    import bench  # imports numpy, scipy and the package

    import_s = time.perf_counter() - start
    return bench.main(args, import_s, nproc)


if __name__ == "__main__":
    sys.exit(main())
