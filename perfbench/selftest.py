#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks that
  * every workload in BENCHMARK.json, untraced and traced, passes its gate
    at a few chains and prints every declared metric with its declared unit,
    plus error_rate;
  * the neighbour oracle agrees with the package on data with exact ties
    and rejects a perturbed avg_knn or LOF value, so the gate can fire;
  * the benchmark exits nonzero, printing no result, in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits 0 only when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_benchmark(root: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_smoke_runs(spec: dict) -> list[str]:
    problems = []
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in declared.items():
            where = f"{workload} --trace {trace}"
            proc = run_benchmark(
                ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke",
            )
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != RESULT_KEYS or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: bad result {result}")
            want = {m["name"]: m["unit"] for m in metrics}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics/units {got} != declared {want}")
            for name, m in result["metrics"].items():
                if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} value {m['value']!r} is not a number")
            if not any(line.split()[:1] == ["error_rate"] and line.split()[-1] == "ratio"
                       for line in proc.stdout.splitlines()):
                problems.append(f"{where}: no error_rate line")
    return problems


def check_oracle() -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np

    import oracle
    from minority_diffusion.evaluation import avg_knn_batch, lof_batch

    rng = np.random.default_rng(0)
    base = rng.standard_normal((180, 2))
    refset = np.concatenate([base, base[:20]])  # exact duplicates give distance ties
    queries = refset[:40]
    rows = range(len(queries))
    problems = []
    for kind, fn, k in (("avg_knn", avg_knn_batch, 5), ("lof", lof_batch, 20)):
        values = fn(queries, refset, k, self_offset=0)
        if oracle.mismatches(kind, values, queries, refset, k, 0, rows):
            problems.append(f"oracle disagrees with the package's {kind} on unperturbed values")
        perturbed = values.copy()
        perturbed[3] += 1e-9
        if len(oracle.mismatches(kind, perturbed, queries, refset, k, 0, rows)) != 1:
            problems.append(f"oracle did not reject a {kind} value perturbed by 1e-9")
    return problems


def check_bare_directory() -> list[str]:
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_benchmark(bare, "--workload", "calibrated", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for name, check in (
        ("smoke runs emit every declared metric", lambda: check_smoke_runs(spec)),
        ("oracle agrees, and rejects perturbed values", check_oracle),
        ("no result without the package source", check_bare_directory),
    ):
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
