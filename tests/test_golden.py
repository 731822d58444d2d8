"""Golden artifacts: each benchmark workload, built at seed 1 at its smoke
size, must reproduce the run recorded in golden.json.

Model calls must always match. Where numpy, scipy, BLAS and the CPU model
match the recorded env, samples.csv and metrics.csv must be byte-identical.
Elsewhere each summary mean must lie within 4 of its recorded standard
errors: the guided chain amplifies last-bit arithmetic differences, so
byte-identity holds only under identical arithmetic. A change that moves an
artifact on purpose updates golden.json by hand; on failure the test prints
the computed entry as JSON.
"""

import hashlib
import importlib.util
import json
import os
import platform
import sys

import numpy as np
import pytest
import scipy

from minority_diffusion.harness import run_experiment

_HERE = os.path.dirname(__file__)
_PATH = os.path.join(_HERE, os.pardir, "perfbench", "workloads.py")
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

with open(os.path.join(_HERE, "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

MEANS = ("log_density", "avg_knn")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        return "unknown"


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(), "cpu": _cpu_model()}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.SETUP))
def test_golden_artifacts(name, tmp_path):
    cfg = workloads.setup(name, 1, str(tmp_path), smoke=True)
    out = tmp_path / "run"
    summary = run_experiment(cfg, str(out)).summary()
    got = {
        "samples_sha256": _sha256(out / "samples.csv"),
        "metrics_sha256": _sha256(out / "metrics.csv"),
        "forward_calls": summary["forward_calls"],
        "backward_calls": summary["backward_calls"],
        **{f"{m}_{stat}": summary[f"{m}_{stat}"] for m in MEANS for stat in ("mean", "se")},
    }
    entry = json.dumps({name: got}, indent=2, sort_keys=True)
    want = GOLDEN["workloads"][name]
    assert (got["forward_calls"], got["backward_calls"]) == (want["forward_calls"], want["backward_calls"]), entry
    if environment() == GOLDEN["env"]:
        print(f"{name}: env matches golden.json, comparing sha256")
        assert got["samples_sha256"] == want["samples_sha256"], entry
        assert got["metrics_sha256"] == want["metrics_sha256"], entry
    else:
        print(f"{name}: env differs from golden.json, comparing means within 4 standard errors")
        for m in MEANS:
            gap = abs(got[f"{m}_mean"] - want[f"{m}_mean"])
            assert gap <= 4 * want[f"{m}_se"], entry
