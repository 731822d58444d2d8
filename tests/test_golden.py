"""Golden artifacts: each benchmark workload, built at seed 1 at its smoke
size and at its full size, must reproduce the run recorded in golden.json.

Model calls must always match. Where numpy, scipy, BLAS and the CPU model
match the recorded env, samples.csv and metrics.csv must be byte-identical.
Elsewhere each summary mean must lie within 4 of its recorded standard
errors: the guided chain amplifies last-bit arithmetic differences, so
byte-identity holds only under identical arithmetic. A workload that runs
with run.trace off writes only the trace header to metrics.csv, so its
metrics sha256 pins that header and nothing of the run. A change that moves an
artifact on purpose updates golden.json by hand; on failure the test prints
the computed entry as JSON.
"""

import hashlib
import json
import os
import platform

import numpy as np
import pytest
import scipy
import workloads

from minority_diffusion.harness import run_experiment
from minority_diffusion.sampler import TRACE_HEADER

with open(os.path.join(os.path.dirname(__file__), "golden.json")) as _fh:
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


@pytest.mark.parametrize(
    "name, size",
    [pytest.param(name, size, id=name if size == "smoke" else f"{name}-full")
     for size in ("smoke", "full") for name in sorted(workloads.SETUP)],
)
def test_golden_artifacts(name, size, tmp_path):
    cfg = workloads.setup(name, 1, str(tmp_path), smoke=size == "smoke")
    out = tmp_path / "run"
    summary = run_experiment(cfg, str(out)).summary()
    if not cfg.run_trace:
        assert (out / "metrics.csv").read_text() == TRACE_HEADER + "\n"
    got = {
        "samples_sha256": _sha256(out / "samples.csv"),
        "metrics_sha256": _sha256(out / "metrics.csv"),
        "forward_calls": summary["forward_calls"],
        "backward_calls": summary["backward_calls"],
        **{f"{m}_{stat}": summary[f"{m}_{stat}"] for m in MEANS for stat in ("mean", "se")},
    }
    entry = json.dumps({name: got}, indent=2, sort_keys=True)
    want = GOLDEN[size][name]
    assert (got["forward_calls"], got["backward_calls"]) == (want["forward_calls"], want["backward_calls"]), entry
    if environment() == GOLDEN["env"]:
        print(f"{name} ({size}): env matches golden.json, comparing sha256")
        assert got["samples_sha256"] == want["samples_sha256"], entry
        assert got["metrics_sha256"] == want["metrics_sha256"], entry
    else:
        print(f"{name} ({size}): env differs from golden.json, comparing means within 4 standard errors")
        for m in MEANS:
            gap = abs(got[f"{m}_mean"] - want[f"{m}_mean"])
            assert gap <= 4 * want[f"{m}_se"], entry
