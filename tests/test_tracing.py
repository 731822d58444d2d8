"""The benchmark's tracer against the package: every name it wraps must
resolve, and leaving Tracer.patched must put every original back.

A renamed or deleted target would otherwise break only traced benchmark runs.
"""

import importlib.util
import os
import sys

import numpy as np

from minority_diffusion.models import MlpEpsModel
from minority_diffusion.schedule import build_schedule

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_patches_and_restores_every_target():
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    model = MlpEpsModel(build_schedule("cosine", 20), dim=2, hidden=(4,), emb_dim=4)
    with tracer.patched("run"):
        for (owner, attr, _), fn in zip(tracing.TARGETS, originals):
            assert getattr(owner, attr).__wrapped__ is fn, attr
        model.eps(np.zeros((3, 2)), 5)
    for (owner, attr, _), fn in zip(tracing.TARGETS, originals):
        assert getattr(owner, attr) is fn, attr
    assert tracer.summary("run")["models.mlp_eps"]["calls"] == 1
