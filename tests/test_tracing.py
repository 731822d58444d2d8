"""The benchmark's tracer against the package: every name it wraps must
resolve, and leaving Tracer.patched must put every original back.

A renamed or deleted target would otherwise break only traced benchmark runs.
"""

import bench
import numpy as np
import tracing

from minority_diffusion.models import MlpEpsModel
from minority_diffusion.schedule import build_schedule


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


def test_tracer_is_the_benchmarks_own_module():
    # tier-1 checks the module the benchmark runs, not a second copy of it
    assert tracing is bench.tracing
