"""Shared fixtures: small schedules, benchmark mixtures, analytic models, an
untrained MLP noise predictor (random weights are enough for gradient
checks) and the finite-difference objective of the guidance gradient."""

import numpy as np
import pytest

from minority_diffusion.gmm import GmmSpec, benchmark
from minority_diffusion.minority import tweedie
from minority_diffusion.models import GmmScoreModel, MlpEpsModel
from minority_diffusion.schedule import build_schedule


@pytest.fixture(scope="session")
def sched20():
    return build_schedule("cosine", 20)


@pytest.fixture(scope="session")
def ring():
    return benchmark("gmm8-ring")


@pytest.fixture(scope="session")
def unit_gauss():
    return GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0]))


@pytest.fixture(scope="session")
def ring_model20(ring, sched20):
    return GmmScoreModel(ring, sched20)


@pytest.fixture(scope="session")
def unit_model20(unit_gauss, sched20):
    return GmmScoreModel(unit_gauss, sched20)


@pytest.fixture(scope="session")
def mlp20(sched20):
    return MlpEpsModel(sched20, dim=2, hidden=(16, 16), emb_dim=8, seed=5)


def _sg_objective(x, t, cfg, model, eps, center):
    """Metric value with the stop-gradient branch frozen at the center point."""
    sched = model.sched
    s = sched.step_at(cfg.s_fraction)
    a_s = float(sched.alpha_bar(s))
    c_s = np.sqrt(1.0 - a_s)
    x0_c = tweedie(center, t, model)
    total = 0.0
    for e in eps:
        x0hh_c = tweedie(np.sqrt(a_s) * x0_c + c_s * e, s, model)
        x0 = tweedie(x, t, model)
        x0hh = tweedie(np.sqrt(a_s) * x0 + c_s * e, s, model)
        if cfg.sg_mode == "sg_second":
            total += float(np.sum((x0 - x0hh_c) ** 2))
        elif cfg.sg_mode == "sg_first":
            total += float(np.sum((x0_c - x0hh) ** 2))
        else:
            total += float(np.sum((x0 - x0hh) ** 2))
    return total / len(eps)


@pytest.fixture(scope="session")
def sg_objective():
    """sg_objective(x, t, cfg, model, eps, center): the objective whose
    central finite differences the guidance gradient must match."""
    return _sg_objective
