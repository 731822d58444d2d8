"""Shared fixtures: small schedules, benchmark mixtures, analytic models and
an untrained MLP noise predictor (random weights are enough for gradient
checks)."""

import numpy as np
import pytest

from minority_diffusion.gmm import GmmSpec, benchmark
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
