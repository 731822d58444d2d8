"""Tweedie denoising and uniqueness-metric unit tests.

For a single Gaussian component every quantity here has a closed form, so
the oracles are exact: the posterior mean of N(mu, s2), and for the unit
Gaussian the per-draw reconstruction loss ||(1-ab) x0 - sqrt(ab (1-ab)) eps||^2.
"""

import numpy as np
import pytest

from minority_diffusion.errors import NumericDegeneracyError
from minority_diffusion.gmm import GmmSpec
from minority_diffusion.minority import (
    inference_metric,
    minority_score,
    tweedie,
)
from minority_diffusion.models import GmmScoreModel
from minority_diffusion.schedule import NoiseSchedule


def test_tweedie_single_gaussian_posterior_mean(sched20):
    # x0 ~ N(mu, s2 I), x_t | x0 ~ N(sqrt(ab) x0, (1-ab) I):
    # E[x0 | x_t] = mu + sqrt(ab) s2 / (ab s2 + 1 - ab) * (x_t - sqrt(ab) mu)
    mu, s2 = np.array([1.5, -2.0]), 0.7
    spec = GmmSpec(weights=np.array([1.0]), means=mu[None], variances=np.array([s2]))
    model = GmmScoreModel(spec, sched20)
    rng = np.random.default_rng(0)
    for t in (1, 8, 20):
        ab = float(sched20.alpha_bar(t))
        v = ab * s2 + 1.0 - ab
        x_t = rng.normal(size=(4, 2))
        want = mu + np.sqrt(ab) * s2 / v * (x_t - np.sqrt(ab) * mu)
        np.testing.assert_allclose(tweedie(x_t, t, model), want, rtol=1e-10)


def test_tweedie_rejects_degenerate_alpha_bar(unit_gauss):
    # a steep schedule drives alpha_bar below the safety floor
    betas = np.linspace(0.2, 0.5, 200)
    steep = NoiseSchedule("linear", 200, betas, np.cumprod(1.0 - betas))
    model = GmmScoreModel(unit_gauss, steep)
    assert float(steep.alpha_bar(200)) < 1e-12
    with pytest.raises(NumericDegeneracyError):
        tweedie(np.zeros(2), 200, model)


def test_minority_score_unit_gaussian_per_draw(unit_model20, sched20):
    # for the unit Gaussian tweedie(x_t) = sqrt(ab) x_t, so with a pinned draw
    # the reconstruction loss is exactly ||(1-ab) x0 - sqrt(ab(1-ab)) eps||^2
    rng = np.random.default_rng(1)
    for t in (1, 10, 20):
        ab = float(sched20.alpha_bar(t))
        x0 = rng.normal(size=2)
        eps = rng.normal(size=2)
        got = minority_score(x0, t, unit_model20, eps=eps[None])
        want = float(np.sum(((1.0 - ab) * x0 - np.sqrt(ab * (1.0 - ab)) * eps) ** 2))
        assert float(got) == pytest.approx(want, rel=1e-12)


def test_minority_score_expectation_closed_form(unit_model20, sched20):
    # E over eps has the closed form (1-ab)^2 ||x0||^2 + ab (1-ab) D
    rng = np.random.default_rng(2)
    t = 10
    ab = float(sched20.alpha_bar(t))
    x0 = np.array([1.0, -0.5])
    ev = minority_score(x0, t, unit_model20, eps=rng.standard_normal((4000,) + x0.shape))
    want = (1.0 - ab) ** 2 * float(x0 @ x0) + ab * (1.0 - ab) * 2
    assert float(ev) == pytest.approx(want, rel=0.1)


def test_inference_metric_is_minority_score_of_surrogate(ring_model20):
    # the definition is literal, so with shared noise the two are identical
    rng = np.random.default_rng(3)
    x_t = rng.normal(size=(5, 2))
    t, s = 12, 16
    eps = rng.normal(size=(3, 5, 2))
    via_metric = inference_metric(x_t, t, s, ring_model20, eps=eps)
    x0_hat = tweedie(x_t, t, ring_model20)
    via_score = minority_score(x0_hat, s, ring_model20, eps=eps)
    np.testing.assert_array_equal(via_metric, via_score)


def test_inference_metric_at_origin_unit_gaussian(unit_model20, sched20):
    # x0_hat = 0, so each draw contributes exactly ab_s (1-ab_s) ||eps||^2
    t, s = 10, 15
    ab_s = float(sched20.alpha_bar(s))
    eps = np.array([[0.3, -1.2]])
    got = inference_metric(np.zeros(2), t, s, unit_model20, eps=eps)
    assert float(got) == pytest.approx(ab_s * (1.0 - ab_s) * float(np.sum(eps**2)), rel=1e-12)


def test_metric_batched_matches_loop(ring_model20):
    rng = np.random.default_rng(4)
    x0 = rng.normal(scale=3.0, size=(6, 2))
    eps = rng.normal(size=(2, 6, 2))
    batched = minority_score(x0, 9, ring_model20, eps=eps)
    for i in range(6):
        single = minority_score(x0[i], 9, ring_model20, eps=eps[:, i])
        assert batched[i] == pytest.approx(float(single), rel=1e-12)


def test_metric_argument_validation(ring_model20):
    with pytest.raises(ValueError):
        minority_score(np.zeros(2), 5, ring_model20, eps=np.zeros((0, 2)))  # zero draws
    with pytest.raises(ValueError):
        minority_score(np.zeros(2), 5, ring_model20, eps=np.zeros((2, 3)))

