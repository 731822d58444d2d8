"""Score-model unit tests.

Oracles: the unit Gaussian (whose optimal noise predictor has the closed form
eps(x, t) = sqrt(1 - abar_t) x), finite differences for input Jacobians, and
batched-vs-single-row consistency for the MLP.
"""

import numpy as np
import pytest

from minority_diffusion import gmm
from minority_diffusion.errors import TrainingDivergenceError
from minority_diffusion.models import (
    CallCountingModel,
    GmmScoreModel,
    MlpEpsModel,
    TrainOptions,
    sinusoidal_embedding,
    train_dsm,
)
from minority_diffusion.schedule import build_schedule


def test_score_eps_relation_is_exact(ring_model20):
    # score and eps must be consistent to the last bit, not just numerically:
    # score is derived from eps through a single division
    rng = np.random.default_rng(0)
    for t in (1, 7, 20):
        x = rng.normal(scale=3.0, size=(5, 2))
        c = np.sqrt(1.0 - float(ring_model20.sched.alpha_bar(t)))
        lhs = ring_model20.score(x, t)
        rhs = -ring_model20.eps(x, t) / c
        np.testing.assert_array_equal(lhs, rhs)


def test_analytic_score_is_perturbed_mixture_score(ring, ring_model20, sched20):
    rng = np.random.default_rng(1)
    for t in (1, 10, 20):
        x = rng.normal(scale=3.0, size=(4, 2))
        np.testing.assert_allclose(
            ring_model20.score(x, t), gmm.score(x, ring, t, sched20), rtol=1e-12
        )


def test_unit_gaussian_eps_closed_form(unit_model20, sched20):
    rng = np.random.default_rng(2)
    for t in (1, 10, 20):
        x = rng.normal(size=(6, 2))
        c = np.sqrt(1.0 - float(sched20.alpha_bar(t)))
        np.testing.assert_allclose(unit_model20.eps(x, t), c * x, rtol=1e-12)


@pytest.mark.parametrize("model_name", ["analytic", "mlp"])
def test_input_vjp_matches_finite_differences(model_name, ring_model20, mlp20):
    model = ring_model20 if model_name == "analytic" else mlp20
    rng = np.random.default_rng(3)
    h = 1e-6
    for t in (2, 11, 19):
        x = rng.normal(scale=2.0, size=2)
        cot = rng.normal(size=2)
        got = model.input_vjp(x, t, cot)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = cot @ (model.eps(x + e, t) - model.eps(x - e, t)) / (2.0 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-7)


def test_mlp_batched_matches_single_rows(mlp20):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 2))
    t = 9
    batched = mlp20.eps(x, t)
    for i in range(5):
        np.testing.assert_allclose(batched[i], mlp20.eps(x[i], t), rtol=1e-12)
    # per-sample timestep vector
    ts = np.array([1, 3, 9, 15, 20])
    mixed = mlp20.eps(x, ts)
    for i in range(5):
        np.testing.assert_allclose(mixed[i], mlp20.eps(x[i], int(ts[i])), rtol=1e-12)


def test_sinusoidal_embedding_shape_and_range():
    emb = sinusoidal_embedding([1, 5, 250], 16)
    assert emb.shape == (3, 16)
    assert np.all(np.abs(emb) <= 1.0)
    assert not np.allclose(emb[0], emb[1])


def test_train_dsm_learns_unit_gaussian():
    # the optimal predictor for N(0, I) data is eps(x, t) = sqrt(1-ab_t) x;
    # the default budget must land within 10% aggregate relative L2 of that
    # closed form on a held-out grid
    sched = build_schedule("cosine", 250)
    rng = np.random.default_rng(11)
    data = rng.standard_normal((20_000, 2))
    model = MlpEpsModel(sched, dim=2, seed=11)
    history = train_dsm(model, data, sched, TrainOptions(), rng)
    assert len(history) == TrainOptions().steps
    assert history[-1] < history[0]
    probe = np.array(
        [[0.5, -0.5], [1.0, 1.0], [-1.5, 0.3], [0.0, 2.0], [2.0, -1.0], [-0.7, -0.7]]
    )
    num = den = 0.0
    for t in range(10, 251, 20):
        c = np.sqrt(1.0 - float(sched.alpha_bar(t)))
        want = c * probe
        got = model.eps(probe, t)
        num += float(np.sum((got - want) ** 2))
        den += float(np.sum(want**2))
    assert np.sqrt(num / den) <= 0.1


def test_train_dsm_reports_divergence_step(sched20):
    model = MlpEpsModel(sched20, dim=2, seed=0)
    bad = np.full((16, 2), np.inf)
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDivergenceError) as exc:
            train_dsm(model, bad, sched20, TrainOptions(steps=5), np.random.default_rng(0))
    assert exc.value.step == 0


def test_train_dsm_rejects_empty_data(sched20):
    model = MlpEpsModel(sched20, dim=2, seed=0)
    with pytest.raises(ValueError):
        train_dsm(model, np.empty((0, 2)), sched20, TrainOptions(steps=1), np.random.default_rng(0))


def test_call_counting_wrapper(ring_model20):
    counted = CallCountingModel(ring_model20)
    x = np.zeros((3, 2))
    counted.eps(x, 5)
    counted.score(x, 5)  # score goes through eps
    counted.input_vjp(x, 5, x)
    assert counted.forward_calls == 2
    assert counted.backward_calls == 1
    counted.reset()
    assert counted.forward_calls == 0 and counted.backward_calls == 0


@pytest.mark.parametrize("model_name", ["analytic", "mlp"])
def test_linearize_matches_eps_and_input_vjp(model_name, ring_model20, mlp20):
    model = ring_model20 if model_name == "analytic" else mlp20
    rng = np.random.default_rng(12)
    x = rng.normal(scale=2.0, size=(7, 2))
    cot = rng.normal(size=(7, 2))
    for t in (1, 10, 20):
        eps, vjp = model.linearize(x, t)
        np.testing.assert_array_equal(eps, model.eps(x, t))
        np.testing.assert_array_equal(vjp(cot), model.input_vjp(x, t, cot))
        np.testing.assert_array_equal(vjp(2.0 * cot), model.input_vjp(x, t, 2.0 * cot))


def test_mlp_input_only_backward_matches_full_backward(mlp20):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(9, 2))
    cot = rng.normal(size=(9, 2))
    for t in (1, 10, 20):
        _, acts = mlp20._forward(x, t)
        g_in, _, _ = mlp20._backward(acts, cot)
        np.testing.assert_array_equal(mlp20.linearize(x, t)[1](cot), g_in[:, :2])


def test_call_counting_linearize(ring_model20):
    counted = CallCountingModel(ring_model20)
    x = np.ones((3, 2))
    eps, vjp = counted.linearize(x, 5)
    assert (counted.forward_calls, counted.backward_calls) == (1, 0)
    vjp(x)
    vjp(x)
    assert (counted.forward_calls, counted.backward_calls) == (1, 2)
    np.testing.assert_array_equal(eps, ring_model20.eps(x, 5))
