"""Score-model unit tests.

Oracles: the unit Gaussian (whose optimal noise predictor has the closed form
eps(x, t) = sqrt(1 - abar_t) x), finite differences for input Jacobians, and
batched-vs-single-row consistency for the MLP, and a fresh model for the
MLP's buffer pool.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import minority_diffusion

from minority_diffusion import gmm
from minority_diffusion.errors import ConfigError, TrainingDivergenceError
from minority_diffusion.models import (
    ADAM_EPS,
    CallCountingModel,
    GmmScoreModel,
    MlpEpsModel,
    TrainOptions,
    sinusoidal_embedding,
    train_dsm,
)
from minority_diffusion.sampler import GuidanceConfig, guided_sample
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


def test_every_model_carries_its_dimension(ring_model20, mlp20, sched20):
    spec16 = gmm.GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 16)), variances=np.array([1.0]))
    assert ring_model20.dim == 2 and mlp20.dim == 2
    assert GmmScoreModel(spec16, sched20).dim == 16
    assert CallCountingModel(GmmScoreModel(spec16, sched20)).dim == 16
    assert MlpEpsModel(sched20, dim=3, hidden=(4,), emb_dim=4).dim == 3


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


def test_train_dsm_parameter_gradients_match_finite_differences(sched20):
    # Adam's first bias-corrected step moves each parameter by
    # u = lr * g / (|g| + ADAM_EPS), which at lr = 1 inverts to the gradient
    # g = ADAM_EPS * u / (1 - |u|) that train_dsm applied; it must match
    # central differences of the batch loss for every weight and bias. Each
    # batch row draws its own t.
    data = np.random.default_rng(0).normal(size=(32, 2))
    opts = TrainOptions(steps=1, batch_size=6, lr=1.0)
    h = 1e-6
    for seed in range(3):
        model = MlpEpsModel(sched20, dim=2, hidden=(5, 4), emb_dim=4, seed=seed)
        # the batch train_dsm draws from this generator: rows, t, noise
        rng = np.random.default_rng(seed)
        x0 = data[rng.integers(0, data.shape[0], size=opts.batch_size)]
        t = rng.integers(1, sched20.T + 1, size=opts.batch_size)
        noise = rng.standard_normal(x0.shape)
        ab = sched20.alpha_bar(t)[:, None]
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise

        def loss():
            resid = model.eps(xt, t) - noise
            return np.sum(resid * resid) / opts.batch_size

        params = model.params
        want = np.empty_like(params)
        for i, old in enumerate(params.tolist()):
            params[i] = old + h
            up = loss()
            params[i] = old - h
            want[i] = (up - loss()) / (2.0 * h)
            params[i] = old
        before = params.copy()
        train_dsm(model, data, sched20, opts, np.random.default_rng(seed))
        step = before - model.params
        np.testing.assert_allclose(ADAM_EPS * step / (1.0 - np.abs(step)), want, rtol=1e-5, atol=1e-8)


def test_train_dsm_reports_divergence_step(sched20):
    model = MlpEpsModel(sched20, dim=2, seed=0)
    bad = np.full((16, 2), np.inf)
    with pytest.raises(TrainingDivergenceError) as exc:
        train_dsm(model, bad, sched20, TrainOptions(steps=5), np.random.default_rng(0))
    assert exc.value.step == 0


def test_train_dsm_rejects_non_finite_parameters_after_its_last_step(sched20):
    # the loss of step 0 is finite; its infinite update is the last one, so
    # no later loss can see it
    model = MlpEpsModel(sched20, dim=2, seed=0)
    opts = TrainOptions(steps=1)
    opts.lr = np.inf  # past the check that TrainOptions makes
    with pytest.raises(TrainingDivergenceError, match="parameters") as exc:
        train_dsm(model, np.zeros((16, 2)), sched20, opts, np.random.default_rng(0))
    assert exc.value.step == 0
    with pytest.raises(ConfigError, match="finite"):
        TrainOptions(lr=np.inf)


def test_train_dsm_rejects_empty_data(sched20):
    model = MlpEpsModel(sched20, dim=2, seed=0)
    with pytest.raises(ValueError):
        train_dsm(model, np.empty((0, 2)), sched20, TrainOptions(steps=1), np.random.default_rng(0))


def test_train_dsm_rejects_another_schedule(sched20):
    # a checkpoint records its model's schedule, so a model trained against
    # another one would load as valid for the wrong process
    model = MlpEpsModel(sched20, dim=2, seed=0)
    before = model.params.copy()
    with pytest.raises(ConfigError, match="schedule"):
        train_dsm(model, np.zeros((4, 2)), build_schedule("cosine", 40), TrainOptions(steps=1), np.random.default_rng(0))
    assert np.array_equal(model.params, before) and model.step_count == 0


def test_call_counting_wrapper(ring_model20):
    counted = CallCountingModel(ring_model20)
    x = np.zeros((3, 2))
    counted.eps(x, 5)
    counted.score(x, 5)  # score goes through eps
    counted.input_vjp(x, 5, x)  # the forward pass linearize runs, then its pullback
    assert counted.forward_calls == 3
    assert counted.backward_calls == 1


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


def test_call_counting_linearize(ring_model20):
    counted = CallCountingModel(ring_model20)
    x = np.ones((3, 2))
    eps, vjp = counted.linearize(x, 5)
    assert (counted.forward_calls, counted.backward_calls) == (1, 0)
    vjp(x)
    vjp(x)
    assert (counted.forward_calls, counted.backward_calls) == (1, 2)
    np.testing.assert_array_equal(eps, ring_model20.eps(x, 5))


def test_mlp_pooled_buffers_never_alias_live_results(sched20):
    # linearize and eps calls at different (x, t) interleave with pullbacks,
    # one of them called twice and one released midway; every result must
    # equal what a model with an empty pool gives, so no buffer handed out
    # again can be one that a live result or pullback still uses
    def fresh():
        return MlpEpsModel(sched20, dim=2, hidden=(16, 16), emb_dim=8, seed=5)

    model = fresh()
    rng = np.random.default_rng(13)
    xs = rng.normal(size=(4, 9, 2))
    cot = rng.normal(size=(2, 9, 2))
    eps_a, vjp_a = model.linearize(xs[0], 17)
    eps_b = model.eps(xs[1], 4)
    eps_c, vjp_c = model.linearize(xs[2], 11)
    grad_a1 = vjp_a(cot[0])
    eps_d = model.eps(xs[0], 4)
    del vjp_c  # its activations go back to the pool
    eps_e, vjp_e = model.linearize(xs[3], 20)
    grad_a2 = vjp_a(cot[1])
    grad_e = vjp_e(cot[0])
    for got, (x, t) in [
        (eps_a, (xs[0], 17)),
        (eps_b, (xs[1], 4)),
        (eps_c, (xs[2], 11)),
        (eps_d, (xs[0], 4)),
        (eps_e, (xs[3], 20)),
    ]:
        assert np.array_equal(got, fresh().eps(x, t))
    assert np.array_equal(grad_a1, fresh().input_vjp(xs[0], 17, cot[0]))
    assert np.array_equal(grad_a2, fresh().input_vjp(xs[0], 17, cot[1]))
    assert np.array_equal(grad_e, fresh().input_vjp(xs[3], 20, cot[0]))


@pytest.mark.parametrize("mc, held", [(1, 4), (2, 6)])
def test_mlp_buffer_pool_does_not_grow_with_steps(mc, held):
    # a guided step holds the activations at t and at s and runs one
    # backward pass; the pool keeps what that peak needed, for any T
    pools = []
    for T in (10, 40):
        sched = build_schedule("cosine", T)
        model = MlpEpsModel(sched, dim=2, hidden=(16, 16), emb_dim=8, seed=5)
        guided_sample(model, GuidanceConfig(w=1.0, n=1, mc_samples=mc), chains=12, seed=0)
        pools.append({shape: len(free) for shape, free in model._pool.items()})
    assert pools[0] == pools[1] == {(12, 16): held}


def test_train_dsm_reuses_its_buffers(sched20):
    # a training step gives its hidden activations back after the backward
    # pass, so later steps and later calls take every hidden-layer array
    # from the pool: the arrays it holds after one step are the ones it
    # holds after five more (kept alive here, so no new array can take an
    # old one's identity)
    model = MlpEpsModel(sched20, dim=2, hidden=(16, 16), emb_dim=8, seed=5)
    data = np.random.default_rng(0).normal(size=(32, 2))
    train_dsm(model, data, sched20, TrainOptions(steps=1, batch_size=12), np.random.default_rng(1))
    first = list(model._pool[(12, 16)])
    train_dsm(model, data, sched20, TrainOptions(steps=5, batch_size=12), np.random.default_rng(2))
    after = model._pool[(12, 16)]
    assert len(first) == len(after) == 4
    assert all(any(a is b for b in first) for a in after)


_FAULT_PROBE = """
import resource

import numpy as np

from minority_diffusion.models import MlpEpsModel
from minority_diffusion.schedule import build_schedule

model = MlpEpsModel(build_schedule("cosine", 250), dim=2, seed=0)
x = np.random.default_rng(0).standard_normal((600, 2))


def guided_step():
    eps_t, vjp_t = model.linearize(x, 200)
    eps_s, _ = model.linearize(x + eps_t, 100)
    vjp_t(eps_s)
    model.eps(x, 200)


guided_step()  # fills the pool and warms BLAS up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    guided_step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are Linux-only")
def test_mlp_guided_steps_take_few_page_faults():
    # at 600 rows glibc hands freed 600x128 arrays back to the OS, so a
    # model that allocated them fresh faulted each one in again: about
    # 1 100 faults per step in a fresh process, none with the buffer pool
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(minority_diffusion.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert int(probe.stdout) < 2000
