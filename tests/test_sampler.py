"""Sampler unit tests.

The guidance gradient is checked against central finite differences of an
objective that respects the configured stop-gradient (the held branch is
frozen at its center value), and the batched sampler against an explicit
chain-by-chain ancestral loop driven by the same per-chain streams.
"""

import numpy as np
import pytest

from minority_diffusion.errors import ConfigError, NumericDegeneracyError
from minority_diffusion.minority import tweedie
from minority_diffusion.models import CallCountingModel, ScoreModel
from minority_diffusion.sampler import (
    ChainState,
    GuidanceConfig,
    _normalize_linf,
    ancestral_step,
    chain_rngs,
    guidance,
    guided_sample,
    guided_steps,
    naive_density_guidance,
    resolve_s,
    weight,
)
from minority_diffusion.schedule import build_schedule


def sg_objective(x, t, cfg, model, sched, eps, center):
    """Metric value with the stop-gradient branch frozen at the center point."""
    s = resolve_s(cfg, sched)
    a_s = float(sched.alpha_bar(s))
    c_s = np.sqrt(1.0 - a_s)
    x0_c = tweedie(center, t, model, sched)
    total = 0.0
    for e in eps:
        xs_c = np.sqrt(a_s) * x0_c + c_s * e
        x0hh_c = tweedie(xs_c, s, model, sched)
        x0 = tweedie(x, t, model, sched)
        xs = np.sqrt(a_s) * x0 + c_s * e
        x0hh = tweedie(xs, s, model, sched)
        if cfg.sg_mode == "sg_second":
            total += float(cfg.distance.value(x0, x0hh_c))
        elif cfg.sg_mode == "sg_first":
            total += float(cfg.distance.value(x0_c, x0hh))
        else:
            total += float(cfg.distance.value(x0, x0hh))
    return total / len(eps)


@pytest.mark.parametrize("sg", ["none", "sg_first", "sg_second"])
@pytest.mark.parametrize("model_name", ["analytic", "mlp"])
def test_guidance_matches_finite_differences(sg, model_name, ring_model20, mlp20, sched20):
    model = ring_model20 if model_name == "analytic" else mlp20
    cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.6, normalize_linf=False, mc_samples=2)
    rng = np.random.default_rng(7)
    h = 1e-6
    for t in (5, 14):
        x = rng.normal(scale=2.0, size=2)
        eps = rng.normal(size=(2, 2))
        g = guidance(x, t, cfg, model, sched20, eps=eps)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (
                sg_objective(x + e, t, cfg, model, sched20, eps, x)
                - sg_objective(x - e, t, cfg, model, sched20, eps, x)
            ) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=2e-4, abs=1e-7)


def test_guidance_decomposes_over_stop_gradients(ring_model20, mlp20, sched20):
    rng = np.random.default_rng(8)
    for model in (ring_model20, mlp20):
        x = rng.normal(scale=2.0, size=(4, 2))
        eps = rng.normal(size=(1, 4, 2))
        parts = {}
        for sg in ("none", "sg_first", "sg_second"):
            cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.6, normalize_linf=False)
            parts[sg] = guidance(x, 10, cfg, model, sched20, eps=eps)
        np.testing.assert_allclose(
            parts["none"], parts["sg_first"] + parts["sg_second"], atol=1e-9
        )


def test_guidance_returns_metric_value(ring_model20, sched20):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2))
    cfg = GuidanceConfig(w=1.0, s_fraction=0.6)
    _, metric = guidance(
        x, 10, cfg, ring_model20, sched20, eps=rng.normal(size=(1, 3, 2)), return_metric=True
    )
    assert metric.shape == (3,)
    assert np.all(metric >= 0.0)


def test_weight_schedules(sched20):
    fixed = GuidanceConfig(w=2.0, schedule_mode="fixed")
    assert weight(3, fixed, sched20) == 2.0
    sw = GuidanceConfig(w=2.0, schedule_mode="switch_off", t_mid=10)
    assert weight(10, sw, sched20) == 2.0
    assert weight(9, sw, sched20) == 0.0
    var = GuidanceConfig(w=2.0, schedule_mode="variance")
    assert weight(7, var, sched20) == pytest.approx(2.0 * float(sched20.rvar(7)))
    with pytest.raises(ConfigError):
        weight(5, GuidanceConfig(w=1.0, schedule_mode="switch_off"), sched20)


def test_resolve_s_rounds_and_clamps(sched20):
    assert resolve_s(GuidanceConfig(s_fraction=0.8), sched20) == 16
    assert resolve_s(GuidanceConfig(s_fraction=0.012), sched20) == 1
    assert resolve_s(GuidanceConfig(s_fraction=0.99), sched20) == 20


def test_guided_steps_counts():
    assert len(guided_steps(250, 5)) == 50
    assert len(guided_steps(250, 1)) == 250
    assert guided_steps(10, 4) == [8, 4]


def test_normalize_linf():
    g = np.array([[3.0, -6.0], [0.0, 0.0]])
    out = _normalize_linf(g)
    np.testing.assert_allclose(out[0], [0.5, -1.0])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])  # zero vector untouched


def test_guidance_config_validation():
    with pytest.raises(ConfigError):
        GuidanceConfig(w=-0.1)
    with pytest.raises(ConfigError):
        GuidanceConfig(schedule_mode="linear")
    with pytest.raises(ConfigError):
        GuidanceConfig(sg_mode="both")
    with pytest.raises(ConfigError):
        GuidanceConfig(n=0)
    with pytest.raises(ConfigError):
        GuidanceConfig(s_fraction=1.0)
    with pytest.raises(ConfigError):
        GuidanceConfig(mc_samples=0)
    with pytest.raises(ConfigError):
        GuidanceConfig(kind="classifier")


def test_ancestral_step_terminal_is_deterministic(unit_model20, sched20):
    x = np.array([0.4, -0.2])
    st1 = ChainState(x=x, t=1, rng=np.random.default_rng(0))
    st2 = ChainState(x=x, t=1, rng=np.random.default_rng(99))
    out1 = ancestral_step(st1, unit_model20, sched20)
    out2 = ancestral_step(st2, unit_model20, sched20)
    np.testing.assert_array_equal(out1.x, out2.x)
    assert out1.t == 0
    with pytest.raises(ValueError):
        ancestral_step(out1, unit_model20, sched20)


def test_unguided_sampler_matches_chain_by_chain_ancestral(ring_model20, sched20, ring):
    chains, seed = 6, 42
    batched, rows = guided_sample(
        ring_model20, sched20, GuidanceConfig(w=0.0), dim=2, chains=chains, seed=seed
    )
    assert rows == []
    for c in range(chains):
        rng_z, _ = chain_rngs(seed, c)
        state = ChainState(x=rng_z.standard_normal(2), t=sched20.T, rng=rng_z)
        while state.t >= 1:
            state = ancestral_step(state, ring_model20, sched20)
        np.testing.assert_array_equal(batched[c], state.x)


def test_zero_weight_never_touches_guidance(ring_model20, sched20):
    counted = CallCountingModel(ring_model20)
    guided_sample(counted, sched20, GuidanceConfig(w=0.0), dim=2, chains=3, seed=0)
    assert counted.forward_calls == sched20.T
    assert counted.backward_calls == 0


def test_guided_sampler_is_deterministic(ring_model20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=4, s_fraction=0.6)
    a, _ = guided_sample(ring_model20, sched20, cfg, dim=2, chains=4, seed=3)
    b, _ = guided_sample(ring_model20, sched20, cfg, dim=2, chains=4, seed=3)
    np.testing.assert_array_equal(a, b)
    c, _ = guided_sample(ring_model20, sched20, cfg, dim=2, chains=4, seed=4)
    assert not np.array_equal(a, c)


def test_extra_chains_leave_existing_chains_untouched(ring_model20, sched20):
    # per-chain streams depend only on (seed, chain index)
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=4, s_fraction=0.6)
    small, _ = guided_sample(ring_model20, sched20, cfg, dim=2, chains=3, seed=3)
    big, _ = guided_sample(ring_model20, sched20, cfg, dim=2, chains=5, seed=3)
    np.testing.assert_array_equal(small, big[:3])


def test_naive_guidance_is_normalized_descent(ring_model20, sched20):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 2))
    raw = -ring_model20.score(x, 8)
    np.testing.assert_allclose(
        naive_density_guidance(x, 8, ring_model20, sched20), _normalize_linf(raw), rtol=1e-12
    )
    np.testing.assert_allclose(
        naive_density_guidance(x, 8, ring_model20, sched20, normalize_linf=False), raw, rtol=1e-12
    )


def test_trace_rows_cover_guided_steps(ring_model20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=5, s_fraction=0.6)
    _, rows = guided_sample(ring_model20, sched20, cfg, dim=2, chains=2, seed=0, trace=True)
    assert len(rows) == 2 * len(guided_steps(sched20.T, 5))
    ts = sorted({r[1] for r in rows}, reverse=True)
    assert ts == guided_steps(sched20.T, 5)


def test_switch_off_skips_low_timesteps(ring_model20):
    sched = build_schedule("cosine", 20)
    counted = CallCountingModel(ring_model20)
    cfg = GuidanceConfig(
        w=0.5, schedule_mode="switch_off", t_mid=11, n=1, s_fraction=0.6, mc_samples=1
    )
    guided_sample(counted, sched, cfg, dim=2, chains=2, seed=0)
    # 20 transitions + 2 tweedie forwards per active guidance step (t = 11..20)
    assert counted.forward_calls == 20 + 10 * 2
    assert counted.backward_calls == 10  # sg_second: one pullback per step


class TwoPassModel(ScoreModel):
    """linearize as two independent evaluations: eps, and a pullback that
    runs the inner model again from scratch."""

    def __init__(self, inner):
        super().__init__(inner.sched)
        self.inner = inner

    def eps(self, x, t):
        return self.inner.eps(x, t)

    def linearize(self, x, t):
        return self.eps(x, t), lambda cot: self.inner.input_vjp(x, t, cot)


class NanAt(TwoPassModel):
    """eps turns NaN at one timestep."""

    def __init__(self, inner, t_bad):
        super().__init__(inner)
        self.t_bad = t_bad

    def eps(self, x, t):
        out = self.inner.eps(x, t)
        return np.full_like(out, np.nan) if t == self.t_bad else out


@pytest.mark.parametrize("sg", ["none", "sg_first", "sg_second"])
def test_two_pass_linearize_gives_same_samples(sg, ring_model20, mlp20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=3, s_fraction=0.6, sg_mode=sg, mc_samples=2)
    for model in (ring_model20, mlp20):
        fast, fast_rows = guided_sample(model, sched20, cfg, dim=2, chains=5, seed=1, trace=True)
        slow, slow_rows = guided_sample(
            TwoPassModel(model), sched20, cfg, dim=2, chains=5, seed=1, trace=True
        )
        np.testing.assert_array_equal(fast, slow)
        assert fast_rows == slow_rows


@pytest.mark.parametrize("t_bad", [20, 9, 6, 1])
def test_non_finite_state_raises_with_timestep(t_bad, ring_model20, sched20):
    # t = 9 and t = 6 are guided steps (n = 3), t = 20 and t = 1 are not
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=3, s_fraction=0.6)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericDegeneracyError, match=f"t = {t_bad}$"):
            guided_sample(NanAt(ring_model20, t_bad), sched20, cfg, dim=2, chains=3, seed=0)


def test_trace_rows_hold_python_scalars(ring_model20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=5, s_fraction=0.6)
    _, rows = guided_sample(ring_model20, sched20, cfg, dim=2, chains=3, seed=0, trace=True)
    assert [r[0] for r in rows[:3]] == [0, 1, 2]
    for row in rows:
        assert [type(v) for v in row] == [int, int, float, float, float, float]
