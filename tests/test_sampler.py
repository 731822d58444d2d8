"""Sampler unit tests.

The guidance gradient is checked against central finite differences of an
objective that respects the configured stop-gradient (the held branch is
frozen at its center value), and the batched sampler against an explicit
chain-by-chain ancestral loop driven by the same per-chain streams.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minority_diffusion import sampler
from minority_diffusion.errors import ConfigError, NumericDegeneracyError
from minority_diffusion.gmm import GmmSpec
from minority_diffusion.minority import inference_metric, round_trip
from minority_diffusion.models import CallCountingModel, GmmScoreModel, ScoreModel
from minority_diffusion.sampler import (
    SCHEDULE_MODES,
    GuidanceConfig,
    _normalize_linf,
    guidance,
    guidance_plan,
    guided_sample,
    guided_steps,
    reverse_step,
    stream,
    weight,
)
from minority_diffusion.schedule import build_schedule, respace


@pytest.mark.parametrize("sg", ["none", "sg_first", "sg_second"])
@pytest.mark.parametrize("model_name", ["analytic", "mlp"])
def test_guidance_matches_finite_differences(sg, model_name, ring_model20, mlp20, sg_objective):
    model = ring_model20 if model_name == "analytic" else mlp20
    cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.6, normalize_linf=False, mc_samples=2)
    rng = np.random.default_rng(7)
    h = 1e-6
    for t in (5, 14):
        x = rng.normal(scale=2.0, size=2)
        eps = rng.normal(size=(2, 2))
        g = guidance(x, t, cfg, model, eps=eps)[0]
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (
                sg_objective(x + e, t, cfg, model, eps, x)
                - sg_objective(x - e, t, cfg, model, eps, x)
            ) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=2e-4, abs=1e-7)


def test_guidance_decomposes_over_stop_gradients(ring_model20, mlp20):
    rng = np.random.default_rng(8)
    for model in (ring_model20, mlp20):
        x = rng.normal(scale=2.0, size=(4, 2))
        eps = rng.normal(size=(1, 4, 2))
        parts = {}
        for sg in ("none", "sg_first", "sg_second"):
            cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.6, normalize_linf=False)
            parts[sg] = guidance(x, 10, cfg, model, eps=eps)[0]
        np.testing.assert_allclose(
            parts["none"], parts["sg_first"] + parts["sg_second"], atol=1e-9
        )


def test_guidance_returns_metric_value(ring_model20):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 2))
    cfg = GuidanceConfig(w=1.0, s_fraction=0.6)
    _, metric = guidance(x, 10, cfg, ring_model20, eps=rng.normal(size=(1, 3, 2)))
    assert metric.shape == (3,)
    assert np.all(metric >= 0.0)


@pytest.mark.parametrize("sg", ["none", "sg_first", "sg_second"])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("model_name", ["analytic", "mlp"])
def test_guidance_metric_is_inference_metric(sg, m, model_name, ring_model20, mlp20, sched20):
    # the trace's metric (metrics.csv) and the per-sample metric (samples.csv)
    # are one function: the same round trip with the same draws
    model = ring_model20 if model_name == "analytic" else mlp20
    rng = np.random.default_rng(11)
    x = rng.normal(scale=2.0, size=(5, 2))
    eps = rng.normal(size=(m, 5, 2))
    cfg = GuidanceConfig(w=1.0, sg_mode=sg, s_fraction=0.6, mc_samples=m)
    _, metric = guidance(x, 12, cfg, model, eps=eps)
    want = inference_metric(x, 12, sched20.step_at(cfg.s_fraction), model, eps=eps)
    assert np.array_equal(metric, want)


def test_round_trip_without_gradient_makes_no_backward(ring_model20):
    counted = CallCountingModel(ring_model20)
    eps = np.random.default_rng(12).normal(size=(3, 4, 2))
    draws, cot = round_trip(np.zeros((4, 2)), 9, counted, eps)
    assert draws.shape == (3, 4) and cot is None
    assert (counted.forward_calls, counted.backward_calls) == (3, 0)


def test_guidance_rejects_draws_that_do_not_match_mc_samples(ring_model20):
    cfg = GuidanceConfig(w=1.0, s_fraction=0.6, mc_samples=2)
    with pytest.raises(ValueError, match="fixed noise shape mismatch"):
        guidance(np.zeros((4, 2)), 10, cfg, ring_model20, eps=np.zeros((3, 4, 2)))


def test_weight_schedules(sched20):
    fixed = GuidanceConfig(w=2.0, schedule_mode="fixed")
    assert weight(3, fixed, sched20) == 2.0
    sw = GuidanceConfig(w=2.0, schedule_mode="switch_off", t_mid=10)
    assert weight(10, sw, sched20) == 2.0
    assert weight(9, sw, sched20) == 0.0
    var = GuidanceConfig(w=2.0, schedule_mode="variance")
    assert weight(7, var, sched20) == pytest.approx(2.0 * float(sched20.beta(7)))
    with pytest.raises(ConfigError, match=r"guidance.t_mid in 1..T = 1..20"):
        weight(5, GuidanceConfig(w=1.0, schedule_mode="switch_off"), sched20)


def test_step_at_rounds_and_clamps(sched20):
    # the perturbation timestep s = step_at(s_fraction)
    assert sched20.step_at(0.8) == 16
    assert sched20.step_at(0.012) == 1
    assert sched20.step_at(0.99) == 20


def test_guided_steps_counts():
    assert len(guided_steps(250, 5)) == 50
    assert len(guided_steps(250, 1)) == 250
    assert guided_steps(10, 4) == [8, 4]


def test_guidance_plan(sched20):
    # the guided steps of nonzero weight, each with its weight
    sw = GuidanceConfig(w=2.0, schedule_mode="switch_off", t_mid=10, n=3)
    assert guidance_plan(sw, sched20) == {18: 2.0, 15: 2.0, 12: 2.0}
    var = GuidanceConfig(w=2.0, n=7)
    assert guidance_plan(var, sched20) == {14: weight(14, var, sched20), 7: weight(7, var, sched20)}
    # w = 0 is unguided: the plan is empty, and switch_off needs no t_mid
    assert guidance_plan(GuidanceConfig(w=0.0, schedule_mode="switch_off"), sched20) == {}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["linear", "cosine"]), mode=st.sampled_from(SCHEDULE_MODES))
def test_guidance_plan_is_a_prefix_of_guided_steps(data, kind, mode):
    # guided_sample gives the i-th plan step the i-th guidance-noise row, the
    # row of guided_steps' i-th step: the zero-weight steps are the tail
    T = data.draw(st.integers(21 if kind == "linear" else 1, 400), label="T")  # linear T <= 20 has beta_end >= 1
    steps = data.draw(st.sampled_from([0] + [d for d in range(1, T + 1) if T % d == 0]), label="respace")
    sched = respace(build_schedule(kind, T), steps) if steps else build_schedule(kind, T)
    n = data.draw(st.integers(1, sched.T), label="n")
    t_mid = data.draw(st.integers(1, sched.T), label="t_mid")
    w = data.draw(st.one_of(st.floats(0.0, 1e3), st.sampled_from([5e-324, 1e-320, 1e-300])), label="w")
    plan = guidance_plan(GuidanceConfig(w=w, schedule_mode=mode, t_mid=t_mid, n=n), sched)
    assert list(plan) == guided_steps(sched.T, n)[: len(plan)]


@pytest.mark.parametrize(
    "n, m, mode",
    [(1, 1, "fixed"), (3, 1, "variance"), (1, 2, "variance"), (3, 2, "switch_off"), (1, 1, "switch_off")],
)
def test_guidance_noise_rows_follow_the_tape(monkeypatch, ring_model20, sched20, n, m, mode):
    # guided step t reads row T // n - t // n of one (T // n, m, D) draw
    # from each chain's second stream: the tape has a row per plan step, in
    # sampling order, and the plan is a prefix of guided_steps, so its i-th
    # step is guided_steps' i-th; under switch_off the zero-weight steps are
    # the tail, and their rows are never drawn
    seen = {}
    real = sampler.guidance

    def spy(x, t, cfg, model, eps):
        seen[t] = eps.copy()
        return real(x, t, cfg, model, eps=eps)

    monkeypatch.setattr(sampler, "guidance", spy)
    cfg = GuidanceConfig(w=0.5, schedule_mode=mode, t_mid=8, n=n, s_fraction=0.6, mc_samples=m)
    T, chains, seed = sched20.T, 3, 5
    guided_sample(ring_model20, cfg, chains=chains, seed=seed)
    assert sorted(seen, reverse=True) == [t for t in guided_steps(T, n) if weight(t, cfg, sched20) != 0.0]
    for c in range(chains):
        tape = stream(seed, c, 1).standard_normal((T // n, m, 2))
        for t, eps in seen.items():
            assert np.array_equal(eps[:, c], tape[T // n - t // n])


def test_normalize_linf():
    g = np.array([[3.0, -6.0], [0.0, 0.0]])
    out = _normalize_linf(g)
    np.testing.assert_allclose(out[0], [0.5, -1.0])
    np.testing.assert_array_equal(out[1], [0.0, 0.0])  # zero vector untouched


def test_guidance_config_validation():
    for w in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            GuidanceConfig(w=w)
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


def test_ancestral_step_terminal_is_deterministic(unit_model20):
    # at t = 1 the transition is its mean, whatever noise is passed
    x = np.array([0.4, -0.2])
    out1 = reverse_step(x, 1, unit_model20, np.zeros(2))
    out2 = reverse_step(x, 1, unit_model20, np.random.default_rng(99).standard_normal(2))
    np.testing.assert_array_equal(out1, out2)
    np.testing.assert_array_equal(out1, reverse_step(x, 1, unit_model20, None))


@pytest.mark.parametrize("t", [0, -1, 21])
def test_reverse_step_rejects_t_below_one(t, unit_model20):
    # the schedule's own range check, which also covers t > T = 20
    with pytest.raises(ValueError, match=rf"timestep {t} out of range 1\.\.20"):
        reverse_step(np.zeros(2), t, unit_model20, np.zeros(2))


@pytest.mark.parametrize(
    "cfg",
    [GuidanceConfig(w=0.0), GuidanceConfig(w=0.3, schedule_mode="fixed", n=3, kind="naive")],
    ids=["unguided", "naive"],
)
def test_sampler_matches_chain_by_chain_reference(cfg, ring_model20, sched20, ring):
    # naive guidance adds w * normalized descent on the log density, taken
    # at the pre-transition state, at every t % n == 0
    chains, seed = 6, 42
    batched, trace = guided_sample(ring_model20, cfg, chains=chains, seed=seed)
    assert trace == []
    for c in range(chains):
        rng_z = stream(seed, c, 0)
        x = rng_z.standard_normal(2)
        for t in range(sched20.T, 0, -1):
            g = _normalize_linf(-ring_model20.score(x, t))
            z = rng_z.standard_normal(2) if t > 1 else None
            x = reverse_step(x, t, ring_model20, z)
            if cfg.w and t % cfg.n == 0:
                x = x + cfg.w * g
        np.testing.assert_array_equal(batched[c], x)


def test_zero_weight_never_touches_guidance(ring_model20, sched20):
    counted = CallCountingModel(ring_model20)
    guided_sample(counted, GuidanceConfig(w=0.0), chains=3, seed=0)
    assert counted.forward_calls == sched20.T
    assert counted.backward_calls == 0


def test_guided_sampler_is_deterministic(ring_model20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=4, s_fraction=0.6)
    a, _ = guided_sample(ring_model20, cfg, chains=4, seed=3)
    b, _ = guided_sample(ring_model20, cfg, chains=4, seed=3)
    np.testing.assert_array_equal(a, b)
    c, _ = guided_sample(ring_model20, cfg, chains=4, seed=4)
    assert not np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.integers(2, 64).flatmap(lambda m: st.tuples(st.integers(1, m - 1), st.just(m))),
    kind=st.sampled_from(["self", "naive"]),
    seed=st.integers(0, 2**32),
)
def test_extra_chains_leave_existing_chains_untouched(ring_model20, sizes, kind, seed):
    # per-chain streams depend only on (seed, chain index), down to one
    # chain, and the analytic model is bitwise batch-invariant, so the first
    # n chains of an m-chain run are an n-chain run bit for bit. (The MLP's
    # last bits move with the chain count; see the README.)
    n, m = sizes
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=4, s_fraction=0.6, kind=kind)
    small, _ = guided_sample(ring_model20, cfg, chains=n, seed=seed)
    big, _ = guided_sample(ring_model20, cfg, chains=m, seed=seed)
    assert small.tobytes() == big[:n].tobytes()


def test_naive_guidance_is_normalized_descent(ring_model20):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 2))
    raw = -ring_model20.score(x, 8)
    for normalize, want in ((True, _normalize_linf(raw)), (False, raw)):
        cfg = GuidanceConfig(kind="naive", normalize_linf=normalize)
        g, metric = guidance(x, 8, cfg, ring_model20)
        np.testing.assert_array_equal(g, want)
        assert metric.shape == (4,) and np.all(np.isnan(metric))
        # the metric's noise is not used under naive guidance
        for eps in (np.zeros((1, 4, 2)), rng.normal(size=(3, 4, 2))):
            g_eps, metric_eps = guidance(x, 8, cfg, ring_model20, eps)
            np.testing.assert_array_equal(g_eps, g)
            np.testing.assert_array_equal(metric_eps, metric)


def test_trace_rows_cover_guided_steps(ring_model20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=5, s_fraction=0.6)
    _, trace = guided_sample(ring_model20, cfg, chains=2, seed=0, trace=True)
    assert [row[0] for row in trace] == guided_steps(sched20.T, 5)
    for _, w_t, *cells in trace:
        # mean and five quantiles each of l2, linf and the metric; l-inf
        # normalised guidance: every chain's vector has max |g_i| = 1
        l2, linf, metric = np.reshape(cells, (3, 6))
        assert w_t == 0.5 and np.all(linf == 1.0) and np.all(l2 >= 1.0)
        assert np.all(np.isfinite(metric))
    # the same run untraced keeps nothing
    _, untraced = guided_sample(ring_model20, cfg, chains=2, seed=0)
    assert untraced == []


@pytest.mark.parametrize("kind", ["self", "naive"])
def test_tracing_leaves_samples_unchanged(kind, ring_model20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=2, s_fraction=0.6, mc_samples=2, kind=kind)
    plain, untraced = guided_sample(ring_model20, cfg, chains=5, seed=7)
    traced, trace = guided_sample(ring_model20, cfg, chains=5, seed=7, trace=True)
    assert untraced == [] and len(trace) == len(guided_steps(sched20.T, 2))
    assert np.array_equal(plain, traced)


def test_switch_off_skips_low_timesteps(ring_model20):
    counted = CallCountingModel(ring_model20)
    cfg = GuidanceConfig(
        w=0.5, schedule_mode="switch_off", t_mid=11, n=1, s_fraction=0.6, mc_samples=1
    )
    guided_sample(counted, cfg, chains=2, seed=0)
    # 20 transitions + 2 tweedie forwards per active guidance step (t = 11..20)
    assert counted.forward_calls == 20 + 10 * 2
    assert counted.backward_calls == 10  # sg_second: one pullback per step


class TwoPassModel(ScoreModel):
    """linearize as two independent evaluations: eps, and a pullback that
    runs the inner model again from scratch."""

    def __init__(self, inner):
        super().__init__(inner.sched, inner.dim)
        self.inner = inner

    def eps(self, x, t):
        return self.inner.eps(x, t)

    def linearize(self, x, t):
        return self.eps(x, t), lambda cot: self.inner.input_vjp(x, t, cot)


class NanAt(TwoPassModel):
    """eps turns to `value` (NaN, or a finite value whose square overflows)
    at one timestep."""

    def __init__(self, inner, t_bad, value=np.nan):
        super().__init__(inner)
        self.t_bad, self.value = t_bad, value

    def eps(self, x, t):
        out = self.inner.eps(x, t)
        return np.full_like(out, self.value) if t == self.t_bad else out


@pytest.mark.parametrize("sg", ["none", "sg_first", "sg_second"])
def test_two_pass_linearize_gives_same_samples(sg, ring_model20, mlp20, sched20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=3, s_fraction=0.6, sg_mode=sg, mc_samples=2)
    for model in (ring_model20, mlp20):
        fast, fast_trace = guided_sample(model, cfg, chains=5, seed=1, trace=True)
        slow, slow_trace = guided_sample(
            TwoPassModel(model), cfg, chains=5, seed=1, trace=True
        )
        np.testing.assert_array_equal(fast, slow)
        assert len(fast_trace) == len(guided_steps(sched20.T, 3))
        assert fast_trace == slow_trace


@pytest.mark.parametrize("t_bad", [20, 9, 6, 1])
def test_non_finite_state_raises_with_timestep(t_bad, ring_model20):
    # t = 9 and t = 6 are guided steps (n = 3), t = 20 and t = 1 are not
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=3, s_fraction=0.6)
    with pytest.raises(NumericDegeneracyError, match=f"t = {t_bad}$"):
        guided_sample(NanAt(ring_model20, t_bad), cfg, chains=3, seed=0)


@pytest.mark.parametrize("t_bad", [20, 9, 1])
def test_state_with_overflowing_squared_norm_raises_with_timestep(t_bad, ring_model20):
    # a state of about 1e200 is finite, but its squared norm is not
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=3, s_fraction=0.6)
    with pytest.raises(NumericDegeneracyError, match=f"squared norm at t = {t_bad}$"):
        guided_sample(NanAt(ring_model20, t_bad, 1e200), cfg, chains=3, seed=0)


def test_trace_rows_hold_python_scalars(ring_model20):
    cfg = GuidanceConfig(w=0.5, schedule_mode="fixed", n=5, s_fraction=0.6)
    _, trace = guided_sample(ring_model20, cfg, chains=3, seed=0, trace=True)
    assert trace
    for t, w_t, *cells in trace:
        # every cell is written with repr, which round-trips a Python float
        assert (type(t), type(w_t)) == (int, float)
        assert [type(v) for v in cells] == [float] * 18


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 2, 7, 19, 20, 23]),  # T = 20: 1, 2, a prime, T - 1, T, > T
    n=st.sampled_from([1, 3]),
    m=st.sampled_from([1, 2]),
    mode=st.sampled_from(["fixed", "switch_off", "variance"]),
    kind=st.sampled_from(["self", "naive"]),
    w=st.sampled_from([0.0, 0.5]),
)
def test_window_size_leaves_samples_and_trace_unchanged(ring_model20, width, n, m, mode, kind, w):
    # switch_off at t_mid = 8 skips the guidance rows of t < 8
    cfg = GuidanceConfig(w=w, schedule_mode=mode, t_mid=8, n=n, s_fraction=0.6, mc_samples=m, kind=kind)
    runs = []
    for min_rows in (width, 10**6):  # the second is one window per tape
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampler, "WINDOW_BYTES", 0)
            mp.setattr(sampler, "WINDOW_MIN_ROWS", min_rows)
            runs.append(guided_sample(ring_model20, cfg, chains=3, seed=11, trace=True))
    (x, trace), (whole_x, whole_trace) = runs
    assert x.tobytes() == whole_x.tobytes()
    assert len(trace) == len(whole_trace)
    assert np.array_equal(np.array(trace), np.array(whole_trace), equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(
    chains=st.integers(1, 5),
    rows=st.integers(1, 12),
    shape=st.one_of(st.tuples(st.integers(1, 3)), st.tuples(st.integers(1, 3), st.integers(1, 3))),
    min_rows=st.integers(1, 13),  # up to past every tape's rows: one window
    seed=st.integers(0, 2**32),
    k=st.sampled_from([0, 1]),
)
def test_tape_rows_match_one_draw_and_are_taken_in_order(chains, rows, shape, min_rows, seed, k):
    # chain c's part of row j is row j of one draw of chain c's whole tape.
    # Rows are views into one reused window of `width` rows, so taking the
    # first row of a window draws it over the rows taken before.
    whole = np.stack([stream(seed, c, k).standard_normal((rows, *shape)) for c in range(chains)], axis=-2)
    width = min(rows, min_rows)
    taken = []
    # the generator sizes its window when the first row is taken, so every
    # row is taken inside the patch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "WINDOW_BYTES", 0)
        mp.setattr(sampler, "WINDOW_MIN_ROWS", min_rows)
        tape = sampler._tape(seed, k, chains, rows, shape)
        for j in range(rows):
            taken.append(next(tape))
            start = j - j % width  # the window row j was drawn in
            n = min(width, rows - start)
            for i, row in enumerate(taken):
                p = i % width  # its place in the window
                if p < n:  # drawn over by the window of row j, or in it
                    assert np.array_equal(row, whole[start + p])
        assert next(tape, None) is None  # it stopped after the last row


def test_tape_memory_stays_under_the_whole_tapes():
    # 256 KB rows, so 32-row windows of 8 MB per tape; the generators kept
    # for the run add about 4 MiB. Guidance runs at t >= 170, so its tape
    # holds 31 rows; the bound is a third of two whole 200-row tapes.
    sched = build_schedule("cosine", 200)
    chains, dim = 2000, 16
    gauss = GmmSpec(weights=np.array([1.0]), means=np.zeros((1, dim)), variances=np.array([1.0]))
    cfg = GuidanceConfig(w=0.2, schedule_mode="switch_off", t_mid=170, n=1, s_fraction=0.5)
    whole = 2 * chains * sched.T * dim * 8  # transition and guidance tapes, drawn whole
    tracemalloc.start()
    try:
        guided_sample(GmmScoreModel(gauss, sched), cfg, chains=chains, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 3, f"peak {peak / 2**20:.1f} MiB, whole tapes {whole / 2**20:.1f} MiB"
