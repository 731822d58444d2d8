"""Noise-schedule unit tests.

The alpha_bar oracle is an independent brute-force product; the cosine
schedule is additionally checked against its defining closed form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minority_diffusion.errors import ConfigError
from minority_diffusion.schedule import NoiseSchedule, build_schedule, perturb, respace


def brute_alpha_bar(betas, t):
    out = 1.0
    for u in range(t):
        out *= 1.0 - betas[u]
    return out


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_alpha_bar_matches_brute_product(kind):
    sched = build_schedule(kind, 40)
    for t in range(1, 41):
        assert sched.alpha_bar(t) == pytest.approx(brute_alpha_bar(sched.betas, t), rel=1e-12)


@pytest.mark.parametrize("kind", ["linear", "cosine"])
def test_betas_valid_and_alpha_bar_decreasing(kind):
    # build_schedule checks neither: this holds for every length it accepts,
    # linear T >= 21 and cosine T >= 1
    for T in [*range(21 if kind == "linear" else 1, 61), 250, 1000, 10**5]:
        sched = build_schedule(kind, T)
        assert np.all(sched.betas > 0.0) and np.all(sched.betas < 1.0), T
        assert np.all(np.diff(sched.alpha_cum, prepend=1.0) < 0.0), T
        # terminal latent must be essentially pure noise; the cosine clip at
        # 0.999 bounds it even at T = 1
        assert sched.alpha_bar(T) <= 1.0 - 0.999, T


def test_cosine_closed_form():
    T, s0 = 32, 0.008
    sched = build_schedule("cosine", T)

    def f(u):
        return np.cos(((u / T + s0) / (1.0 + s0)) * np.pi / 2.0) ** 2

    # the closed form holds exactly until the beta clip (at 0.999) engages
    # near the terminal step
    clipped = np.flatnonzero(sched.betas >= 0.999)
    first_clip = int(clipped[0]) + 1 if clipped.size else T + 1
    assert first_clip > T // 2
    for t in range(1, first_clip):
        assert sched.alpha_bar(t) == pytest.approx(f(t) / f(0), rel=1e-12)


def test_linear_default_range_scales_with_T():
    # the DDPM (1e-4, 0.02) range is defined for 1000 steps; shorter chains
    # scale it up so the same total noise is injected
    sched = build_schedule("linear", 100)
    assert sched.betas[0] == pytest.approx(1e-4 * 10)
    assert sched.betas[-1] == pytest.approx(0.02 * 10)


def test_one_indexing_and_range_checks(sched20):
    assert sched20.beta(1) == sched20.betas[0]
    assert sched20.beta(20) == sched20.betas[19]
    np.testing.assert_array_equal(sched20.beta([1, 20]), sched20.betas[[0, 19]])
    for bad in (0, 21, -3):
        with pytest.raises(ValueError):
            sched20.alpha_bar(bad)
    # numpy integer scalars take the same scalar check as Python ints
    for bad in (np.int64(0), np.int64(21), np.int32(-3)):
        with pytest.raises(ValueError):
            sched20.alpha_bar(bad)
        with pytest.raises(ValueError):
            sched20.beta(bad)
    assert sched20.alpha_bar(np.int64(1)) == sched20.alpha_bar(1) == sched20.alpha_cum[0]
    assert sched20.beta(np.int64(20)) == sched20.beta(20) == sched20.betas[19]
    # one bad entry rejects the whole array
    for bad in ([1, 5, 21], np.array([0, 3]), np.array([[2], [21]])):
        with pytest.raises(ValueError):
            sched20.alpha_bar(bad)


@given(
    x0=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    eps=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    t=st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_perturb_closed_form(sched20, x0, eps, t):
    x0 = np.array(x0)
    eps = np.array(eps)
    ab = float(sched20.alpha_bar(t))
    expect = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps
    np.testing.assert_allclose(perturb(x0, t, eps, sched20), expect, rtol=0, atol=1e-14)


def test_perturb_vector_timesteps(sched20):
    x0 = np.arange(6.0).reshape(3, 2)
    eps = np.ones((3, 2))
    t = np.array([1, 10, 20])
    out = perturb(x0, t, eps, sched20)
    for i, ti in enumerate(t):
        np.testing.assert_allclose(out[i], perturb(x0[i], int(ti), eps[i], sched20))


def test_perturb_shape_mismatch(sched20):
    with pytest.raises(ValueError):
        perturb(np.zeros(3), 1, np.zeros(4), sched20)


def test_fingerprint_distinguishes_schedules():
    a = build_schedule("linear", 100)
    b = build_schedule("linear", 100)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != build_schedule("cosine", 100).fingerprint()
    assert a.fingerprint() != build_schedule("linear", 101).fingerprint()
    steeper = np.linspace(a.betas[0], 0.3, 100)
    assert a.fingerprint() != NoiseSchedule("linear", 100, steeper, np.cumprod(1.0 - steeper)).fingerprint()


def test_respace_preserves_marginals():
    sched = build_schedule("cosine", 100)
    short = respace(sched, 20)
    assert short.T == 20
    # alpha_bar at the kept points is untouched
    for j in range(1, 21):
        assert short.alpha_bar(j) == pytest.approx(sched.alpha_bar(5 * j), rel=1e-12)
    # betas rebuild the same cumulative products
    np.testing.assert_allclose(np.cumprod(1.0 - short.betas), short.alpha_cum, rtol=1e-12)


def test_respace_requires_divisibility():
    sched = build_schedule("cosine", 100)
    with pytest.raises(ConfigError):
        respace(sched, 33)
    with pytest.raises(ConfigError):
        respace(sched, 0)


def test_build_schedule_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        build_schedule("quadratic", 10)
    with pytest.raises(ConfigError):
        build_schedule("linear", 0)
    # the scaled DDPM range ends at beta = 20/T, which is 1 at T = 20
    with pytest.raises(ConfigError, match="schedule.timesteps >= 21, got 20"):
        build_schedule("linear", 20)
