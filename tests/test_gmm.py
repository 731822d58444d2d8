"""Gaussian-mixture unit tests.

Density values are checked against a brute-force sum of Gaussian pdfs,
and derivatives (score, Hessian product) against central finite differences
of the independently computed log-density.
"""

import math

import numpy as np
import pytest

from minority_diffusion.errors import ConfigError
from minority_diffusion.gmm import (
    GmmSpec,
    benchmark,
    hessian_vjp,
    log_density,
    perturbed_params,
    score,
    score_and_hvp,
)


def brute_log_density(x, weights, means, variances):
    x = np.asarray(x, float)
    total = 0.0
    d = means.shape[1]
    for w, mu, v in zip(weights, means, variances):
        sq = float(np.sum((x - mu) ** 2))
        total += w * np.exp(-0.5 * sq / v) / (2.0 * np.pi * v) ** (d / 2.0)
    return np.log(total)


@pytest.fixture(scope="module")
def spec3():
    return GmmSpec(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 2.0]]),
        variances=np.array([1.0, 0.5, 2.0]),
    )


def mixture(dim, k, seed):
    """k isotropic components in dim dimensions, with alternating 8:1
    weights and unequal variances."""
    rng = np.random.default_rng(seed)
    raw = np.tile([8.0, 1.0], 4)[:k]
    return GmmSpec(
        weights=raw / raw.sum(),
        means=3.0 * rng.standard_normal((k, dim)),
        variances=rng.uniform(0.25, 1.0, size=k),
    )


@pytest.fixture(scope="module")
def spec16():
    return mixture(16, 8, seed=16)


def test_log_density_matches_brute_force(spec3):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=2)
        expect = brute_log_density(x, spec3.weights, spec3.means, spec3.variances)
        assert log_density(x, spec3) == pytest.approx(expect, rel=1e-10)


def test_log_density_batched(spec3):
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(7, 2))
    batched = log_density(xs, spec3)
    for i in range(7):
        assert batched[i] == pytest.approx(float(log_density(xs[i], spec3)), rel=1e-12)


def test_score_matches_finite_differences(spec3):
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(30):
        x = rng.normal(scale=3.0, size=2)
        g = score(x, spec3)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (log_density(x + e, spec3) - log_density(x - e, spec3)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_hessian_vjp_matches_finite_differences(spec3):
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(30):
        x = rng.normal(scale=2.0, size=2)
        u = rng.normal(size=2)
        hu = hessian_vjp(x, u, spec3)
        fd = (score(x + h * u, spec3) - score(x - h * u, spec3)) / (2.0 * h)
        np.testing.assert_allclose(hu, fd, rtol=1e-4, atol=1e-7)


def test_derivatives_match_finite_differences_16d(spec16, sched20):
    # the same oracles at D = 16, K = 8 and a perturbed timestep, where every
    # contraction runs over more than two coordinates
    rng = np.random.default_rng(8)
    t, h = 7, 1e-6
    ab = float(sched20.alpha_bar(t))
    xs = np.sqrt(ab) * spec16.sample(10, rng) + np.sqrt(1.0 - ab) * rng.standard_normal((10, 16))
    for x in xs:
        g = score(x, spec16, t, sched20)
        for i in range(16):
            e = np.zeros(16)
            e[i] = h
            fd = (log_density(x + e, spec16, t, sched20) - log_density(x - e, spec16, t, sched20)) / (
                2.0 * h
            )
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        u = rng.normal(size=16)
        hu = hessian_vjp(x, u, spec16, t, sched20)
        fd = (score(x + h * u, spec16, t, sched20) - score(x - h * u, spec16, t, sched20)) / (2.0 * h)
        np.testing.assert_allclose(hu, fd, rtol=1e-4, atol=1e-6)


def loop_score_and_hvp(x, u, weights, means, variances):
    """(s, H @ u) at one point x, one component at a time, from the closed
    form H = sum_k r_k (g_k g_k^T - I / v_k) - s s^T, and the bounds
    sum_k r_k |g_k| and |H| @ |u| on the magnitude of the terms summed."""
    d = x.size
    logs = [
        math.log(w) - 0.5 * float(np.sum((x - mu) ** 2)) / v - 0.5 * d * math.log(2.0 * math.pi * v)
        for w, mu, v in zip(weights, means, variances)
    ]
    top = max(logs)
    total = sum(math.exp(a - top) for a in logs)
    s, h = np.zeros(d), np.zeros((d, d))
    s_bound, h_bound = np.zeros(d), np.zeros((d, d))
    for a, mu, v in zip(logs, means, variances):
        r = math.exp(a - top) / total
        g = -(x - mu) / v
        s += r * g
        h += r * (np.outer(g, g) - np.eye(d) / v)
        s_bound += r * np.abs(g)
        h_bound += r * (np.outer(np.abs(g), np.abs(g)) + np.eye(d) / v)
    h -= np.outer(s, s)
    h_bound += np.outer(np.abs(s), np.abs(s))
    return s, h @ u, s_bound, h_bound @ np.abs(u)


@pytest.mark.parametrize("t", [None, 7])
@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("dim", [1, 2, 16])
def test_kernel_matches_per_component_loop(dim, k, t, sched20):
    # the batched kernel against a plain loop over components, to 1e-12
    # relative to the size of the terms each entry sums (where terms cancel,
    # the entry itself can be far smaller than its rounding); the
    # finite-difference tests above resolve only about 1e-5
    spec = mixture(dim, k, seed=100 * dim + k)
    rng = np.random.default_rng(k)
    means, variances = perturbed_params(spec, t, sched20)
    xs = spec.sample(40, rng) + rng.standard_normal((40, dim))
    us = rng.normal(size=(40, dim))
    s = score(xs, spec, t, sched20)
    hu = hessian_vjp(xs, us, spec, t, sched20)
    assert s.shape == hu.shape == (40, dim)
    for x, u, s_i, hu_i in zip(xs, us, s, hu):
        want_s, want_hu, s_bound, hu_bound = loop_score_and_hvp(x, u, spec.weights, means, variances)
        assert np.all(np.abs(s_i - want_s) <= 1e-12 * s_bound)
        assert np.all(np.abs(hu_i - want_hu) <= 1e-12 * hu_bound)


def _rows_as(layout, xs):
    """xs as a C-ordered batch, a strided view, or a Fortran-ordered copy."""
    if layout == "strided":
        spread = np.zeros((2 * len(xs), xs.shape[1]))
        spread[::2] = xs
        return spread[::2]
    return np.asfortranarray(xs) if layout == "fortran" else xs


@pytest.mark.parametrize(
    "which, layout",
    [
        pytest.param(which, layout, id=which if layout == "contiguous" else f"{which}-{layout}")
        for which in ("1d", "gmm8-ring", "16d", "16d-one-component")
        for layout in ("contiguous", "strided", "fortran")
    ],
)
def test_row_matches_its_row_in_a_batch_bitwise(which, layout, spec16, sched20):
    # a chain's score and Hessian product must not depend on the batch it
    # is evaluated in, nor on the memory layout its rows come in; this is
    # what keeps sampling exact per (seed, chain). The reference is the
    # 37-row C-ordered batch; every batch below is cut from `layout` rows.
    # Eight components make the K-reductions long enough for numpy to sum
    # a contiguous run pairwise; with one component the D-reductions are
    # the only ones left.
    spec = {
        "1d": mixture(1, 8, seed=1),
        "gmm8-ring": benchmark("gmm8-ring"),
        "16d": spec16,
        "16d-one-component": mixture(16, 1, seed=17),
    }[which]
    rng = np.random.default_rng(9)
    xs = rng.normal(scale=3.0, size=(37, spec.dim))
    us = rng.normal(size=(37, spec.dim))
    xl, ul = _rows_as(layout, xs), _rows_as(layout, us)
    for t in (None, 3, 20):
        s, hvp = score_and_hvp(xs, spec, t, sched20)
        hu = hvp(us)
        ld = log_density(xs, spec, t, sched20)
        s_all, hvp_all = score_and_hvp(xl, spec, t, sched20)
        np.testing.assert_array_equal(s_all, s)
        np.testing.assert_array_equal(hvp_all(ul), hu)
        np.testing.assert_array_equal(log_density(xl, spec, t, sched20), ld)
        for i in (0, 1, 18, 36):
            s_i, hvp_i = score_and_hvp(xl[i], spec, t, sched20)
            np.testing.assert_array_equal(s_i, s[i])
            np.testing.assert_array_equal(hvp_i(ul[i]), hu[i])
            assert log_density(xl[i], spec, t, sched20) == ld[i]
            for rows in (slice(i, i + 1), slice(min(i, 35), min(i, 35) + 2)):
                s_b, hvp_b = score_and_hvp(xl[rows], spec, t, sched20)
                np.testing.assert_array_equal(s_b, s[rows])
                np.testing.assert_array_equal(hvp_b(ul[rows]), hu[rows])
                np.testing.assert_array_equal(log_density(xl[rows], spec, t, sched20), ld[rows])
        s_head, hvp_head = score_and_hvp(xl[:5], spec, t, sched20)
        np.testing.assert_array_equal(s_head, s[:5])
        np.testing.assert_array_equal(hvp_head(ul[:5]), hu[:5])


def test_perturbed_density_is_mixture_of_pushed_components(spec3, sched20):
    # under the forward kernel each component N(mu, v I) becomes
    # N(sqrt(ab) mu, (ab v + 1 - ab) I); the t-level density must equal the
    # brute-force mixture over those pushed components
    rng = np.random.default_rng(4)
    for t in (1, 10, 20):
        means, variances = perturbed_params(spec3, t, sched20)
        ab = float(sched20.alpha_bar(t))
        np.testing.assert_allclose(means, np.sqrt(ab) * spec3.means, rtol=1e-14)
        np.testing.assert_allclose(variances, ab * spec3.variances + 1.0 - ab, rtol=1e-14)
        x = rng.normal(size=2)
        expect = brute_log_density(x, spec3.weights, means, variances)
        assert log_density(x, spec3, t, sched20) == pytest.approx(expect, rel=1e-10)


def test_perturbed_density_matches_monte_carlo(spec3, sched20):
    # empirical check of the pushforward itself: perturb exact samples and
    # compare moments with the closed-form perturbed mixture
    rng = np.random.default_rng(5)
    t = 10
    x0 = spec3.sample(200_000, rng)
    ab = float(sched20.alpha_bar(t))
    xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * rng.standard_normal(x0.shape)
    means, variances = perturbed_params(spec3, t, sched20)
    want_mean = spec3.weights @ means
    want_second = float(
        spec3.weights @ (variances * 2 + np.sum(means**2, axis=1))
    )  # E||x||^2 for isotropic components in 2-d
    assert np.linalg.norm(xt.mean(axis=0) - want_mean) < 0.02
    assert np.mean(np.sum(xt**2, axis=1)) == pytest.approx(want_second, rel=0.01)


def test_sample_moments_match_mixture(spec3):
    # components overlap, so check exact mixture moments rather than
    # per-component counts
    rng = np.random.default_rng(6)
    x = spec3.sample(200_000, rng)
    want_mean = spec3.weights @ spec3.means
    want_second = float(
        spec3.weights @ (2 * spec3.variances + np.sum(spec3.means**2, axis=1))
    )
    assert np.linalg.norm(x.mean(axis=0) - want_mean) < 0.02
    assert np.mean(np.sum(x**2, axis=1)) == pytest.approx(want_second, rel=0.01)


def test_sample_component_frequencies_separated_ring():
    # the ring components are far apart relative to their spread, so a
    # nearest-mean assignment recovers the weights
    ring = benchmark("gmm8-ring")
    rng = np.random.default_rng(7)
    x = ring.sample(60_000, rng)
    d = np.linalg.norm(x[:, None, :] - ring.means[None], axis=-1)
    counts = np.bincount(np.argmin(d, axis=1), minlength=8) / x.shape[0]
    np.testing.assert_allclose(counts, ring.weights, atol=0.01)


def test_spec_validation():
    with pytest.raises(ConfigError):
        GmmSpec(weights=np.array([0.6, 0.6]), means=np.zeros((2, 2)), variances=np.ones(2))
    for variance in (-1.0, 0.0):
        with pytest.raises(ConfigError, match="gmm.variances"):
            GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([variance]))
    with pytest.raises(ConfigError):
        GmmSpec(weights=np.array([0.5, 0.5]), means=np.zeros((3, 2)), variances=np.ones(2))
    # NaN compares False both ways, so each check must fail on it
    good = {"weights": [0.5, 0.5], "means": np.zeros((2, 2)), "variances": np.ones(2)}
    for key, value in (("weights", [np.nan, np.nan]), ("weights", [np.inf, 0.5]), ("means", [[np.nan, 0.0], [1.0, 0.0]]),
                       ("means", [[np.inf, 0.0], [1.0, 0.0]]), ("variances", [np.nan, 1.0]), ("variances", [np.inf, 1.0])):
        with pytest.raises(ConfigError, match=f"gmm.{key}"):
            GmmSpec(**{**good, key: value})


def test_benchmarks():
    ring = benchmark("gmm8-ring")
    assert ring.weights.size == 8 and ring.dim == 2
    np.testing.assert_allclose(np.linalg.norm(ring.means, axis=1), 4.0, rtol=1e-12)
    # alternating majority/minority weights, 8:1
    assert ring.weights[0] == pytest.approx(8.0 * ring.weights[1])
    two = benchmark("gmm2-imbalanced")
    np.testing.assert_allclose(two.weights, [0.95, 0.05])
    with pytest.raises(ConfigError):
        benchmark("gmm3-unknown")


def test_spec_arrays_are_frozen(spec3):
    with pytest.raises(ValueError):
        spec3.weights[0] = 0.9


def test_kernel_rejects_rows_of_another_width(ring, sched20):
    # a (2, 4) array is not two 2-D rows reshaped, nor (4, 1) two of them
    with pytest.raises(ValueError, match="2-D mixture"):
        log_density(np.ones((2, 4)), ring)
    with pytest.raises(ValueError, match="2-D mixture"):
        score_and_hvp(np.ones((4, 1)), ring, 5, sched20)
    _, hvp = score_and_hvp(np.ones((4, 2)), ring, 5, sched20)
    with pytest.raises(ValueError, match="2-D mixture"):
        hvp(np.ones((2, 4)))
