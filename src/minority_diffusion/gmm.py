"""Isotropic Gaussian mixtures with exact densities at every noise level.

Under the forward kernel, a mixture component N(mu, s2 I) becomes
N(sqrt(abar_t) mu, (abar_t s2 + 1 - abar_t) I), so the perturbed density,
its score and its Hessian stay in closed form.

The kernels contract the small K and D axes with `np.einsum` over an
explicit difference x - mu_k (no ||x||^2 - 2 x.mu + ||mu||^2 expansion).
They do not use `matmul` on the batch axis: BLAS may round a row
differently depending on how many rows come with it, and a chain's result
must not depend on the batch it is sampled in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class GmmSpec:
    """Mixture of K isotropic Gaussians in D dimensions."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, D)
    variances: np.ndarray  # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        mu = np.atleast_2d(np.asarray(self.means, float))
        v = np.asarray(self.variances, float)
        if w.ndim != 1 or mu.shape[0] != w.size or v.shape != w.shape:
            raise ConfigError("inconsistent GMM component shapes")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w <= 0):
            raise ConfigError("weights must be positive and sum to 1")
        if np.any(v <= 0):
            raise ConfigError("variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", v)
        for arr in (w, mu, v):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.weights.size, size=n, p=self.weights)
        noise = rng.standard_normal((n, self.dim))
        return self.means[comp] + np.sqrt(self.variances[comp])[:, None] * noise


def perturbed_params(spec: GmmSpec, t, sched: NoiseSchedule):
    """Component means/variances of the mixture pushed through the forward kernel."""
    if t is None:
        return spec.means, spec.variances
    ab = sched.alpha_bar(t)
    return np.sqrt(ab) * spec.means, ab * spec.variances + (1.0 - ab)


def _component_logpdfs(x, means, variances):
    x = np.asarray(x, float)
    diff = x[..., None, :] - means  # (..., K, D)
    sq = np.einsum("...kd,...kd->...k", diff, diff)
    d = means.shape[-1]
    return -0.5 * sq / variances - 0.5 * d * np.log(2.0 * np.pi * variances), diff


def log_density(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """Exact log-density of the clean (t=None) or perturbed mixture, via log-sum-exp."""
    means, variances = perturbed_params(spec, t, sched)
    logn, _ = _component_logpdfs(x, means, variances)
    return logsumexp(np.log(spec.weights) + logn, axis=-1)


def score_and_hvp(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """(s, hvp): the mixture score s at x and u -> H(x) @ u, where H is the
    Hessian of the mixture log-density.

    The responsibilities and component scores are computed once and shared
    by both. H = sum_k r_k (g_k g_k^T - I / v_k) - s s^T with component
    scores g_k; only the matrix-vector product is formed.
    """
    means, variances = perturbed_params(spec, t, sched)
    logn, diff = _component_logpdfs(x, means, variances)
    # softmax over K, in scipy.special.softmax's operation order
    a = np.log(spec.weights) + logn
    e = np.exp(a - np.max(a, axis=-1, keepdims=True))
    resp = e / np.sum(e, axis=-1, keepdims=True)
    # (..., K, D) per-component score -diff / v_k, in diff's buffer: a fresh
    # array this size can cost more in page faults than the arithmetic
    g = np.negative(np.divide(diff, variances[..., :, None], out=diff), out=diff)
    s = np.einsum("...k,...kd->...d", resp, g)

    def hvp(u):
        u = np.asarray(u, float)
        gu = np.einsum("...kd,...d->...k", g, u)
        term = np.einsum("...k,...kd->...d", resp * gu, g)
        term -= np.einsum("...k,...k->...", resp, 1.0 / variances)[..., None] * u
        term -= s * np.einsum("...d,...d->...", s, u)[..., None]
        return term

    return s, hvp


def score(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """Gradient of the mixture log-density at x (clean or perturbed)."""
    return score_and_hvp(x, spec, t, sched)[0]


def hessian_vjp(x, u, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """H(x) @ u where H is the Hessian of the mixture log-density."""
    return score_and_hvp(x, spec, t, sched)[1](u)


def benchmark(name: str) -> GmmSpec:
    """Built-in benchmark mixtures."""
    if name == "gmm8-ring":
        angles = 2.0 * np.pi * np.arange(8) / 8.0
        means = 4.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        raw = np.array([8.0, 1.0, 8.0, 1.0, 8.0, 1.0, 8.0, 1.0])
        return GmmSpec(
            weights=raw / raw.sum(), means=means, variances=np.full(8, 0.25)
        )
    if name == "gmm2-imbalanced":
        return GmmSpec(
            weights=np.array([0.95, 0.05]),
            means=np.array([[-2.0, 0.0], [2.0, 0.0]]),
            variances=np.array([0.25, 0.25]),
        )
    raise ConfigError(f"unknown benchmark {name!r}")
