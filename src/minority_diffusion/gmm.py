"""Isotropic Gaussian mixtures with exact densities at every noise level.

Under the forward kernel, a mixture component N(mu, s2 I) becomes
N(sqrt(abar_t) mu, (abar_t s2 + 1 - abar_t) I), so the perturbed density,
its score and its Hessian stay in closed form.

Layout: the kernels take rows of shape (..., D) and hold the N rows on
the contiguous axis: x as (D, N), the differences x - mu_k (formed
explicitly, no ||x||^2 - 2 x.mu + ||mu||^2 expansion) and the component
scores as (D, K, N), the responsibilities as (K, N). D and K are small,
so every elementwise op and every `np.einsum` reduction over D or K runs
inner loops of length N rather than of length D.

A chain's result must not depend on the batch it is sampled in, so a row
comes out bit-identical however many rows come with it and however they
are laid out in memory:
  * transposed inputs (x, the means, the vector of a Hessian product) are
    copied to C order: reducing over D of a strided transpose can make
    einsum pick another loop order, which rounds differently;
  * a lone row is evaluated as a pair: a (K, 1) column is contiguous,
    and numpy sums it pairwise instead of term by term as for N >= 2;
  * no `matmul` runs on the batch axis: BLAS may round a row differently
    depending on how many rows come with it.
Results come back as C-ordered (..., D) arrays.
"""

from __future__ import annotations

import math
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
            raise ConfigError("gmm.weights, gmm.means and gmm.variances give inconsistent component shapes")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w <= 0):
            raise ConfigError("gmm.weights must be positive and sum to 1")
        if np.any(v <= 0):
            raise ConfigError("gmm.variances must be positive")
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


def _columns(x, dim: int) -> np.ndarray:
    """The rows of x (..., dim) as a C-ordered (dim, N) array, N >= 2: a
    lone row is doubled, so it reduces as it would in any batch. Rows of
    another width raise ValueError."""
    x = np.asarray(x, float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"rows of shape {x.shape} for a {dim}-D mixture")
    rows = x.reshape(-1, dim)
    if rows.shape[0] == 1:
        rows = np.concatenate([rows, rows])
    return np.ascontiguousarray(rows.T)


def _rows(cols: np.ndarray, shape) -> np.ndarray:
    """Inverse of `_columns`: (dim, N) columns back to C-ordered rows of `shape`."""
    return np.ascontiguousarray(cols.T[: math.prod(shape[:-1])]).reshape(shape)


def _component_logpdfs(cols, means, variances):
    """(logn, diff): the (K, N) component log-densities at the (D, N) columns
    and the (D, K, N) differences x - mu_k they are computed from."""
    d = cols.shape[0]
    diff = cols[:, None, :] - np.ascontiguousarray(means.T)[:, :, None]
    sq = np.einsum("dkn,dkn->kn", diff, diff)
    const = 0.5 * d * np.log(2.0 * np.pi * variances)
    return -0.5 * sq / variances[:, None] - const[:, None], diff


def log_density(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """Exact log-density of the clean (t=None) or perturbed mixture, via log-sum-exp."""
    x = np.asarray(x, float)
    means, variances = perturbed_params(spec, t, sched)
    logn, _ = _component_logpdfs(_columns(x, spec.dim), means, variances)
    out = logsumexp(np.log(spec.weights)[:, None] + logn, axis=0)
    return out[: math.prod(x.shape[:-1])].reshape(x.shape[:-1])


def score_and_hvp(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """(s, hvp): the mixture score s at x and u -> H(x) @ u, where H is the
    Hessian of the mixture log-density.

    The responsibilities and component scores are computed once and shared
    by both. H = sum_k r_k (g_k g_k^T - I / v_k) - s s^T with component
    scores g_k; only the matrix-vector product is formed.
    """
    x = np.asarray(x, float)
    means, variances = perturbed_params(spec, t, sched)
    logn, diff = _component_logpdfs(_columns(x, spec.dim), means, variances)
    # softmax over K, in scipy.special.softmax's operation order
    a = np.log(spec.weights)[:, None] + logn
    e = np.exp(a - a.max(axis=0))
    resp = e / e.sum(axis=0)
    # (D, K, N) per-component score diff / -v_k (bitwise -(diff / v_k)), in
    # diff's buffer: a fresh array this size can cost more in page faults
    # than the arithmetic
    g = np.divide(diff, -variances[:, None], out=diff)
    s = np.einsum("kn,dkn->dn", resp, g)

    def hvp(u):
        uc = _columns(u, spec.dim)
        gu = np.einsum("dkn,dn->kn", g, uc)
        term = np.einsum("kn,dkn->dn", resp * gu, g)
        term -= np.einsum("kn,k->n", resp, 1.0 / variances) * uc
        term -= s * np.einsum("dn,dn->n", s, uc)
        return _rows(term, x.shape)

    return _rows(s, x.shape), hvp


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
    raise ConfigError(f"benchmark must be one of gmm8-ring, gmm2-imbalanced, inline, got {name!r}")
