"""Tweedie denoising and the two uniqueness metrics.

The clean-sample metric is the expected reconstruction discrepancy between
x0 and the posterior mean of its noised version. The inference-time variant
applies the same construction to the Tweedie surrogate of a noisy latent:
denoise x_t to x0_hat, re-noise to timestep s, denoise again, and measure
the discrepancy between the two denoised estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericDegeneracyError
from .models import ScoreModel, eps_to_score
from .schedule import NoiseSchedule, perturb

_ALPHA_BAR_FLOOR = 1e-12


@dataclass(frozen=True)
class DistanceSpec:
    """Discrepancy measure: squared error, optionally in a fixed feature space.

    For kind="feature_map", `feature` maps data vectors to feature vectors and
    `feature_vjp(x, cotangent)` pulls a feature-space cotangent back to data
    space; both are needed when the distance is differentiated.
    """

    kind: str = "squared_error"
    feature: Optional[Callable[[np.ndarray], np.ndarray]] = None
    feature_vjp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("squared_error", "feature_map"):
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == "feature_map" and self.feature is None:
            raise ValueError("feature_map distance requires a feature callable")

    def value(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind == "feature_map":
            a, b = self.feature(a), self.feature(b)
        diff = a - b
        return np.sum(diff * diff, axis=-1)

    def grads(self, a: np.ndarray, b: np.ndarray):
        """(dd/da, dd/db) of the scalar distance."""
        if self.kind == "feature_map":
            r = self.feature(a) - self.feature(b)
            return self.feature_vjp(a, 2.0 * r), self.feature_vjp(b, -2.0 * r)
        r = a - b
        return 2.0 * r, -2.0 * r


SQUARED_ERROR = DistanceSpec()


def linear_feature_distance(matrix: np.ndarray) -> DistanceSpec:
    """Squared error after a fixed linear feature map x -> x @ matrix."""
    matrix = np.asarray(matrix, float)
    return DistanceSpec(
        kind="feature_map",
        feature=lambda x: x @ matrix,
        feature_vjp=lambda x, cot: cot @ matrix.T,
    )


@dataclass(frozen=True)
class MetricEval:
    """A Monte-Carlo metric value plus its per-draw samples."""

    value: np.ndarray  # scalar or (batch,)
    timestep: int
    mc_samples: int
    draws: np.ndarray  # (mc_samples,) or (mc_samples, batch)

    def std_error(self):
        if self.mc_samples < 2:
            return np.full_like(np.asarray(self.value, float), np.nan)
        return np.std(self.draws, axis=0, ddof=1) / np.sqrt(self.mc_samples)


def tweedie(x_t: np.ndarray, t, model: ScoreModel, sched: NoiseSchedule) -> np.ndarray:
    """Posterior mean (x_t + (1 - abar_t) score(x_t, t)) / sqrt(abar_t)."""
    return tweedie_from_eps(x_t, t, model.eps(x_t, t), sched)


def tweedie_from_eps(x_t: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """tweedie() given eps(x_t, t) already evaluated, e.g. by model.linearize."""
    ab = float(sched.alpha_bar(t))
    if ab < _ALPHA_BAR_FLOOR:
        raise NumericDegeneracyError(f"alpha_bar({t}) = {ab} too small for Tweedie denoising")
    x_t = np.asarray(x_t, float)
    return (x_t + (1.0 - ab) * eps_to_score(eps, ab)) / np.sqrt(ab)


def _draws(eps, m, shape, rng):
    if eps is not None:
        eps = np.asarray(eps, float)
        if eps.shape == shape:
            eps = eps[None]
        if eps.shape != (m,) + shape:
            raise ValueError("fixed noise shape mismatch")
        return eps
    if rng is None:
        raise ValueError("either fixed noise or an rng is required")
    return rng.standard_normal((m,) + shape)


def minority_score(
    x0: np.ndarray,
    t,
    model: ScoreModel,
    sched: NoiseSchedule,
    d: DistanceSpec = SQUARED_ERROR,
    m: int = 1,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> MetricEval:
    """Monte-Carlo estimate of E_eps d(x0, tweedie(perturb(x0, t, eps), t))."""
    if m < 1:
        raise ValueError("mc count must be >= 1")
    x0 = np.asarray(x0, float)
    noise = _draws(eps, m, x0.shape, rng)
    vals = []
    for j in range(m):
        xt = perturb(x0, t, noise[j], sched)
        vals.append(d.value(x0, tweedie(xt, t, model, sched)))
    draws = np.stack(vals)
    return MetricEval(value=draws.mean(axis=0), timestep=int(t), mc_samples=m, draws=draws)


def inference_metric(
    x_t: np.ndarray,
    t,
    s,
    model: ScoreModel,
    sched: NoiseSchedule,
    d: DistanceSpec = SQUARED_ERROR,
    m: int = 1,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> MetricEval:
    """Uniqueness metric of a noisy latent: minority score of its Tweedie surrogate.

    x0_hat = tweedie(x_t, t); x0_hat is re-noised to timestep s and denoised
    again, and d(x0_hat, second denoising) is averaged over the noise draws.
    """
    x0_hat = tweedie(x_t, t, model, sched)
    ev = minority_score(x0_hat, s, model, sched, d=d, m=m, rng=rng, eps=eps)
    return MetricEval(value=ev.value, timestep=int(s), mc_samples=m, draws=ev.draws)
