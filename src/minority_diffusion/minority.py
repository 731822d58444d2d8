"""Tweedie denoising and the two uniqueness metrics.

The clean-sample metric is the expected reconstruction discrepancy between
x0 and the posterior mean of its noised version. The inference-time variant
applies the same construction to the Tweedie surrogate of a noisy latent:
denoise x_t to x0_hat, re-noise to timestep s, denoise again, and measure
the discrepancy between the two denoised estimates. Both metrics, and the
sampler's guidance gradient, are built on round_trip.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDegeneracyError
from .models import ScoreModel, eps_to_score
from .schedule import NoiseSchedule

_ALPHA_BAR_FLOOR = 1e-12


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


def round_trip(x0: np.ndarray, s, model: ScoreModel, sched: NoiseSchedule, eps: np.ndarray,
               sg_mode: str | None = None):
    """The perturb-then-denoise round trip of x0 at timestep s: (draws, cot).

    For each noise draw eps[j] (eps has shape (m, ..., D)), x0 is re-noised
    to xs = sqrt(abar_s) x0 + sqrt(1 - abar_s) eps[j], denoised again, and
    draws[j] = ||x0 - tweedie(xs, s)||^2, summed (not averaged) over D.
    Unless sg_mode is None, cot is the mean over draws of the gradient of
    that squared error with respect to x0: sg_second holds the denoised
    estimate constant, sg_first holds the first argument constant, and
    "none" differentiates both. The model is evaluated once per draw, by
    linearize; its pullback runs only under none and sg_first.
    """
    a_s = float(sched.alpha_bar(s))
    c_s = np.sqrt(1.0 - a_s)
    draws = np.empty(eps.shape[:-1])
    cot = None if sg_mode is None else np.zeros_like(x0)
    for j in range(eps.shape[0]):
        xs = np.sqrt(a_s) * x0 + c_s * eps[j]
        eps_s, pullback_s = model.linearize(xs, s)
        r = x0 - tweedie_from_eps(xs, s, eps_s, sched)
        draws[j] = np.sum(r * r, axis=-1)
        if sg_mode is None:
            continue
        if sg_mode in ("none", "sg_first"):
            # pull -2r, the gradient in the denoised estimate, back through
            # the second Tweedie map and the re-noising
            grad_b = -2.0 * r
            u = (grad_b - c_s * pullback_s(grad_b)) / np.sqrt(a_s)
            cot = cot + np.sqrt(a_s) * u
        if sg_mode in ("none", "sg_second"):
            cot = cot + 2.0 * r
    if cot is not None:
        cot /= eps.shape[0]
    return draws, cot


def minority_score(
    x0: np.ndarray,
    t,
    model: ScoreModel,
    sched: NoiseSchedule,
    m: int = 1,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """Monte-Carlo estimate of E_eps ||x0 - tweedie(perturb(x0, t, eps), t)||^2:
    a scalar, or one value per row of a batch."""
    if m < 1:
        raise ValueError("mc count must be >= 1")
    x0 = np.asarray(x0, float)
    return round_trip(x0, t, model, sched, _draws(eps, m, x0.shape, rng))[0].mean(axis=0)


def inference_metric(
    x_t: np.ndarray,
    t,
    s,
    model: ScoreModel,
    sched: NoiseSchedule,
    m: int = 1,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """Uniqueness metric of a noisy latent: minority score of its Tweedie surrogate.

    x0_hat = tweedie(x_t, t); x0_hat is re-noised to timestep s and denoised
    again, and the squared error between the two is averaged over the draws.
    """
    return minority_score(tweedie(x_t, t, model, sched), s, model, sched, m=m, rng=rng, eps=eps)
