"""Tweedie denoising and the two uniqueness metrics.

The clean-sample metric is the expected reconstruction discrepancy between
x0 and the posterior mean of its noised version. The inference-time variant
applies the same construction to the Tweedie surrogate of a noisy latent:
denoise x_t to x0_hat, re-noise to timestep s, denoise again, and measure
the discrepancy between the two denoised estimates. Both metrics, and the
sampler's guidance gradient, are built on round_trip, and every Tweedie map
with its pullback on linearize_tweedie. Callers pass the noise draws in.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericDegeneracyError
from .models import ScoreModel, eps_to_score
from .schedule import perturb

_ALPHA_BAR_FLOOR = 1e-12


def linearize_tweedie(x_t: np.ndarray, t, model: ScoreModel):
    """(x0_hat, vjp): the posterior mean x0_hat = (x_t + (1 - abar_t)
    score(x_t, t)) / sqrt(abar_t) from one model.linearize at (x_t, t), and
    its pullback vjp(c) = (c - sqrt(1 - abar_t) J_eps^T c) / sqrt(abar_t)."""
    ab = float(model.sched.alpha_bar(t))
    if ab < _ALPHA_BAR_FLOOR:
        raise NumericDegeneracyError(f"alpha_bar({t}) = {ab} too small for Tweedie denoising")
    x_t = np.asarray(x_t, float)
    eps, pullback = model.linearize(x_t, t)
    x0_hat = (x_t + (1.0 - ab) * eps_to_score(eps, ab)) / np.sqrt(ab)
    return x0_hat, lambda c: (c - np.sqrt(1.0 - ab) * pullback(c)) / np.sqrt(ab)


def tweedie(x_t: np.ndarray, t, model: ScoreModel) -> np.ndarray:
    """Posterior mean (x_t + (1 - abar_t) score(x_t, t)) / sqrt(abar_t)."""
    return linearize_tweedie(x_t, t, model)[0]


def round_trip(x0: np.ndarray, s, model: ScoreModel, eps: np.ndarray, sg_mode: str | None = None):
    """The perturb-then-denoise round trip of x0 at timestep s: (draws, cot).

    For each noise draw eps[j] (eps has shape (m,) + x0.shape, m >= 1, else
    ValueError), x0 is re-noised to xs = perturb(x0, s, eps[j]), denoised
    again, and draws[j] = ||x0 - tweedie(xs, s)||^2, summed (not averaged)
    over D. Unless sg_mode is None, cot is the mean over draws of the
    gradient of that squared error with respect to x0: sg_second holds the
    denoised estimate constant, sg_first holds the first argument constant,
    and "none" differentiates both. The model is evaluated once per draw, by
    linearize_tweedie; its pullback runs only under none and sg_first.
    """
    x0 = np.asarray(x0, float)
    eps = np.asarray(eps, float)
    if eps.ndim != x0.ndim + 1 or eps.shape[0] == 0 or eps.shape[1:] != x0.shape:
        raise ValueError(f"noise draws of shape {eps.shape} do not fit (m,) + {x0.shape}, m >= 1")
    sqrt_a_s = np.sqrt(float(model.sched.alpha_bar(s)))
    draws = np.empty(eps.shape[:-1])
    cot = None if sg_mode is None else np.zeros_like(x0)
    for j in range(eps.shape[0]):
        x0_s, pull_s = linearize_tweedie(perturb(x0, s, eps[j], model.sched), s, model)
        r = x0 - x0_s
        draws[j] = np.sum(r * r, axis=-1)
        if sg_mode is None:
            continue
        if sg_mode in ("none", "sg_first"):
            # pull -2r, the gradient in the denoised estimate, back through
            # the second Tweedie map and the re-noising
            cot = cot + sqrt_a_s * pull_s(-2.0 * r)
        if sg_mode in ("none", "sg_second"):
            cot = cot + 2.0 * r
    if cot is not None:
        cot /= eps.shape[0]
    return draws, cot


def minority_score(x0: np.ndarray, t, model: ScoreModel, eps: np.ndarray) -> np.ndarray:
    """Monte-Carlo estimate of E_eps ||x0 - tweedie(perturb(x0, t, eps), t)||^2
    over the draws eps, of shape (m,) + x0.shape: a scalar, or one value per
    row of a batch."""
    return round_trip(x0, t, model, eps)[0].mean(axis=0)


def inference_metric(x_t: np.ndarray, t, s, model: ScoreModel, eps: np.ndarray) -> np.ndarray:
    """Uniqueness metric of a noisy latent: minority score of its Tweedie surrogate.

    x0_hat = tweedie(x_t, t); x0_hat is re-noised to timestep s with each
    draw of eps (shape (m,) + x_t.shape) and denoised again, and the squared
    error between the two is averaged over the draws.
    """
    return minority_score(tweedie(x_t, t, model), s, model, eps)
