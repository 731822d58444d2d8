"""Diffusion noise schedules and the forward perturbation kernel.

Timesteps are 1-indexed: t runs over 1..T, with alpha_bar(T) ~ 0 so the
terminal latent is (close to) standard normal. The reverse-process variance
is fixed to beta_t.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

COSINE_OFFSET = 0.008  # the cosine schedule's s (Nichol & Dhariwal 2021)


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta / alpha_bar bookkeeping for a discrete diffusion process."""

    kind: str
    T: int
    betas: np.ndarray  # (T,), betas[t-1] is beta_t
    alpha_cum: np.ndarray  # (T,), alpha_cum[t-1] = prod_{u<=t} (1 - beta_u)

    def __post_init__(self):
        for arr in (self.betas, self.alpha_cum):
            arr.setflags(write=False)

    def _check_t(self, t) -> None:
        if isinstance(t, (int, np.integer)):  # the sampler's per-step calls
            ok = 1 <= t <= self.T
        else:
            t = np.asarray(t)
            ok = t.dtype.kind in "iu" and (t.size == 0 or 1 <= t.min() and t.max() <= self.T)
        if not ok:
            raise ValueError(f"timestep {t} out of range 1..{self.T}")

    def beta(self, t):
        """beta_t; t may be a scalar or integer array."""
        self._check_t(t)
        return self.betas[np.asarray(t) - 1]

    def alpha_bar(self, t):
        """Cumulative product prod_{u<=t}(1 - beta_u)."""
        self._check_t(t)
        return self.alpha_cum[np.asarray(t) - 1]

    def step_at(self, fraction: float) -> int:
        """The timestep nearest fraction * T, clamped to 1..T."""
        return int(min(max(round(fraction * self.T), 1), self.T))

    def fingerprint(self) -> str:
        """Hex digest identifying this schedule; stored in checkpoints."""
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(str(self.T).encode())
        h.update(np.ascontiguousarray(self.betas, dtype="<f8").tobytes())
        return h.hexdigest()


def build_schedule(kind: str, T: int) -> NoiseSchedule:
    """Construct a linear or cosine noise schedule with T steps.

    The linear kind runs from DDPM's 1e-4 to 0.02 (Ho et al. 2020), which
    are defined for 1000 steps, scaled by 1000/T so that alpha_bar(T) stays
    near zero for short schedules; its betas lie in [0.1/T, 20/T], below 1
    only for T >= 21. The cosine kind uses the offset COSINE_OFFSET and
    clips its betas at 0.999. Either way every beta lies in (0, 1) and
    alpha_bar strictly decreases, so the result needs no check.
    """
    if T < 1:
        raise ConfigError(f"schedule.timesteps must be >= 1, got {T}")
    if kind == "linear":
        if T <= 20:
            raise ConfigError(f"schedule.kind = linear needs schedule.timesteps >= 21, got {T}")
        betas = np.linspace(1e-4 * 1000 / T, 0.02 * 1000 / T, T)
    elif kind == "cosine":
        f = np.cos(((np.arange(T + 1) / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * np.pi / 2.0) ** 2
        abar = f / f[0]
        betas = np.clip(1.0 - abar[1:] / abar[:-1], 0.0, 0.999)
    else:
        raise ConfigError(f"schedule.kind must be linear or cosine, got {kind!r}")
    return NoiseSchedule(kind=kind, T=T, betas=betas, alpha_cum=np.cumprod(1.0 - betas))


def perturb(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """One-shot forward perturbation sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, float)
    eps = np.asarray(eps, float)
    if x0.shape[-1] != eps.shape[-1]:
        raise ValueError("x0 and eps dimensionality mismatch")
    ab = sched.alpha_bar(t)
    ab = np.asarray(ab)[..., None] if np.ndim(ab) else ab
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def respace(sched: NoiseSchedule, steps: int) -> NoiseSchedule:
    """Uniform-stride subsequence of a schedule.

    Keeps alpha_bar at timesteps stride, 2*stride, ..., T and rebuilds the
    betas so the shorter chain has the same marginals at those points.
    T must be divisible by steps.
    """
    if steps < 1 or sched.T % steps != 0:
        raise ConfigError(f"schedule.respace must be a positive divisor of T = {sched.T}, got {steps}")
    stride = sched.T // steps
    picked = sched.alpha_cum[stride - 1 :: stride]
    prev = np.concatenate([[1.0], picked[:-1]])
    betas = 1.0 - picked / prev
    return NoiseSchedule(kind=sched.kind, T=steps, betas=betas, alpha_cum=picked.copy())
