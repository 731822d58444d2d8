"""Ancestral and self-guided sampling.

The guided sampler follows the reverse chain and, once every n steps, nudges
the proposed state with the gradient of the inference-time uniqueness metric
evaluated at the pre-transition latent. Stop-gradient modes control which
branch of the metric is differentiated; the raw gradient is optionally
normalized to unit l-infinity norm before the schedule weight is applied.

Per-chain randomness comes from two independent streams derived from
(seed, chain index), so results do not depend on execution order and the
w = 0 sampler is bit-identical to plain ancestral sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericDegeneracyError
# perfbench/tracing.py patches sampler.tweedie, so the name stays importable
from .minority import DistanceSpec, tweedie, tweedie_from_eps  # noqa: F401
from .models import ScoreModel
from .schedule import NoiseSchedule

SG_MODES = ("none", "sg_first", "sg_second")
SCHEDULE_MODES = ("fixed", "switch_off", "variance")
GUIDANCE_KINDS = ("self", "naive")


@dataclass(frozen=True)
class GuidanceConfig:
    w: float = 0.2
    schedule_mode: str = "variance"
    t_mid: Optional[int] = None
    n: int = 5
    s_fraction: float = 0.8
    sg_mode: str = "sg_second"
    distance: DistanceSpec = field(default_factory=DistanceSpec)
    normalize_linf: bool = True
    mc_samples: int = 1
    kind: str = "self"

    def __post_init__(self):
        if self.w < 0:
            raise ConfigError("guidance scale w must be non-negative")
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ConfigError(f"unknown schedule_mode {self.schedule_mode!r}")
        if self.sg_mode not in SG_MODES:
            raise ConfigError(f"unknown sg_mode {self.sg_mode!r}")
        if self.kind not in GUIDANCE_KINDS:
            raise ConfigError(f"unknown guidance kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError("intermittent rate n must be >= 1")
        if not (0.0 < self.s_fraction < 1.0):
            raise ConfigError("s_fraction must lie in (0, 1)")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1")


@dataclass
class ChainState:
    x: np.ndarray
    t: int
    rng: np.random.Generator
    trace: list = field(default_factory=list)


def chain_rngs(seed: int, chain: int):
    """Independent (transition-noise, guidance-noise) streams for one chain."""
    rng_z = np.random.default_rng(np.random.SeedSequence([int(seed), int(chain), 0]))
    rng_g = np.random.default_rng(np.random.SeedSequence([int(seed), int(chain), 1]))
    return rng_z, rng_g


def resolve_s(cfg: GuidanceConfig, sched: NoiseSchedule) -> int:
    """Perturbation timestep: s_fraction * T rounded to the nearest valid step."""
    return int(min(max(round(cfg.s_fraction * sched.T), 1), sched.T))


def weight(t: int, cfg: GuidanceConfig, sched: NoiseSchedule) -> float:
    """Guidance strength w_t under the configured time schedule."""
    if cfg.schedule_mode == "fixed":
        return cfg.w
    if cfg.schedule_mode == "switch_off":
        if cfg.t_mid is None or not (1 <= cfg.t_mid <= sched.T):
            raise ConfigError("switch_off schedule requires t_mid in 1..T")
        return cfg.w if t >= cfg.t_mid else 0.0
    return cfg.w * float(sched.rvar(t))


def _normalize_linf(g: np.ndarray) -> np.ndarray:
    norms = np.max(np.abs(g), axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return g / safe


def guidance(
    x_t: np.ndarray,
    t: int,
    cfg: GuidanceConfig,
    model: ScoreModel,
    sched: NoiseSchedule,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
    return_metric: bool = False,
):
    """Gradient of the inference-time metric w.r.t. x_t under cfg.sg_mode.

    sg_second holds the second denoised estimate constant (single backward
    pass), sg_first holds the first, and "none" differentiates both; the
    three satisfy guidance(none) = guidance(sg_first) + guidance(sg_second)
    for shared noise. Supply `eps` (shape (m, ..., D) or (..., D)) to pin the
    metric's noise draws.

    Both Tweedie maps, at (x_t, t) and (xs, s), come from model.linearize,
    so each forward pass and its pullback share one evaluation of the
    model; a pullback is called only for a branch that is differentiated.
    """
    x_t = np.asarray(x_t, float)
    s = resolve_s(cfg, sched)
    a_t = float(sched.alpha_bar(t))
    a_s = float(sched.alpha_bar(s))
    c_t, c_s = np.sqrt(1.0 - a_t), np.sqrt(1.0 - a_s)
    m = cfg.mc_samples
    if eps is not None:
        eps = np.asarray(eps, float)
        if eps.shape == x_t.shape:
            eps = eps[None]
    else:
        if rng is None:
            raise ValueError("guidance requires an rng when eps is not pinned")
        eps = rng.standard_normal((m,) + x_t.shape)

    eps_t, pullback_t = model.linearize(x_t, t)
    x0_hat = tweedie_from_eps(x_t, t, eps_t, sched)
    cot = np.zeros_like(x0_hat)
    metric = np.zeros(x_t.shape[:-1])
    for j in range(m):
        xs = np.sqrt(a_s) * x0_hat + c_s * eps[j]
        eps_s, pullback_s = model.linearize(xs, s)  # pullback_s unused under sg_second
        x0_hh = tweedie_from_eps(xs, s, eps_s, sched)
        metric = metric + cfg.distance.value(x0_hat, x0_hh)
        grad_a, grad_b = cfg.distance.grads(x0_hat, x0_hh)
        if cfg.sg_mode in ("none", "sg_first"):
            # pull grad_b back through the second Tweedie map and the re-noising
            u = (grad_b - c_s * pullback_s(grad_b)) / np.sqrt(a_s)
            cot = cot + np.sqrt(a_s) * u
        if cfg.sg_mode in ("none", "sg_second"):
            cot = cot + grad_a
    cot /= m
    metric = metric / m
    g = (cot - c_t * pullback_t(cot)) / np.sqrt(a_t)
    if cfg.normalize_linf:
        g = _normalize_linf(g)
    if return_metric:
        return g, metric
    return g


def naive_density_guidance(
    x_t: np.ndarray,
    t: int,
    model: ScoreModel,
    sched: NoiseSchedule,
    normalize_linf: bool = True,
) -> np.ndarray:
    """Descent direction on the perturbed log-density: -score(x_t, t)."""
    g = -model.score(x_t, t)
    if normalize_linf:
        g = _normalize_linf(g)
    return g


def ancestral_step(state: ChainState, model: ScoreModel, sched: NoiseSchedule) -> ChainState:
    """One reverse-chain transition; the injected noise is zero at t = 1."""
    t = state.t
    if t < 1:
        raise ValueError(f"cannot step below t = 1 (got t = {t})")
    beta = float(sched.beta(t))
    mu = (state.x + beta * model.score(state.x, t)) / np.sqrt(1.0 - beta)
    if t > 1:
        z = state.rng.standard_normal(state.x.shape)
        x_new = mu + np.sqrt(float(sched.rvar(t))) * z
    else:
        x_new = mu
    return ChainState(x=x_new, t=t - 1, rng=state.rng, trace=state.trace)


def guided_steps(T: int, n: int) -> list[int]:
    """Timesteps (descending) at which intermittent guidance fires."""
    return [t for t in range(T, 0, -1) if t % n == 0]


def guided_sample(
    model: ScoreModel,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    dim: int,
    chains: int,
    seed: int,
    trace: bool = False,
):
    """Run `chains` independent guided reverse chains; returns (samples, trace rows).

    All chains are advanced together (the per-chain noise tapes are drawn
    up front from per-chain streams, so the batched loop matches chain-by-chain
    execution exactly). Guidance is evaluated at the pre-transition latent
    whenever t % n == 0 and the schedule weight is nonzero; with w = 0 the
    guidance machinery is never touched. A chain state that turns
    non-finite raises NumericDegeneracyError naming the timestep.
    """
    if chains < 1:
        raise ConfigError("need at least one chain")
    T = sched.T
    g_steps = guided_steps(T, cfg.n)
    active = cfg.w > 0.0 and len(g_steps) > 0
    noise = np.empty((chains, T, dim))
    eps_tape = None
    if active and cfg.kind == "self":
        eps_tape = np.empty((chains, len(g_steps), cfg.mc_samples, dim))
    for c in range(chains):
        rng_z, rng_g = chain_rngs(seed, c)
        noise[c] = rng_z.standard_normal((T, dim))
        if eps_tape is not None:
            eps_tape[c] = rng_g.standard_normal((len(g_steps), cfg.mc_samples, dim))

    x = noise[:, 0, :].copy()
    zi = 1
    gi = 0
    rows = []
    for t in range(T, 0, -1):
        g_vec = None
        w_t = 0.0
        if active and t % cfg.n == 0:
            w_t = weight(t, cfg, sched)
            if w_t != 0.0:
                if cfg.kind == "self":
                    eps = np.moveaxis(eps_tape[:, gi], 1, 0)  # (m, chains, dim)
                    g_vec, metric = guidance(
                        x, t, cfg, model, sched, eps=eps, return_metric=True
                    )
                else:
                    g_vec = naive_density_guidance(
                        x, t, model, sched, normalize_linf=cfg.normalize_linf
                    )
                    metric = np.full(chains, np.nan)
            if cfg.kind == "self":
                gi += 1
        beta = float(sched.beta(t))
        mu = (x + beta * model.score(x, t)) / np.sqrt(1.0 - beta)
        if t > 1:
            x = mu + np.sqrt(float(sched.rvar(t))) * noise[:, zi, :]
            zi += 1
        else:
            x = mu
        if g_vec is not None:
            x = x + w_t * g_vec
            if trace:
                l2 = np.linalg.norm(g_vec, axis=-1)
                linf = np.max(np.abs(g_vec), axis=-1)
                rows.extend(
                    zip(range(chains), repeat(t), repeat(float(w_t)), l2.tolist(), linf.tolist(), metric.tolist())
                )
        if not np.isfinite(x).all():
            raise NumericDegeneracyError(f"non-finite chain state at t = {t}")
    return x, rows
