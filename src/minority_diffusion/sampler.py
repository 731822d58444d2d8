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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericDegeneracyError
# perfbench/tracing.py patches sampler.tweedie, so the name stays importable
from .minority import linearize_tweedie, round_trip, tweedie  # noqa: F401
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
    normalize_linf: bool = True
    mc_samples: int = 1
    kind: str = "self"

    def __post_init__(self):
        if not 0.0 <= self.w < np.inf:  # False for nan too
            raise ConfigError(f"guidance scale w must be finite and >= 0, got {self.w}")
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


def chain_rngs(seed: int, chain: int):
    """Independent (transition-noise, guidance-noise) streams for one chain."""
    rng_z = np.random.default_rng(np.random.SeedSequence([int(seed), int(chain), 0]))
    rng_g = np.random.default_rng(np.random.SeedSequence([int(seed), int(chain), 1]))
    return rng_z, rng_g


def weight(t: int, cfg: GuidanceConfig, sched: NoiseSchedule) -> float:
    """Guidance strength w_t under the configured time schedule."""
    if cfg.schedule_mode == "fixed":
        return cfg.w
    if cfg.schedule_mode == "switch_off":
        if cfg.t_mid is None or not (1 <= cfg.t_mid <= sched.T):
            raise ConfigError(f"switch_off needs guidance.t_mid in 1..T = 1..{sched.T}, got {cfg.t_mid}")
        return cfg.w if t >= cfg.t_mid else 0.0
    return cfg.w * float(sched.beta(t))


def _normalize_linf(g: np.ndarray) -> np.ndarray:
    norms = np.max(np.abs(g), axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return g / safe


def guidance(x_t: np.ndarray, t: int, cfg: GuidanceConfig, model: ScoreModel, sched: NoiseSchedule,
             eps: np.ndarray):
    """(g, metric): gradient of the inference-time metric w.r.t. x_t under
    cfg.sg_mode, and the metric value.

    sg_second holds the second denoised estimate constant (single backward
    pass), sg_first holds the first, and "none" differentiates both; the
    three satisfy guidance(none) = guidance(sg_first) + guidance(sg_second)
    for shared noise. `eps`, of shape (cfg.mc_samples,) + x_t.shape, pins
    the metric's noise draws; the metric is inference_metric of x_t with
    the same draws.

    x0_hat and the final pullback come from one linearize_tweedie at
    (x_t, t); the round trip from x0_hat at s supplies the metric and its
    cotangent.
    """
    if np.shape(eps)[:1] != (cfg.mc_samples,):
        raise ValueError(f"fixed noise shape mismatch: {np.shape(eps)} for mc_samples = {cfg.mc_samples}")
    x0_hat, pull_t = linearize_tweedie(x_t, t, model, sched)
    draws, cot = round_trip(x0_hat, sched.step_at(cfg.s_fraction), model, sched, eps, cfg.sg_mode)
    g = pull_t(cot)
    if cfg.normalize_linf:
        g = _normalize_linf(g)
    return g, draws.mean(axis=0)


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


def reverse_step(x: np.ndarray, t: int, model: ScoreModel, sched: NoiseSchedule, z) -> np.ndarray:
    """One reverse-chain transition x_t -> x_{t-1} with injected noise z.

    At t = 1 the transition is its mean and z is not used.
    """
    if t < 1:
        raise ValueError(f"cannot step below t = 1 (got t = {t})")
    beta = float(sched.beta(t))
    mu = (x + beta * model.score(x, t)) / np.sqrt(1.0 - beta)
    return mu if t == 1 else mu + np.sqrt(beta) * z


def guided_steps(T: int, n: int) -> list[int]:
    """Timesteps (descending) at which intermittent guidance fires."""
    return [t for t in range(T, 0, -1) if t % n == 0]


def guidance_plan(cfg: GuidanceConfig, sched: NoiseSchedule) -> dict[int, tuple[int, float]]:
    """{t: (j, w_t)} for every step at which guidance runs: t % n == 0 and
    w_t != 0, in sampling order; empty when w = 0.

    j is t's row in the guidance-noise tape, which keeps one row per
    guided_steps entry, so a zero-weight step keeps its row and the draws
    of the other steps do not move.
    """
    if cfg.w == 0.0:
        return {}
    plan = {}
    for j, t in enumerate(guided_steps(sched.T, cfg.n)):
        w_t = weight(t, cfg, sched)
        if w_t != 0.0:
            plan[t] = (j, w_t)
    return plan


# chain quantiles of each traced quantity, next to its mean; the header
# names the columns of one guided_sample trace row
TRACE_QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)
TRACE_HEADER = "t,weight," + ",".join(
    f"{name}_{stat}" for name in ("l2", "linf", "metric")
    for stat in ("mean", *(f"q{round(100 * q)}" for q in TRACE_QUANTILES))
)


def guided_sample(
    model: ScoreModel,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    dim: int,
    chains: int,
    seed: int,
    trace: bool = False,
):
    """Run `chains` independent guided reverse chains; returns (samples, trace).

    All chains are advanced together (the per-chain noise tapes are drawn
    up front from per-chain streams, so the batched loop matches chain-by-chain
    execution exactly). Guidance is evaluated at the pre-transition latent
    at the steps of guidance_plan; with w = 0 the plan is empty and the
    guidance machinery is never touched. A chain state that turns
    non-finite raises NumericDegeneracyError naming the timestep.

    The trace is a list with one row per guided step, in sampling order,
    empty unless `trace` is set: (t, w_t), then the mean and the
    TRACE_QUANTILES over the chains of the guidance vector's L2 norm, of
    its L-infinity norm and of the inference metric (NaN under naive
    guidance), all Python floats.
    """
    if chains < 1:
        raise ConfigError("need at least one chain")
    T = sched.T
    plan = guidance_plan(cfg, sched)
    noise = np.empty((chains, T, dim))
    eps_tape = None
    if plan and cfg.kind == "self":
        eps_tape = np.empty((chains, T // cfg.n, cfg.mc_samples, dim))  # a row per guided_steps entry
    for c in range(chains):
        rng_z, rng_g = chain_rngs(seed, c)
        noise[c] = rng_z.standard_normal((T, dim))
        if eps_tape is not None:
            eps_tape[c] = rng_g.standard_normal(eps_tape.shape[1:])

    x = noise[:, 0, :].copy()
    recorded = []
    for t in range(T, 0, -1):
        step = plan.get(t)
        if step is not None:
            j, w_t = step
            if cfg.kind == "self":
                eps = np.moveaxis(eps_tape[:, j], 1, 0)  # (m, chains, dim)
                g_vec, metric = guidance(x, t, cfg, model, sched, eps=eps)
            else:
                g_vec = naive_density_guidance(x, t, model, sched, normalize_linf=cfg.normalize_linf)
                metric = np.full(chains, np.nan)
        x = reverse_step(x, t, model, sched, noise[:, T - t + 1] if t > 1 else None)
        if step is not None:
            x = x + w_t * g_vec
            if trace:
                cols = np.stack([np.linalg.norm(g_vec, axis=-1), np.max(np.abs(g_vec), axis=-1), metric])
                stats = np.column_stack([cols.mean(axis=1), np.quantile(cols, TRACE_QUANTILES, axis=1).T])
                recorded.append((t, float(w_t), *stats.ravel().tolist()))
        if not np.isfinite(x).all():
            raise NumericDegeneracyError(f"non-finite chain state at t = {t}")
    return x, recorded
