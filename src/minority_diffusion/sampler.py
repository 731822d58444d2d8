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
    t_mid: int = 0  # 0 = unset
    n: int = 5
    s_fraction: float = 0.8
    sg_mode: str = "sg_second"
    normalize_linf: bool = True
    mc_samples: int = 1
    kind: str = "self"

    def __post_init__(self):
        if not 0.0 <= self.w < np.inf:  # False for nan too
            raise ConfigError(f"guidance.w must be finite and >= 0, got {self.w}")
        for key, value, choices in (("guidance.schedule", self.schedule_mode, SCHEDULE_MODES),
                                    ("guidance.sg", self.sg_mode, SG_MODES),
                                    ("guidance.kind", self.kind, GUIDANCE_KINDS)):
            if value not in choices:
                raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        if self.n < 1:
            raise ConfigError(f"guidance.interval must be >= 1, got {self.n}")
        if not (0.0 < self.s_fraction < 1.0):
            raise ConfigError(f"guidance.s_fraction must lie in (0, 1), got {self.s_fraction}")
        if self.mc_samples < 1:
            raise ConfigError(f"guidance.mc_samples must be >= 1, got {self.mc_samples}")


def stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream of `key` in the run of `seed`: a generator seeded
    with SeedSequence([seed, *key]). Every stream of a run is keyed here:

      key           stream                            drawn by
      (c, 0)        chain c's transition noise        guided_sample
      (c, 1)        chain c's guidance noise          guided_sample
      (2**32 - 1,)  per-sample metric noise           harness.run_experiment
      (2**32 - 2,)  real reference points             evaluation.reference_set
      (7, 2)        naive-contrast data               harness.recipe_naive_contrast
      (11, 2)       training data and minibatches     cli train
      (13, 2)       verify draws                      cli verify

    SeedSequence pads entropy shorter than four words with zero words, so
    keys that differ only in trailing zeros are one stream: (7,) is chain
    7's transition noise (7, 0). A two-word key whose last word is 2 or
    more equals no chain's key. One stream is drawn outside this table:
    MlpEpsModel(seed=s) initialises its weights from default_rng(s), which
    is the stream of key (0, 0), chain 0's transition noise of run seed s.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def weight(t: int, cfg: GuidanceConfig, sched: NoiseSchedule) -> float:
    """Guidance strength w_t under the configured time schedule."""
    if cfg.schedule_mode == "fixed":
        return cfg.w
    if cfg.schedule_mode == "switch_off":
        if not 1 <= cfg.t_mid <= sched.T:
            raise ConfigError(f"switch_off needs guidance.t_mid in 1..T = 1..{sched.T}, got {cfg.t_mid}")
        return cfg.w if t >= cfg.t_mid else 0.0
    return cfg.w * float(sched.beta(t))


def _normalize_linf(g: np.ndarray) -> np.ndarray:
    norms = np.max(np.abs(g), axis=-1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return g / safe


def guidance(x_t: np.ndarray, t: int, cfg: GuidanceConfig, model: ScoreModel, eps: np.ndarray | None = None):
    """(g, metric): the guided step's direction at (x_t, t) and, per row,
    the inference metric, for either cfg.kind; cfg.normalize_linf scales
    g to unit l-infinity norm for both.

    Under "naive", g = -score(x_t, t), descent on the perturbed log
    density, and the metric is NaN; cfg.sg_mode, cfg.s_fraction,
    cfg.mc_samples and `eps` are not used.

    Under "self", g is the gradient of the inference-time metric w.r.t.
    x_t under cfg.sg_mode. sg_second holds the second denoised estimate
    constant (single backward pass), sg_first holds the first, and "none"
    differentiates both; the three satisfy guidance(none) =
    guidance(sg_first) + guidance(sg_second) for shared noise. `eps`, of
    shape (cfg.mc_samples,) + x_t.shape, pins the metric's noise draws;
    the metric is inference_metric of x_t with the same draws. x0_hat and
    the final pullback come from one linearize_tweedie at (x_t, t); the
    round trip from x0_hat at s supplies the metric and its cotangent.
    """
    if cfg.kind == "naive":
        g, metric = -model.score(x_t, t), np.full(x_t.shape[:-1], np.nan)
    else:
        if np.shape(eps)[:1] != (cfg.mc_samples,):
            raise ValueError(f"fixed noise shape mismatch: {np.shape(eps)} for mc_samples = {cfg.mc_samples}")
        x0_hat, pull_t = linearize_tweedie(x_t, t, model)
        draws, cot = round_trip(x0_hat, model.sched.step_at(cfg.s_fraction), model, eps, cfg.sg_mode)
        g, metric = pull_t(cot), draws.mean(axis=0)
    if cfg.normalize_linf:
        g = _normalize_linf(g)
    return g, metric


def reverse_step(x: np.ndarray, t: int, model: ScoreModel, z) -> np.ndarray:
    """One reverse-chain transition x_t -> x_{t-1} with injected noise z.

    At t = 1 the transition is its mean and z is not used.
    """
    if t < 1:
        raise ValueError(f"cannot step below t = 1 (got t = {t})")
    beta = float(model.sched.beta(t))
    mu = (x + beta * model.score(x, t)) / np.sqrt(1.0 - beta)
    return mu if t == 1 else mu + np.sqrt(beta) * z


def guided_steps(T: int, n: int) -> list[int]:
    """Timesteps (descending) at which intermittent guidance fires."""
    return [t for t in range(T, 0, -1) if t % n == 0]


def guidance_plan(cfg: GuidanceConfig, sched: NoiseSchedule) -> dict[int, float]:
    """{t: w_t} for every step at which guidance runs: t % n == 0 and
    w_t != 0, in sampling order; empty when w = 0. guided_sample reads one
    guidance-noise tape row per plan step, in this order.

    The zero-weight steps of guided_steps are its tail (t < t_mid under
    switch_off; under variance, betas that do not decrease in t), so the
    plan is a prefix of guided_steps.
    """
    if cfg.w == 0.0:
        return {}
    return {t: w_t for t in guided_steps(sched.T, cfg.n) if (w_t := weight(t, cfg, sched)) != 0.0}


# chain quantiles of each traced quantity, next to its mean; the header
# names the columns of one guided_sample trace row
TRACE_QUANTILES = (0.0, 0.1, 0.5, 0.9, 1.0)
TRACE_HEADER = "t,weight," + ",".join(
    f"{name}_{stat}" for name in ("l2", "linf", "metric")
    for stat in ("mean", *(f"q{round(100 * q)}" for q in TRACE_QUANTILES))
)


# a noise tape is drawn WINDOW_MIN_ROWS rows at a time, or as many more as
# fit WINDOW_BYTES, and never more rows than it has
WINDOW_BYTES = 4 * 2**20
WINDOW_MIN_ROWS = 32


def _tape(rngs, rows: int, shape: tuple):
    """Yield rows 0..rows-1, in order, of one noise tape of every chain,
    drawn a window of rows at a time into one reused buffer.

    Chain c's tape is rngs[c].standard_normal((rows,) + shape); a row is
    the array of shape shape[:-1] + (chains, shape[-1]) that holds that
    row of every chain. The generator fills in C order, so the rows match
    one draw of the whole tape. A row stays valid only until the next
    window is drawn.
    """
    row_bytes = 8 * len(rngs) * int(np.prod(shape))
    width = min(rows, max(WINDOW_MIN_ROWS, WINDOW_BYTES // row_bytes))
    buf = np.empty((width, *shape[:-1], len(rngs), shape[-1]))
    for start in range(0, rows, width):
        k = min(width, rows - start)
        for c, rng in enumerate(rngs):
            buf[:k, ..., c, :] = rng.standard_normal((k, *shape))
        yield from buf[:k]


def guided_sample(
    model: ScoreModel,
    cfg: GuidanceConfig,
    chains: int,
    seed: int,
    trace: bool = False,
):
    """Run `chains` independent guided reverse chains; returns (samples, trace).

    All chains are advanced together. Each chain draws a transition-noise
    tape of T rows of model.dim values from its stream (c, 0) and, under
    self guidance, a guidance-noise tape of one (mc_samples, model.dim) row
    per guidance_plan step, in sampling order, from its stream (c, 1), so
    the batched loop matches chain-by-chain execution exactly. The tapes
    are read in order a window of steps at a time (see _tape), and the
    outputs are those of drawing them whole. Tape memory is at most two
    windows, one per tape, of WINDOW_BYTES or WINDOW_MIN_ROWS rows each,
    plus about 1 KB per stream for the generators kept for the run.

    Guidance is evaluated at the pre-transition latent at the steps of
    guidance_plan, with their weights; with w = 0 the plan is empty and the
    guidance machinery is never touched. A chain state whose squared norm
    is not finite raises NumericDegeneracyError naming the timestep.

    The trace is a list with one row per guided step, in sampling order,
    empty unless `trace` is set: (t, w_t), then the mean and the
    TRACE_QUANTILES over the chains of the guidance vector's L2 norm, of
    its L-infinity norm and of the inference metric (NaN under naive
    guidance), all Python floats.
    """
    if chains < 1:
        raise ConfigError("need at least one chain")
    T, dim = model.sched.T, model.dim
    plan = guidance_plan(cfg, model.sched)
    noise = _tape([stream(seed, c, 0) for c in range(chains)], T, (dim,))
    if plan and cfg.kind == "self":
        eps_rows = _tape([stream(seed, c, 1) for c in range(chains)], len(plan), (cfg.mc_samples, dim))

    x = next(noise).copy()
    recorded = []
    for t in range(T, 0, -1):
        w_t = plan.get(t)
        if w_t is not None:
            g_vec, metric = guidance(x, t, cfg, model, next(eps_rows) if cfg.kind == "self" else None)
        x = reverse_step(x, t, model, next(noise) if t > 1 else None)
        if w_t is not None:
            x = x + w_t * g_vec
            if trace:
                cols = np.stack([np.linalg.norm(g_vec, axis=-1), np.max(np.abs(g_vec), axis=-1), metric])
                stats = np.column_stack([cols.mean(axis=1), np.quantile(cols, TRACE_QUANTILES, axis=1).T])
                recorded.append((t, float(w_t), *stats.ravel().tolist()))
        with np.errstate(over="ignore", invalid="ignore"):
            sq_norm = np.sum(x * x, axis=-1)
        if not np.isfinite(sq_norm).all():
            raise NumericDegeneracyError(f"chain state with a non-finite squared norm at t = {t}")
    return x, recorded
