"""Flat key = value experiment configuration.

The config file is plain text, one `key = value` per line, `#` comments;
a key set on two lines is an error. Every run writes back its fully resolved
config, and re-running from that file reproduces the run exactly. The
guidance.* defaults are sampler.GuidanceConfig's. Every command checks the
whole config as a sampling config, guidance plan included, so train and
verify at a schedule.timesteps below guidance.interval need guidance.w = 0.
Every integer key but run.seed, and every integer flag of the cli, is at
most 2**31 - 1. Keys:

  benchmark                 gmm8-ring | gmm2-imbalanced | inline
  gmm.weights               comma-separated (inline benchmark only)
  gmm.means                 rows separated by ';', coords by ',' (inline only)
  gmm.variances             comma-separated (inline only); every number in
                            the gmm.* keys must be finite
  schedule.kind             linear | cosine
  schedule.timesteps        positive integer; linear needs at least 21
  schedule.respace          0 (off) or target step count
  model.kind                analytic | mlp
  model.checkpoint          path (mlp only)
  guidance.kind             self | naive
  guidance.w                float, finite and >= 0
  guidance.schedule         fixed | switch_off | variance
  guidance.t_mid            integer in 0..T, 0 = unset; switch_off needs 1..T
  guidance.interval         intermittent rate n; with guidance.w > 0, at
                            least one guided step must have a nonzero weight
  guidance.s_fraction       float in (0, 1)
  guidance.sg               none | sg_first | sg_second
  guidance.normalize        true | false; each guided step is l-inf normalized
  guidance.mc_samples       positive integer
  run.chains                positive integer
  run.seed                  non-negative integer
  run.trace                 true | false
  eval.knn_k                positive integer
  eval.lof_k                positive integer
  eval.reference            real | generated | pooled
  eval.reference_size       non-negative integer; used by real and pooled
  eval.metric_t_fraction    float in (0, 1); timestep for the per-sample metric
  eval.metric_mc            positive integer; MC draws for the per-sample metric
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .gmm import GmmSpec, benchmark
from .sampler import GuidanceConfig, guidance_plan
from .schedule import NoiseSchedule, build_schedule, respace


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str = "gmm8-ring"
    gmm_weights: str = ""
    gmm_means: str = ""
    gmm_variances: str = ""
    schedule_kind: str = "cosine"
    schedule_timesteps: int = 250
    schedule_respace: int = 0
    model_kind: str = "analytic"
    model_checkpoint: str = ""
    guidance_kind: str = GuidanceConfig.kind
    guidance_w: float = GuidanceConfig.w
    guidance_schedule: str = GuidanceConfig.schedule_mode
    guidance_t_mid: int = GuidanceConfig.t_mid
    guidance_interval: int = GuidanceConfig.n
    guidance_s_fraction: float = GuidanceConfig.s_fraction
    guidance_sg: str = GuidanceConfig.sg_mode
    guidance_normalize: bool = GuidanceConfig.normalize_linf
    guidance_mc_samples: int = GuidanceConfig.mc_samples
    run_chains: int = 1000
    run_seed: int = 0
    run_trace: bool = False
    eval_knn_k: int = 5
    eval_lof_k: int = 20
    eval_reference: str = "pooled"
    eval_reference_size: int = 4000
    eval_metric_t_fraction: float = 0.5
    eval_metric_mc: int = 1

    # ---- realized objects -------------------------------------------------

    def gmm_spec(self) -> GmmSpec:
        if self.benchmark != "inline":
            return benchmark(self.benchmark)
        key = "gmm.weights"  # the key being parsed, for the error message
        try:
            w = np.array([float(v) for v in self.gmm_weights.split(",")])
            key = "gmm.means"
            means = np.array(
                [[float(v) for v in row.split(",")] for row in self.gmm_means.split(";")]
            )
            key = "gmm.variances"
            var = np.array([float(v) for v in self.gmm_variances.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{key} is malformed: {exc}") from exc
        return GmmSpec(weights=w, means=means, variances=var)

    def noise_schedule(self) -> NoiseSchedule:
        sched = build_schedule(self.schedule_kind, self.schedule_timesteps)
        if self.schedule_respace:
            sched = respace(sched, self.schedule_respace)
        return sched

    def guidance_config(self) -> GuidanceConfig:
        return GuidanceConfig(
            w=self.guidance_w,
            schedule_mode=self.guidance_schedule,
            t_mid=self.guidance_t_mid,
            n=self.guidance_interval,
            s_fraction=self.guidance_s_fraction,
            sg_mode=self.guidance_sg,
            normalize_linf=self.guidance_normalize,
            mc_samples=self.guidance_mc_samples,
            kind=self.guidance_kind,
        )

    # ---- flat text form ---------------------------------------------------

    def to_text(self) -> str:
        return "".join(f"{key} = {_FIELD_CODECS[name][1](getattr(self, name))}\n" for name, key in _KEYMAP)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        values, lines = {}, {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _KEY_TO_FIELD:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
            if key in lines:
                raise ConfigError(f"line {lineno}: {key} is already set on line {lines[key]}")
            values[key], lines[key] = val, lineno
        return cls().with_overrides(values)

    def with_overrides(self, values: dict) -> "ExperimentConfig":
        """Apply string-valued overrides, each named by its config key."""
        coerced = {}
        for key, val in values.items():
            if key not in _KEY_TO_FIELD:
                raise ConfigError(f"unknown config key {key!r}")
            name = _KEY_TO_FIELD[key]
            parse, _, expected = _FIELD_CODECS[name]
            try:
                coerced[name] = parse(val)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{key} expects {expected}, got {val!r}") from exc
        return replace(self, **coerced)

    def __post_init__(self) -> None:
        for name, key in _KEYMAP:
            value = getattr(self, name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{key} must be a finite number, got {value}")
            if isinstance(value, int) and value > INT_BOUND and key != "run.seed":
                raise ConfigError(f"{key} must be <= {INT_BOUND}, got {value}")
        for key, choices in (("model.kind", ("analytic", "mlp")),
                             ("eval.reference", ("real", "generated", "pooled"))):
            value = getattr(self, _KEY_TO_FIELD[key])
            if value not in choices:
                raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        for key, least in (("run.chains", 1), ("run.seed", 0), ("eval.knn_k", 1), ("eval.lof_k", 1),
                           ("eval.metric_mc", 1), ("eval.reference_size", 0)):
            value = getattr(self, _KEY_TO_FIELD[key])
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        if not (0.0 < self.eval_metric_t_fraction < 1.0):
            raise ConfigError(f"eval.metric_t_fraction must lie in (0, 1), got {self.eval_metric_t_fraction}")
        self.gmm_spec()
        sched = self.noise_schedule()
        if not 0 <= self.guidance_t_mid <= sched.T:
            raise ConfigError(f"guidance.t_mid must lie in 0..T = 0..{sched.T}, got {self.guidance_t_mid}")
        # the plan evaluates every guided step's weight, so a switch_off
        # t_mid of 0 fails here rather than in the sampler
        if not guidance_plan(self.guidance_config(), sched) and self.guidance_w > 0:
            raise ConfigError(
                f"guidance.w = {self.guidance_w} > 0, but guidance.interval = {self.guidance_interval} "
                f"and guidance.t_mid = {self.guidance_t_mid} leave no step in 1..T = 1..{sched.T} "
                "with a nonzero guidance weight"
            )

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


# each key is its field name with the first "_" read as "."; a field's type is
# its default's, and per type _TYPE_CODECS holds how a value is read, how
# to_text writes it, and what a value that does not read was expected to be
_KEYMAP = [(f.name, f.name.replace("_", ".", 1)) for f in fields(ExperimentConfig)]
_KEY_TO_FIELD = {key: name for name, key in _KEYMAP}
_TYPE_CODECS = {bool: (lambda val: {"true": True, "false": False}[str(val).lower()],
                       lambda val: "true" if val else "false", "true/false"),
                int: (int, str, "an integer"), float: (float, repr, "a number"), str: (str, str, "a string")}
_FIELD_CODECS = {f.name: _TYPE_CODECS[type(f.default)] for f in fields(ExperimentConfig)}
INT_BOUND = 2**31 - 1  # a larger integer sizes an array numpy cannot make, or a loop without end
