"""The benchmark's workloads: each builds its experiment config from the
workload seed and pays its set-up (input generation, MLP training) here,
before the first timed run.

Sizes are smaller than the headline configs they come from (4000 chains),
so that many runs of every workload fit the benchmark's time budget; the
share of each run spent in each layer stays close to the full-size config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from minority_diffusion import models
from minority_diffusion.checkpoint import save_checkpoint
from minority_diffusion.config import ExperimentConfig


@dataclass(frozen=True)
class Sizes:
    chains: int
    reference: int  # eval.reference_size
    train_steps: int = 0
    train_points: int = 0


FULL = {
    "calibrated": Sizes(chains=500, reference=2500),
    "mlp-guided": Sizes(chains=600, reference=1000, train_steps=3000, train_points=20_000),
    "traced-16d": Sizes(chains=500, reference=1000),
}
SMOKE = Sizes(chains=8, reference=64, train_steps=20, train_points=500)


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def calibrated(seed: int, size: Sizes, work: str) -> ExperimentConfig:
    # the recipe base config (harness._CALIBRATED_SHIFT_CONFIG), spelled out
    # so that a change to the recipes does not move the workload
    return ExperimentConfig(
        run_chains=size.chains,
        run_seed=seed,
        schedule_kind="linear",
        guidance_schedule="switch_off",
        guidance_t_mid=40,
        guidance_s_fraction=0.25,
        guidance_w=0.3,
        guidance_interval=1,
        eval_reference="pooled",
        eval_reference_size=size.reference,
    )


def mlp_guided(seed: int, size: Sizes, work: str) -> ExperimentConfig:
    cfg = ExperimentConfig(
        model_kind="mlp",
        model_checkpoint=os.path.join(work, "mlp.ckpt"),
        guidance_interval=1,
        run_chains=size.chains,
        run_seed=seed,
        eval_reference="real",
        eval_reference_size=size.reference,
    )
    sched = cfg.noise_schedule()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    data = cfg.gmm_spec().sample(size.train_points, rng)
    model = models.MlpEpsModel(sched, dim=data.shape[1], seed=seed)
    # looked up on the module so that a traced set-up records it
    models.train_dsm(model, data, sched, models.TrainOptions(steps=size.train_steps), rng)
    save_checkpoint(model, cfg.model_checkpoint)
    return cfg


def traced_16d(seed: int, size: Sizes, work: str) -> ExperimentConfig:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    means = 3.0 * rng.standard_normal((8, 16))
    raw = np.tile([8.0, 1.0], 4)
    return ExperimentConfig(
        benchmark="inline",
        gmm_weights=_floats(raw / raw.sum()),
        gmm_means=";".join(_floats(row) for row in means),
        gmm_variances=_floats(np.full(8, 0.25)),
        guidance_interval=1,
        run_trace=True,
        run_chains=size.chains,
        run_seed=seed,
        eval_reference="real",
        eval_reference_size=size.reference,
    )


SETUP = {"calibrated": calibrated, "mlp-guided": mlp_guided, "traced-16d": traced_16d}


def setup(name: str, seed: int, work: str, smoke: bool = False) -> ExperimentConfig:
    """Build workload `name` for `seed`; files it needs go under `work`."""
    size = SMOKE if smoke else FULL[name]
    return SETUP[name](seed, size, work)
