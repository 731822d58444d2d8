"""Self-guided minority sampling for diffusion models on Gaussian-mixture
benchmarks: exact and learned score models, Tweedie-based uniqueness metrics,
the guided ancestral sampler, and an evaluation/reporting harness.
"""

from .config import ExperimentConfig
from .errors import (
    CheckpointError,
    ConfigError,
    NumericDegeneracyError,
    TrainingDivergenceError,
)
from .gmm import GmmSpec, benchmark
from .harness import RECIPES, RunReport, run_experiment
from .minority import (
    inference_metric,
    linearize_tweedie,
    minority_score,
    round_trip,
    tweedie,
)
from .models import GmmScoreModel, MlpEpsModel, ScoreModel, TrainOptions, train_dsm
from .sampler import (
    GuidanceConfig,
    guidance,
    guided_sample,
    reverse_step,
    weight,
)
from .schedule import NoiseSchedule, build_schedule, perturb, respace

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ExperimentConfig",
    "GmmScoreModel",
    "GmmSpec",
    "GuidanceConfig",
    "MlpEpsModel",
    "NoiseSchedule",
    "NumericDegeneracyError",
    "RECIPES",
    "RunReport",
    "ScoreModel",
    "TrainOptions",
    "TrainingDivergenceError",
    "benchmark",
    "build_schedule",
    "guidance",
    "guided_sample",
    "inference_metric",
    "linearize_tweedie",
    "minority_score",
    "perturb",
    "respace",
    "reverse_step",
    "round_trip",
    "run_experiment",
    "train_dsm",
    "tweedie",
    "weight",
]
