"""Command-line interface.

Subcommands: train, sample, eval, verify, recipe. Exit codes: 0 on success,
2 for configuration errors and running out of memory, 3 for I/O /
checkpoint errors, 4 for numeric degeneracy, 5 for training divergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .checkpoint import atomic_write, save_checkpoint
from .config import _KEYMAP, INT_BOUND, ExperimentConfig
from .errors import (
    CheckpointError,
    ConfigError,
    NumericDegeneracyError,
    TrainingDivergenceError,
)
from .evaluation import verify_prop1
from .harness import RECIPES, evaluate, evaluation_summary, read_samples, run_experiment
from .harness import score_model, to_json
from .minority import tweedie
from .models import MlpEpsModel, TrainOptions, train_dsm
from .sampler import stream
from .schedule import perturb

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_TRAINING = 5


def _load_config(args, base: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    """`base`, or the --config file when given, with --set/--seed/--chains applied."""
    for flag in ("steps", "batch_size", "train_size", "mc"):
        if (value := getattr(args, flag, 0)) > INT_BOUND:
            raise ConfigError(f"--{flag.replace('_', '-')} must be <= {INT_BOUND}, got {value}")
    cfg = base
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"cannot read config {args.config}: {exc}") from exc
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if getattr(args, "chains", None) is not None:
        overrides["run.chains"] = str(args.chains)
    return cfg.with_overrides(overrides)


def _emit(obj, path=None) -> None:
    """Write obj as JSON to the file `path`, or to stdout."""
    if path:
        atomic_write(path, to_json(obj))
    else:
        sys.stdout.write(to_json(obj))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a flat key = value config file")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minority-diffusion",
        description="Self-guided minority sampling on Gaussian-mixture benchmarks.",
        epilog="Config keys (usable in a config file or with --set KEY=VALUE): "
        + ", ".join(key for _, key in _KEYMAP)
        + ". See the minority_diffusion.config docstring for value ranges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit the MLP noise predictor by denoising score matching")
    _add_common(p)
    p.set_defaults(run=_cmd_train)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--steps", type=int, default=TrainOptions.steps)
    p.add_argument("--batch-size", type=int, default=TrainOptions.batch_size)
    p.add_argument("--lr", type=float, default=TrainOptions.lr)
    p.add_argument("--train-size", type=int, default=20000)

    p = sub.add_parser("sample", help="run the (guided) sampler and evaluation")
    _add_common(p)
    p.set_defaults(run=_cmd_sample)
    p.add_argument("--chains", type=int, help="override run.chains")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="recompute metrics for a samples.csv file")
    _add_common(p)
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--samples", required=True, help="samples.csv from a previous run")
    p.add_argument("--out", help="where to write the metrics JSON (default stdout)")

    p = sub.add_parser("verify", help="numeric check of the metric/ELBO identity")
    _add_common(p)
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--mode", choices=["prop1", "corollary1"], default="prop1")
    p.add_argument("--mc", type=int, default=4)
    p.add_argument("--out", help="where to write the report JSON (default stdout)")

    p = sub.add_parser("recipe", help="run a named experiment recipe")
    _add_common(p)
    p.set_defaults(run=_cmd_recipe)
    p.add_argument("--recipe", required=True, choices=sorted(RECIPES))
    p.add_argument("--chains", type=int, help="override run.chains")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    opts = TrainOptions(steps=args.steps, batch_size=args.batch_size, lr=args.lr)
    if args.train_size < 1:
        raise ConfigError(f"--train-size must be >= 1, got {args.train_size}")
    spec = cfg.gmm_spec()
    rng = stream(cfg.run_seed, 11, 2)
    data = spec.sample(args.train_size, rng)
    model = MlpEpsModel(cfg.noise_schedule(), dim=spec.dim, seed=cfg.run_seed)
    history = train_dsm(model, data, model.sched, opts, rng)
    save_checkpoint(model, args.out)
    print(f"trained {args.steps} steps, final loss {history[-1]:.6f}, saved {args.out}")
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg, args.out)
    _emit(report.summary())
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    samples = read_samples(args.samples, cfg.gmm_spec().dim)
    out = evaluation_summary(cfg, *evaluate(cfg, samples))
    _emit({**out, "count": int(samples.shape[0])}, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    if args.mc < 1:
        raise ConfigError(f"--mc must be >= 1, got {args.mc}")
    model = score_model(cfg)
    rng = stream(cfg.run_seed, 13, 2)
    x0 = cfg.gmm_spec().sample(1, rng)[0]
    if args.mode == "corollary1":  # the Tweedie surrogate of a noisy latent stands in for x0
        t = max(model.sched.T // 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = tweedie(perturb(x0, t, rng.standard_normal(x0.shape), model.sched), t, model)
    report = verify_prop1(x0, model, rng, m=args.mc)
    _emit({"mode": args.mode, **report}, args.out)
    return 0


def _cmd_recipe(args) -> int:
    recipe, base = RECIPES[args.recipe]
    _emit(recipe(args.out, _load_config(args, base)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericDegeneracyError as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except MemoryError as exc:  # a config value or an argument sizes every large allocation
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
