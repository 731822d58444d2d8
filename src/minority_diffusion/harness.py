"""Experiment driver: every run_experiment samples, evaluates and writes the
four deterministic files below; a recipe runs named overrides of a base
config, each into out_dir/<name>.

Output files per run (all written atomically):
  samples.csv       one row per chain: final coordinates, exact clean
                    log-density, uniqueness metric at the designated timestep,
                    AvgkNN, LOF
  metrics.csv       the guidance trace: one row per guided step (descending
                    t), with the mean and chain quantiles of the norms of
                    the guidance vector before the step applies
                    guidance.normalize, and of the metric; only the header
                    when run.trace = false
  summary.json      aggregate statistics plus config fingerprint and seed
  resolved-config   the fully resolved flat config; re-running from it
                    reproduces every numeric column byte-for-byte
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .checkpoint import atomic_write, load_checkpoint
from .config import ExperimentConfig
from .errors import CheckpointError, ConfigError, NumericDegeneracyError
from .evaluation import avg_knn_batch, check_reference_room, lof_batch, reference_set
# the benchmark's tracer wraps this module's log_density_gmm, so the name stays
from .gmm import log_density as log_density_gmm
from .minority import inference_metric
from .models import CallCountingModel, GmmScoreModel, ScoreModel
from .sampler import SG_MODES, TRACE_HEADER, guidance_plan, guided_sample, stream
from .schedule import perturb

# samples.csv's columns after the coordinates, each named by its RunReport field
_RESULT_COLUMNS = ("log_density", "metric", "avg_knn", "lof")


def _samples_header(dim: int) -> str:
    return ",".join(("chain", *(f"x{i}" for i in range(dim)), *_RESULT_COLUMNS))


def read_samples(path: str, dim: int) -> np.ndarray:
    """Coordinates (rows, dim) of a samples.csv as write_report writes it.

    The header must start chain,x0..x{dim-1} and name no further coordinate,
    else ConfigError; an unreadable or malformed file raises CheckpointError.
    """
    want = _samples_header(dim).split(",")[: dim + 1]
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if header[: dim + 1] != want or f"x{dim}" in header:
                raise ConfigError(
                    f"{path} does not hold {dim}-D samples: its header starts "
                    f"{','.join(header[: dim + 2])!r}, expected {','.join(want)!r}"
                )
            body = [line for line in fh.read().splitlines() if line.strip()]
        if not body:
            raise CheckpointError(f"{path} holds no sample rows")
        rows = np.loadtxt(body, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if rows.shape[1] != len(header):
        raise CheckpointError(f"{path}: rows of {rows.shape[1]} columns under a {len(header)}-column header")
    return rows[:, 1 : 1 + dim]


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    samples: np.ndarray  # (chains, dim)
    log_density: np.ndarray
    metric: np.ndarray
    avg_knn: np.ndarray
    lof: np.ndarray
    trace_rows: list  # guided_sample's trace, one metrics.csv row per entry
    forward_calls: int
    backward_calls: int
    wall_clock: float

    def summary(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.config.fingerprint(),
            "seed": self.config.run_seed,
            "chains": int(self.samples.shape[0]),
            **evaluation_summary(self.config, self.log_density, self.avg_knn, self.lof),
            "metric_mean": float(np.mean(self.metric)),
            "forward_calls": self.forward_calls,
            "backward_calls": self.backward_calls,
            "wall_clock_seconds": self.wall_clock,
        }


def _se(x: np.ndarray) -> float:
    """Standard error of the mean, computed on x divided by a power of two:
    that changes no bit of the result, and no square overflows unless it does."""
    if x.size < 2:
        return 0.0
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(x)))[1])
    return float(scale * np.std(x / scale, ddof=1) / np.sqrt(x.size))


def evaluation_summary(cfg: ExperimentConfig, log_density, avg_knn, lof) -> dict:
    """Statistics of the evaluated columns that `sample` and `eval` report. An
    overflow is not warned about: to_json reports the non-finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "log_density_mean": float(np.mean(log_density)),
            "log_density_se": _se(log_density),
            **{f"log_density_q{q}": float(np.quantile(log_density, q / 100)) for q in (10, 50, 90)},
            "avg_knn_mean": float(np.mean(avg_knn)),
            "avg_knn_se": _se(avg_knn),
            "lof_mean": float(np.mean(lof)),
            "reference_mode": cfg.eval_reference,
        }


def _non_finite_keys(obj, key=""):
    """Dotted keys (a list item's key is its index) of the NaN and infinite
    floats in obj."""
    if isinstance(obj, (dict, list, tuple)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [bad for k, v in items for bad in _non_finite_keys(v, f"{key}.{k}" if key else str(k))]
    return [key] if isinstance(obj, float) and not math.isfinite(obj) else []


def to_json(obj) -> str:
    """The JSON text of every summary this package writes or prints; a NaN
    or infinite number raises NumericDegeneracyError naming its key."""
    bad = _non_finite_keys(obj)
    if bad:
        raise NumericDegeneracyError(f"non-finite {', '.join(bad)} in the JSON output")
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def expected_call_counts(cfg: ExperimentConfig) -> tuple[int, int]:
    """(forward, backward) model invocations for one batched sampler run:
    T forwards for the chain, plus those of each step of the guidance plan."""
    sched = cfg.noise_schedule()
    gcfg = cfg.guidance_config()
    n_guided = len(guidance_plan(gcfg, sched))
    if gcfg.kind == "naive":
        return sched.T + n_guided, 0
    fwd = sched.T + n_guided * (1 + gcfg.mc_samples)
    bwd = n_guided * (1 if gcfg.sg_mode == "sg_second" else 2)
    return fwd, bwd


def score_model(cfg: ExperimentConfig) -> ScoreModel:
    """The model.kind score model of cfg, on cfg's noise schedule: the exact
    mixture score, or the model.checkpoint MLP, which must model data of
    the benchmark's dimension."""
    spec = cfg.gmm_spec()
    sched = cfg.noise_schedule()
    if cfg.model_kind != "mlp":
        return GmmScoreModel(spec, sched)
    if not cfg.model_checkpoint:
        raise ConfigError("model.kind = mlp requires model.checkpoint")
    model = load_checkpoint(cfg.model_checkpoint, sched)
    if model.dim != spec.dim:
        raise CheckpointError(
            f"checkpoint {cfg.model_checkpoint} models {model.dim}-D data, "
            f"but benchmark {cfg.benchmark} is {spec.dim}-D"
        )
    return model


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> RunReport:
    """Sample, evaluate and write one experiment; its model calls are the sampler's."""
    check_reference_room(cfg, cfg.run_chains)
    start = time.perf_counter()
    model = score_model(cfg)
    counted = CallCountingModel(model)
    sched = model.sched
    gcfg = cfg.guidance_config()

    samples, trace_rows = guided_sample(
        counted, gcfg, chains=cfg.run_chains, seed=cfg.run_seed, trace=cfg.run_trace
    )

    eval_rng = stream(cfg.run_seed, 2**32 - 1)
    t_metric = sched.step_at(cfg.eval_metric_t_fraction)
    noised = perturb(samples, t_metric, eval_rng.standard_normal(samples.shape), sched)
    eps = eval_rng.standard_normal((cfg.eval_metric_mc,) + samples.shape)
    metric = inference_metric(noised, t_metric, sched.step_at(gcfg.s_fraction), model, eps)
    log_density, knn_vals, lof_vals = evaluate(cfg, samples)

    report = RunReport(
        config=cfg,
        samples=samples,
        log_density=log_density,
        metric=metric,
        avg_knn=knn_vals,
        lof=lof_vals,
        trace_rows=trace_rows,
        forward_calls=counted.forward_calls,
        backward_calls=counted.backward_calls,
        wall_clock=time.perf_counter() - start,
    )
    write_report(report, out_dir)
    return report


def checked_log_density(cfg: ExperimentConfig, samples: np.ndarray) -> np.ndarray:
    """Exact log density of each sample under cfg's mixture; NumericDegeneracyError if not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_density = log_density_gmm(samples, cfg.gmm_spec())
    if not np.isfinite(log_density).all():
        raise NumericDegeneracyError(
            "non-finite log density: a sample is not finite, or its squared distance to a mean overflows"
        )
    return log_density


def evaluate(cfg: ExperimentConfig, samples: np.ndarray):
    """(log_density, avg_knn, lof) of each sample, against the eval.reference
    set; `sample` and `eval` both evaluate through here. A log density or
    LOF that is not finite raises NumericDegeneracyError."""
    refset, offset = reference_set(cfg, samples)
    log_density = checked_log_density(cfg, samples)
    avg_knn = avg_knn_batch(samples, refset, cfg.eval_knn_k, self_offset=offset)
    lof = lof_batch(samples, refset, cfg.eval_lof_k, self_offset=offset)
    if not np.isfinite(lof).all():
        # a point with eval.lof_k copies besides itself has infinite local density
        raise NumericDegeneracyError("infinite LOF: a sample neighbours eval.lof_k + 1 or more copies of one point")
    return log_density, avg_knn, lof


def write_report(report: RunReport, out_dir: str) -> None:
    summary = to_json(report.summary())  # a non-finite summary or trace cell writes nothing
    naive = report.config.guidance_kind == "naive"  # its trace metric is NaN by design
    for row in report.trace_rows:
        cells = zip(TRACE_HEADER.split(","), row)
        if bad := [k for k, v in cells if not (math.isfinite(v) or naive and k.startswith("metric"))]:
            raise NumericDegeneracyError(f"non-finite {', '.join(bad)} at t = {row[0]} in the guidance trace")
    try:
        os.makedirs(out_dir, exist_ok=True)
        chains, dim = report.samples.shape
        columns = [*report.samples.T.tolist(), *(getattr(report, name).tolist() for name in _RESULT_COLUMNS)]
        # floats are written as repr of Python floats (tolist), which round-trip exactly
        for name, header, rows in (("samples.csv", _samples_header(dim), zip(range(chains), *columns)),
                                   ("metrics.csv", TRACE_HEADER, report.trace_rows)):
            text = "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"
            atomic_write(os.path.join(out_dir, name), text)
        atomic_write(os.path.join(out_dir, "summary.json"), summary)
        atomic_write(os.path.join(out_dir, "resolved-config"), report.config.to_text())
    except OSError as exc:
        raise CheckpointError(f"cannot write outputs to {out_dir}: {exc}") from exc


# ---- named recipes --------------------------------------------------------

# Desk-scale settings where the guidance effect is dominated by minority-mode
# selection rather than off-support drift: a linear schedule contracts early
# displacements away, the guidance window covers only the basin-commitment
# steps, and the uniqueness metric is evaluated where roughly half the signal
# variance survives the perturbation.
_CALIBRATED_SHIFT_CONFIG = ExperimentConfig(
    run_chains=4000,
    schedule_kind="linear",
    guidance_schedule="switch_off",
    guidance_t_mid=40,
    guidance_s_fraction=0.25,
    guidance_w=0.3,
    guidance_interval=1,
)
_TABLE3A_CONFIG = ExperimentConfig(
    run_chains=4000,
    eval_reference="pooled",
    guidance_schedule="variance",
    guidance_s_fraction=0.5,
)


def _run_all(out_dir: str, base: ExperimentConfig, overrides: dict) -> dict:
    """{name: the run of base with overrides[name] into out_dir/name}, in dict order."""
    return {n: run_experiment(base.with_overrides(o), os.path.join(out_dir, n)) for n, o in overrides.items()}


def _write_summary(out_dir: str, summary: dict) -> dict:
    atomic_write(os.path.join(out_dir, "recipe-summary.json"), to_json(summary))
    return summary


def recipe_table3a_analog(out_dir: str, base: ExperimentConfig) -> dict:
    """Sweep the guidance scale and report the density/AvgkNN trend."""
    sweep = [0.0, 4.0, 8.0]
    runs = _run_all(out_dir, base, {f"w={w}": {"guidance.w": str(w)} for w in sweep})
    results = [rep.summary() for rep in runs.values()]
    means = [r["log_density_mean"] for r in results]
    knns = [r["avg_knn_mean"] for r in results]
    return _write_summary(out_dir, {
        "recipe": "table3a-analog",
        "w_values": sweep,
        "log_density_means": means,
        "log_density_ses": [r["log_density_se"] for r in results],
        "avg_knn_means": knns,
        "avg_knn_ses": [r["avg_knn_se"] for r in results],
        "log_density_strictly_decreasing": bool(all(a > b for a, b in zip(means, means[1:]))),
        "avg_knn_strictly_increasing": bool(all(a < b for a, b in zip(knns, knns[1:]))),
        "runs": results,
    })


def recipe_sg_ablation(out_dir: str, base: ExperimentConfig) -> dict:
    """Density shift per stop-gradient mode against the unguided baseline."""
    runs = _run_all(
        out_dir, base, {"baseline": {"guidance.w": "0.0"}, **{m: {"guidance.sg": m} for m in SG_MODES}}
    )
    means = {name: rep.summary()["log_density_mean"] for name, rep in runs.items()}
    base_mean = means.pop("baseline")
    shifts = {mode: base_mean - mean for mode, mean in means.items()}
    return _write_summary(out_dir, {"recipe": "sg-ablation", "baseline_log_density": base_mean, "shifts": shifts})


def recipe_naive_contrast(out_dir: str, base: ExperimentConfig) -> dict:
    """Off-support fraction of the proposed guidance vs. the naive
    log-density descent, with the naive scale calibrated to match the
    proposed sampler's mean density shift."""
    spec = base.gmm_spec()
    data = spec.sample(200_000, stream(base.run_seed, 7, 2))
    threshold = float(np.quantile(log_density_gmm(data, spec), 0.001))

    runs = _run_all(out_dir, base, {"baseline": {"guidance.w": "0.0"}, "proposed": {}})
    base_mean = runs["baseline"].summary()["log_density_mean"]
    target_shift = base_mean - runs["proposed"].summary()["log_density_mean"]

    # bisect the naive scale until its density shift matches the proposed one
    # to a relative 2%; the summary says whether the last step got there.
    # A step only samples; the last scale tried is then run in full.
    model = score_model(base)
    lo, hi = 0.0, max(4.0 * base.guidance_w, 0.5)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        naive = base.with_overrides({"guidance.kind": "naive", "guidance.w": str(mid)})
        samples, _ = guided_sample(model, naive.guidance_config(), base.run_chains, base.run_seed)
        with np.errstate(over="ignore"):  # as in evaluation_summary
            naive_shift = base_mean - float(np.mean(checked_log_density(naive, samples)))
        gap = abs(naive_shift - target_shift) / max(abs(target_shift), 1e-9)
        if gap <= 0.02:
            break
        if naive_shift < target_shift:
            lo = mid
        else:
            hi = mid
    naive_rep = run_experiment(naive, os.path.join(out_dir, "naive"))

    return _write_summary(out_dir, {
        "recipe": "naive-contrast",
        "density_threshold": threshold,
        "target_shift": target_shift,
        "naive_w": naive.guidance_w,
        "naive_shift": naive_shift,
        "relative_gap": gap,
        "converged": gap <= 0.02,
        "off_support_fraction_proposed": float(np.mean(runs["proposed"].log_density < threshold)),
        "off_support_fraction_naive": float(np.mean(naive_rep.log_density < threshold)),
    })


# name: (recipe, the base config that the cli passes it unless --config replaces it)
RECIPES = {
    "table3a-analog": (recipe_table3a_analog, _TABLE3A_CONFIG),
    "sg-ablation": (recipe_sg_ablation, _CALIBRATED_SHIFT_CONFIG),
    "naive-contrast": (recipe_naive_contrast, _CALIBRATED_SHIFT_CONFIG),
}
