"""Measurement loop, correctness gate and metric assembly for run.py."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy

from minority_diffusion import harness, sampler
from minority_diffusion.config import ExperimentConfig

import oracle
import tracing
import workloads

OUT = ".perfbench"  # under the checkout root, which run.py makes the working directory
SETUP_REPS = 3
COLD_RUNS = 4  # first runs, each in a fresh process
COLD_TIMEOUT_S = 120
MIN_WARM_RUNS = 2
ORACLE_CHAINS = 32

# per-layer metric -> (span name, field of Tracer.summary)
LAYER_SPANS = {
    "evaluation.avg_knn_batch_s": ("evaluation.avg_knn_batch", "busy"),
    "evaluation.lof_batch_s": ("evaluation.lof_batch", "busy"),
    "evaluation.log_density_gmm_s": ("evaluation.log_density_gmm", "busy"),
    "gmm.score_s": ("gmm.score", "busy"),
    "gmm.score_calls": ("gmm.score", "calls"),
    "gmm.hessian_vjp_s": ("gmm.hessian_vjp", "busy"),
    "gmm.hessian_vjp_calls": ("gmm.hessian_vjp", "calls"),
    "models.mlp_eps_s": ("models.mlp_eps", "busy"),
    "models.mlp_eps_calls": ("models.mlp_eps", "calls"),
    "models.mlp_input_vjp_s": ("models.mlp_input_vjp", "busy"),
    "models.mlp_input_vjp_calls": ("models.mlp_input_vjp", "calls"),
    "minority.tweedie_calls": ("minority.tweedie", "calls"),
    "minority.inference_metric_s": ("minority.inference_metric", "busy"),
    "sampler.guided_sample_s": ("sampler.guided_sample", "busy"),
    "sampler.guidance_s": ("sampler.guidance", "busy"),
    "sampler.guidance_calls": ("sampler.guidance", "calls"),
    "sampler.self_s": ("sampler.guided_sample", "self"),
    "harness.write_report_s": ("harness.write_report", "busy"),
    "harness.run_experiment_s": ("harness.run_experiment", "busy"),
    "harness.run_experiment_self_s": ("harness.run_experiment", "self"),
    "checkpoint.load_checkpoint_s": ("checkpoint.load_checkpoint", "busy"),
}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_rate", "_coverage")):
        return "ratio"
    return "count"


def _reference_rows(cfg) -> int:
    return {
        "real": cfg.eval_reference_size,
        "generated": cfg.run_chains,
        "pooled": cfg.run_chains + cfg.eval_reference_size,
    }[cfg.eval_reference]


def contract_call_counts(cfg) -> tuple[int, int]:
    """(forward, backward) model calls of one sampler run, as guided_sample
    documents them: T forwards for the chain, plus m + 1 forwards and one
    (sg_second) or two backwards at every step t % n == 0 whose schedule
    weight is nonzero. harness.expected_call_counts also counts the
    zero-weight steps, so it is wrong for the switch_off schedule."""
    sched, gcfg = cfg.noise_schedule(), cfg.guidance_config()
    steps = sampler.guided_steps(sched.T, gcfg.n) if gcfg.w > 0 else []
    n_guided = sum(1 for t in steps if sampler.weight(t, gcfg, sched) != 0.0)
    if gcfg.kind == "naive":
        return sched.T + n_guided, 0
    return sched.T + n_guided * (1 + gcfg.mc_samples), n_guided * (1 if gcfg.sg_mode == "sg_second" else 2)


class Runner:
    """Runs one workload's experiments back to back and gates every run.

    Gate: model call counts equal ``contract_call_counts``; every
    artifact value is finite; avg_knn and LOF of a seed-chosen subsample of
    chains match the brute-force oracle; ``samples.csv`` is byte-identical
    to the first run's; the computed counts are the same in every run.
    """

    def __init__(self, cfg, work: str, seed: int):
        self.cfg = cfg
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict | None = None
        self._samples_csv: bytes | None = None
        self._calls: dict = {}
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        self._rows = np.sort(
            rng.choice(cfg.run_chains, size=min(ORACLE_CHAINS, cfg.run_chains), replace=False)
        )

    @contextmanager
    def capturing(self):
        """Keep the arguments of the harness's kNN and LOF calls for the oracle."""
        originals = {name: getattr(harness, name) for name in ("avg_knn_batch", "lof_batch")}

        def capture(name, fn):
            def call(queries, refset, k, self_offset=None):
                self._calls[name] = (queries, refset, k, self_offset)
                return fn(queries, refset, k, self_offset=self_offset)

            return call

        try:
            for name, fn in originals.items():
                setattr(harness, name, capture(name, fn))
            yield
        finally:
            for name, fn in originals.items():
                setattr(harness, name, fn)

    def run(self, tracer: tracing.Tracer | None = None) -> tuple[str, float | None]:
        """One gated run_experiment: (run label, wall clock or None if it raised)."""
        label = f"run-{self.attempted}"
        self.attempted += 1
        out = os.path.join(self.work, label)
        wall = None
        try:
            with tracer.patched(label) if tracer else nullcontext():
                start = time.perf_counter()
                report = harness.run_experiment(self.cfg, out)
                wall = time.perf_counter() - start
            problems = self._check(report, out)
        except Exception:  # a run that raises is a failed run; the loop goes on
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return label, wall

    def samples_digest(self) -> str | None:
        """sha256 of the first run's samples.csv."""
        return hashlib.sha256(self._samples_csv).hexdigest() if self._samples_csv else None

    def merge_cold(self, label: str, cold: dict) -> None:
        """Count a cold run made by another process and gate it against this one's runs."""
        self.attempted += 1
        problems = list(cold["failures"])
        if cold.get("counts") != self.counts:
            problems.append(f"computed counts {cold.get('counts')} differ from {self.counts}")
        if cold.get("samples_sha256") != self.samples_digest():
            problems.append("samples.csv differs from the in-process runs'")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def _check(self, report, out: str) -> list[str]:
        cfg = self.cfg
        problems = []
        calls = (report.forward_calls, report.backward_calls)
        if calls != contract_call_counts(cfg):
            problems.append(f"model calls {calls} != expected {contract_call_counts(cfg)}")

        for name in ("samples", "log_density", "metric", "avg_knn", "lof"):
            if not np.all(np.isfinite(getattr(report, name))):
                problems.append(f"non-finite value in report.{name}")
        csvs = {"samples.csv": cfg.run_chains}
        if report.trace_rows:
            csvs["metrics.csv"] = len(report.trace_rows)
        for name, rows in csvs.items():
            values = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)
            if values.shape[0] != rows or not np.all(np.isfinite(values)):
                problems.append(f"{name}: {values.shape[0]} rows (expected {rows}) or a non-finite value")
        with open(os.path.join(out, "summary.json")) as fh:
            json.load(fh, parse_constant=lambda c: problems.append(f"summary.json holds {c}"))

        for kind, values in (("avg_knn", report.avg_knn), ("lof", report.lof)):
            queries, refset, k, offset = self._calls[f"{kind}_batch"]
            want_offset = None if cfg.eval_reference == "real" else 0
            if not np.array_equal(queries, report.samples):
                problems.append(f"{kind} was not computed for the run's samples")
            elif len(refset) != _reference_rows(cfg) or offset != want_offset:
                problems.append(f"{kind} reference set has {len(refset)} rows, self_offset {offset}")
            else:
                problems += oracle.mismatches(kind, values, queries, refset, k, offset, self._rows)

        with open(os.path.join(out, "samples.csv"), "rb") as fh:
            samples_csv = fh.read()
        if self._samples_csv is None:
            self._samples_csv = samples_csv
        elif samples_csv != self._samples_csv:
            problems.append("samples.csv differs from the first run's")

        nq = len(report.samples)
        n_knn = len(self._calls["avg_knn_batch"][1])
        n_lof = len(self._calls["lof_batch"][1])
        counts = {
            "models.forward_calls": report.forward_calls,
            "models.backward_calls": report.backward_calls,
            "evaluation.distance_pairs": nq * n_knn + n_lof * n_lof + nq * n_lof,
            "harness.trace_rows": len(report.trace_rows),
            # summary.json is left out: its wall-clock field varies in length
            "harness.bytes_written": sum(
                e.stat().st_size for e in os.scandir(out) if e.name != "summary.json"
            ),
        }
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append(f"computed counts {counts} differ from the first run's {self.counts}")
        return problems


def peak_rss_mb() -> float:
    """Peak resident set of this process image. Unlike ru_maxrss, VmHWM does
    not include the resident set of the parent at fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def cold_run(args, config_path: str) -> dict:
    """One first run in a fresh process: run.py --cold-run CONFIG."""
    cmd = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--cold-run", config_path,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {COLD_TIMEOUT_S} s"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": [f"exit {proc.returncode}, no result: {proc.stderr[-2000:]}"]}


def cold_child(args, import_s: float) -> int:
    """Body of a cold run: one gated run of the config file, as a JSON line."""
    with open(args.cold_run) as fh:
        cfg = ExperimentConfig.from_text(fh.read())
    work = os.path.join(os.path.dirname(args.cold_run), f"cold-{os.getpid()}")
    runner = Runner(cfg, work, args.seed)
    with runner.capturing():
        _, wall = runner.run()
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "wall": wall, "import_s": import_s, "peak_rss_mb": peak_rss_mb(), "failures": runner.failures,
        "counts": runner.counts, "samples_sha256": runner.samples_digest(),
    }))
    return 0


def untraced(args, work: str, import_s: float):
    """Set up SETUP_REPS times and make a warm-up run; then, for args.seconds,
    warm runs in this process with COLD_RUNS first runs, each in a fresh
    process, spread evenly among them, so that both medians sample the same
    stretch of a machine whose speed drifts. setup_s is the median import
    time of all these processes plus the median set-up time."""
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cfg = workloads.setup(args.workload, args.seed, work, args.smoke)
        setup_times.append(time.perf_counter() - start)
    config_path = os.path.join(work, "config")
    with open(config_path, "w") as fh:
        fh.write(cfg.to_text())

    runner = Runner(cfg, work, args.seed)
    cold, warm = [], []
    with runner.capturing():
        runner.run()  # warm-up, and the reference the cold runs are checked against
        start = time.perf_counter()
        while (
            len(cold) < COLD_RUNS
            or len(warm) < MIN_WARM_RUNS
            or time.perf_counter() - start < args.seconds
        ):
            if len(cold) < COLD_RUNS and time.perf_counter() - start >= len(cold) * args.seconds / COLD_RUNS:
                cold.append(cold_run(args, config_path))
            else:
                warm.append(runner.run()[1])
    for i, c in enumerate(cold):
        runner.merge_cold(f"cold-{i}", c)

    imports = [import_s] + [c["import_s"] for c in cold if "import_s" in c]
    metrics = {"setup_s": statistics.median(imports) + statistics.median(setup_times)}
    cold_walls = [c["wall"] for c in cold if c.get("wall") is not None]
    if cold_walls:
        metrics["first_run_s"] = statistics.median(cold_walls)
    warm = [w for w in warm if w is not None]
    if warm:
        metrics["warm_run_s"] = statistics.median(warm)
    # what one CLI sample call peaks at
    rss = [c["peak_rss_mb"] for c in cold if "peak_rss_mb" in c]
    if rss:
        metrics["peak_rss_mb"] = statistics.median(rss)
    extras = {"setup_times": setup_times, "import_s": import_s, "cold": cold, "warm_walls": warm}
    return runner, metrics, extras


def layer_metrics(summary: dict) -> dict:
    out = {metric: summary.get(span, {}).get(field, 0) for metric, (span, field) in LAYER_SPANS.items()}
    run = summary["harness.run_experiment"]
    out["trace_coverage"] = 1.0 - run["self"] / run["busy"]
    return out


def traced(args, work: str, import_s: float):
    """A traced set-up, an untraced first run, then pairs of untraced and
    traced warm runs until args.seconds have passed; per-layer metrics are
    medians over the traced runs."""
    tracer = tracing.Tracer()
    with tracer.patched("setup"):
        cfg = workloads.setup(args.workload, args.seed, work, args.smoke)
    runner = Runner(cfg, work, args.seed)
    plain, traced_runs = [], []
    with runner.capturing():
        start = time.perf_counter()
        runner.run()
        while not traced_runs or time.perf_counter() - start < args.seconds:
            # alternate which of the pair goes first, so drift cancels
            for t in (None, tracer) if len(traced_runs) % 2 == 0 else (tracer, None):
                (traced_runs if t else plain).append(runner.run(t))
    per_run = [layer_metrics(tracer.summary(label)) for label, wall in traced_runs if wall is not None]
    metrics = {
        name: (statistics.median_low if unit(name) == "count" else statistics.median)(m[name] for m in per_run)
        for name in (per_run[0] if per_run else ())
    }
    metrics.update(runner.counts or {})
    metrics["models.train_dsm_s"] = tracer.summary("setup").get("models.train_dsm", {}).get("busy", 0.0)
    plain_walls = [w for _, w in plain if w is not None]
    traced_walls = [w for _, w in traced_runs if w is not None]
    if plain_walls and traced_walls:
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    extras = {"plain_walls": plain_walls, "traced_walls": traced_walls, "spans": tracer.records()}
    return runner, metrics, extras


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(seed: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": src_lines(),
    }


def main(args, import_s: float, nproc: int) -> int:
    if args.cold_run:
        return cold_child(args, import_s)
    if args.workload not in workloads.SETUP:
        print(f"run.py: unknown workload {args.workload!r}; one of {', '.join(workloads.SETUP)}", file=sys.stderr)
        return 2
    work = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner, metrics, extras = (traced if args.trace else untraced)(args, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = runner.attempted, len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    notes = []
    expected, contract = harness.expected_call_counts(runner.cfg), contract_call_counts(runner.cfg)
    if expected != contract:
        notes.append(f"harness.expected_call_counts gives {expected}, the sampler's documented contract {contract}")
        print(f"NOTE {notes[-1]}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {attempted} runs, {failed} failed")
    for name, value in metrics.items():
        label = " (computed)" if name in (runner.counts or {}) else ""
        print(f"  {name:32s} {value!r} {unit(name)}{label}")
    print(f"  {'error_rate':32s} {failed / attempted!r} ratio")
    if not args.trace:
        for name, value in (runner.counts or {}).items():
            print(f"  {name:32s} {value!r} count (computed)")
    env = environment(args.seed, nproc)
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    record = {"workload": args.workload, "env": env, "result": result, "counts": runner.counts,
              "failures": runner.failures, "notes": notes, **extras}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if failed == 0 else 1
