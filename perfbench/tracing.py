"""In-memory spans around calls into the package's layers.

``Tracer.patched`` replaces each target with a wrapper that records a span
(name, start, end, parent, run id). The wrapper goes on the object where the
caller looks the name up, e.g. ``harness.avg_knn_batch`` rather than
``evaluation.avg_knn_batch``, and the originals come back on exit. Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from minority_diffusion import gmm, harness, minority, models, sampler

# (owner, attribute, span name)
TARGETS = [
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "load_checkpoint", "checkpoint.load_checkpoint"),
    (harness, "guided_sample", "sampler.guided_sample"),
    (sampler, "guidance", "sampler.guidance"),
    (sampler, "tweedie", "minority.tweedie"),
    (minority, "tweedie", "minority.tweedie"),
    (harness, "inference_metric", "minority.inference_metric"),
    (harness, "log_density_gmm", "evaluation.log_density_gmm"),
    (harness, "avg_knn_batch", "evaluation.avg_knn_batch"),
    (harness, "lof_batch", "evaluation.lof_batch"),
    (harness, "write_report", "harness.write_report"),
    (gmm, "score", "gmm.score"),
    (gmm, "hessian_vjp", "gmm.hessian_vjp"),
    (models.MlpEpsModel, "eps", "models.mlp_eps"),
    (models.MlpEpsModel, "input_vjp", "models.mlp_input_vjp"),
    (models, "train_dsm", "models.train_dsm"),
]


@dataclass
class Span:
    name: str
    run: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = float("nan")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._run = ""
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._run, self._stack[-1] if self._stack else None, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def patched(self, run: str, targets=TARGETS):
        """Record spans tagged `run` while the block runs."""
        self._run = run
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def summary(self, run: str) -> dict[str, dict]:
        """Per span name: busy time, self time and call count within `run`.

        Busy time sums the spans not nested in a span of the same name; self
        time is a span's duration minus that of its direct children.
        """
        mine = [i for i, s in enumerate(self.spans) if s.run == run]
        child_time: dict[int, float] = defaultdict(float)
        for i in mine:
            s = self.spans[i]
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict] = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
        for i in mine:
            s = self.spans[i]
            entry = out[s.name]
            entry["calls"] += 1
            entry["self"] += s.end - s.start - child_time[i]
            if s.parent is None or self.spans[s.parent].name != s.name:
                entry["busy"] += s.end - s.start
        return dict(out)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
