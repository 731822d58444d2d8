"""Evaluation machinery: exact densities, neighborhood metrics, rank
correlation, and the numeric verifiers for the metric/ELBO identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm
from .config import ExperimentConfig
from .errors import NumericDegeneracyError
from .gmm import GmmSpec
from .minority import tweedie
from .models import ScoreModel
from .schedule import NoiseSchedule, perturb


def log_density_gmm(x, spec: GmmSpec, t=None, sched: NoiseSchedule | None = None):
    """Exact mixture log-density; perturbed to timestep t when given."""
    return gmm.log_density(x, spec, t, sched)


def reference_set(cfg: ExperimentConfig, samples: np.ndarray):
    """(refset, self_offset) for the neighbour metrics of `samples`.

    eval.reference "real" draws eval.reference_size benchmark points,
    "generated" uses the samples themselves and "pooled" both, samples first
    (so each sample excludes itself at self_offset 0). The real points come
    from their own stream of run.seed, so `sample` and a later `eval` of its
    samples.csv see the same reference set.
    """
    if cfg.eval_reference == "generated":
        return samples, 0
    rng = np.random.default_rng(np.random.SeedSequence([cfg.run_seed, 2**32 - 2]))
    real = cfg.gmm_spec().sample(cfg.eval_reference_size, rng)
    if cfg.eval_reference == "real":
        return real, None
    return np.concatenate([samples, real]), 0


def _rank(queries, refset, cand, rows, self_offset):
    """Reference indices `cand` (one row per query in `rows`) and their
    distances, ordered by distance, ties by index; a query's own point is
    at distance inf."""
    dist = np.linalg.norm(queries[rows, None, :] - refset[cand], axis=-1)
    if self_offset is not None:
        dist[cand == (self_offset + rows)[:, None]] = np.inf
    order = np.lexsort((cand, dist))
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _knn_scan(
    queries: np.ndarray,
    refset: np.ndarray,
    k: int,
    self_offset: int | None = None,
    chunk: int = 512,
):
    """Indices and distances of the k nearest reference points per query.

    Ties are broken by reference index. If queries are a contiguous slice of
    the reference set starting at self_offset, each query excludes itself.
    Exact: a KD-tree proposes w = k + 2 candidates per query (room for the
    query itself and one spare), and their distances are recomputed with the
    same primitive a full scan uses. A row whose candidate w - 1 (in distance
    order) lies within rounding of its k-th distance may tie with a point the
    tree left out, so it is asked again with twice the width; once the width
    reaches n the row is scanned in full. Each block of rows holds at most
    `chunk` * n candidate pairs.
    """
    # deferred: importing scipy.spatial costs more than most commands use it
    from scipy.spatial import cKDTree

    queries = np.atleast_2d(np.asarray(queries, float))
    refset = np.atleast_2d(np.asarray(refset, float))
    nq, n = queries.shape[0], refset.shape[0]
    if k < 1 or n - (1 if self_offset is not None else 0) < k:
        raise ValueError(f"need at least k={k} >= 1 neighbors in the reference set")
    if not (np.isfinite(queries).all() and np.isfinite(refset).all()):
        raise NumericDegeneracyError("non-finite point in the neighbor search")
    tree = cKDTree(refset)
    nbr_idx = np.empty((nq, k), dtype=np.intp)
    nbr_dist = np.empty((nq, k))
    tied = np.zeros(nq, dtype=bool)
    rows, width = np.arange(nq), k + 2
    while rows.size:
        width = min(width, n)
        step = max(1, chunk * n // width)
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            if width < n:
                cand = tree.query(queries[r], k=width)[1]
            else:
                cand = np.broadcast_to(np.arange(n), (r.size, n))
            idx, dist = _rank(queries, refset, cand, r, self_offset)
            nbr_idx[r], nbr_dist[r] = idx[:, :k], dist[:, :k]
            # column w - 2 holds a non-self candidate ranked past the k-th
            tied[r] = dist[:, width - 2] <= dist[:, k - 1] * (1.0 + 1e-9) if width < n else False
        rows = rows[tied[rows]]
        width *= 2
    return nbr_idx, nbr_dist


def avg_knn_batch(queries, refset, k: int, self_offset: int | None = None) -> np.ndarray:
    """Mean Euclidean distance from each query to its k nearest reference points."""
    _, nbr_dist = _knn_scan(queries, refset, k, self_offset)
    return nbr_dist.mean(axis=1)


def _lrd(mean_reach: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(mean_reach == 0.0, np.inf, 1.0 / np.where(mean_reach == 0, 1, mean_reach))


def lof_batch(queries, refset, k: int, self_offset: int | None = None) -> np.ndarray:
    """Local outlier factor of each query w.r.t. refset.

    Reachability uses reach_k(a, b) = max(k-distance(b), dist(a, b)). Local
    reachability densities of reference points are computed within the full
    reference set (each point excluding itself). A zero reachability sum, which
    happens for duplicated points, makes the density infinite; a query with
    infinite density gets LOF = 1 (duplicates are maximally inlying).
    """
    refset = np.atleast_2d(np.asarray(refset, float))
    ref_idx, ref_dist = _knn_scan(refset, refset, k, self_offset=0)
    kdist = ref_dist[:, -1]
    ref_lrd = _lrd(np.maximum(kdist[ref_idx], ref_dist).mean(axis=1))

    q_idx, q_dist = _knn_scan(queries, refset, k, self_offset)
    lrd_q = _lrd(np.maximum(kdist[q_idx], q_dist).mean(axis=1))
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(lrd_q), 1.0, ref_lrd[q_idx].mean(axis=1) / lrd_q)


def spearman(a, b) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 3:
        raise ValueError("spearman needs two equal-length sequences of length >= 3")
    ra, rb = _average_ranks(a), _average_ranks(b)
    sa, sb = np.std(ra), np.std(rb)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("correlation undefined for a constant sequence")
    return float(np.mean((ra - ra.mean()) * (rb - rb.mean())) / (sa * sb))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    sorted_x = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@dataclass(frozen=True)
class IdentityReport:
    """Per-timestep comparison of the weighted reconstruction loss against the
    noise-matching objective, with shared noise draws on both sides."""

    timesteps: np.ndarray
    lhs: np.ndarray  # weighted metric, per t (MC mean)
    rhs: np.ndarray  # noise-prediction error, per t (MC mean)
    max_pointwise_rel_gap: float
    mc_samples: int

    @property
    def total_lhs(self) -> float:
        return float(np.sum(self.lhs))

    @property
    def total_rhs(self) -> float:
        return float(np.sum(self.rhs))

    @property
    def total_gap(self) -> float:
        return self.total_lhs - self.total_rhs

    def summary(self) -> dict:
        return {
            "total_lhs": self.total_lhs,
            "total_rhs": self.total_rhs,
            "total_gap": self.total_gap,
            "max_pointwise_rel_gap": self.max_pointwise_rel_gap,
            "mc_samples": self.mc_samples,
        }


def verify_prop1(
    x0: np.ndarray,
    model: ScoreModel,
    sched: NoiseSchedule,
    m: int = 1,
    rng: np.random.Generator | None = None,
) -> IdentityReport:
    """Check sum_t abar/(1-abar) * ||x0 - x0_hat||^2 == sum_t ||eps - eps_theta||^2.

    Both sides share the same noise draws per (t, draw), so the equality is
    pointwise, not just in expectation. Summed over the full timestep grid.
    """
    x0 = np.asarray(x0, float)
    if rng is None:
        rng = np.random.default_rng(0)
    ts = np.arange(1, sched.T + 1)
    lhs = np.empty(sched.T)
    rhs = np.empty(sched.T)
    worst = 0.0
    for t in ts:
        ab = float(sched.alpha_bar(t))
        wbar = ab / (1.0 - ab)
        l_draws = np.empty(m)
        r_draws = np.empty(m)
        for j in range(m):
            eps = rng.standard_normal(x0.shape)
            xt = perturb(x0, t, eps, sched)
            resid = x0 - tweedie(xt, t, model, sched)
            l_draws[j] = wbar * float(np.sum(resid * resid))
            e_resid = eps - model.eps(xt, t)
            r_draws[j] = float(np.sum(e_resid * e_resid))
            denom = max(abs(r_draws[j]), 1e-300)
            worst = max(worst, abs(l_draws[j] - r_draws[j]) / denom)
        lhs[t - 1] = l_draws.mean()
        rhs[t - 1] = r_draws.mean()
    return IdentityReport(
        timesteps=ts, lhs=lhs, rhs=rhs, max_pointwise_rel_gap=worst, mc_samples=m
    )


def verify_corollary1(
    x_t: np.ndarray,
    t: int,
    model: ScoreModel,
    sched: NoiseSchedule,
    m: int = 1,
    rng: np.random.Generator | None = None,
) -> IdentityReport:
    """Same identity with the Tweedie surrogate of a noisy latent as the clean point."""
    return verify_prop1(tweedie(x_t, t, model, sched), model, sched, m=m, rng=rng)
