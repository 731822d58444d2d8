"""Evaluation machinery: the reference set, neighborhood metrics, and the
numeric verifiers for the metric/ELBO identity.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .errors import ConfigError, NumericDegeneracyError
from .minority import round_trip
from .models import ScoreModel
from .sampler import WINDOW_BYTES, stream
from .schedule import perturb


def reference_set(cfg: ExperimentConfig, samples: np.ndarray):
    """(refset, self_offset) for the neighbour metrics of `samples`.

    eval.reference "real" draws eval.reference_size benchmark points,
    "generated" uses the samples themselves and "pooled" both, samples first
    (so each sample excludes itself at self_offset 0). The real points come
    from their own stream of run.seed, so `sample` and a later `eval` of its
    samples.csv see the same reference set. A set too small for eval.knn_k
    neighbours of each sample, or for eval.lof_k neighbours of each of its
    own points (LOF scans the set against itself), raises ConfigError.
    """
    check_reference_room(cfg, len(samples))
    if cfg.eval_reference == "generated":
        return samples, 0
    real = cfg.gmm_spec().sample(cfg.eval_reference_size, stream(cfg.run_seed, 2**32 - 2))
    return (np.concatenate([samples, real]), 0) if cfg.eval_reference == "pooled" else (real, None)


def check_reference_room(cfg: ExperimentConfig, chains: int) -> None:
    """Raise ConfigError unless the eval.reference set of `chains` samples
    (eval.reference_size real points, the samples themselves, or both)
    offers eval.knn_k neighbours to each sample, which excludes itself from
    a set that holds the samples, and eval.lof_k to each point of the set."""
    real = cfg.eval_reference_size
    n = {"real": real, "generated": chains, "pooled": chains + real}[cfg.eval_reference]
    own = cfg.eval_reference != "real"
    for key, k, room in (("eval.knn_k", cfg.eval_knn_k, n - own), ("eval.lof_k", cfg.eval_lof_k, n - 1)):
        if k > room:
            raise ConfigError(
                f"{key} = {k} exceeds the {max(room, 0)} neighbours a {n}-point "
                f"{cfg.eval_reference} reference set offers each point"
            )


def _rank(queries, refset, cand, rows, self_offset):
    """Reference indices `cand` (one row per query in `rows`) and their
    distances, ordered by distance, ties by index; a query's own point is
    at distance inf."""
    # np.linalg.norm's sqrt(sum(d * d)), in place: one (rows, w, D) temporary
    diff = refset[cand]
    np.subtract(queries[rows, None, :], diff, out=diff)
    dist = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1))
    if self_offset is not None:
        dist[cand == (self_offset + rows)[:, None]] = np.inf
    order = np.lexsort((cand, dist))
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _knn_scan(queries: np.ndarray, refset: np.ndarray, k: int, self_offset: int | None = None):
    """Indices and distances of the k nearest reference points per query.

    Ties are broken by reference index. If queries are a contiguous slice of
    the reference set starting at self_offset, each query excludes itself.
    Exact: a KD-tree proposes w = k + 2 candidates per query (room for the
    query itself and one spare), and their distances are recomputed with the
    same primitive a brute-force scan uses. A row whose candidate w - 1 (in
    distance order) lies within rounding of its k-th distance may tie with a
    point the tree left out, so it is asked again with twice the width, up to
    all n points, which leave none out. A block's (rows, w, D) float64
    temporary fits WINDOW_BYTES, whatever n, D or ties, or holds one row.
    """
    # deferred: importing scipy.spatial costs more than most commands use it
    from scipy.spatial import cKDTree

    queries = np.atleast_2d(np.asarray(queries, float))
    refset = np.atleast_2d(np.asarray(refset, float))
    nq, n = queries.shape[0], refset.shape[0]
    if k < 1 or n - (1 if self_offset is not None else 0) < k:
        raise ValueError(f"need at least k={k} >= 1 neighbors in the reference set")
    # every squared distance is at most the sum over axes of the squared
    # coordinate spread, which is inf or nan for a non-finite point too
    top = np.maximum(queries.max(axis=0, initial=-np.inf), refset.max(axis=0))
    bottom = np.minimum(queries.min(axis=0, initial=np.inf), refset.min(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sum((top - bottom) ** 2)
    if not np.isfinite(bound):
        raise NumericDegeneracyError("non-finite point, or squared distances that overflow, in the neighbor search")
    tree = cKDTree(refset)
    nbr_idx = np.empty((nq, k), dtype=np.intp)
    nbr_dist = np.empty((nq, k))
    tied = np.zeros(nq, dtype=bool)
    rows, width = np.arange(nq), k + 2
    while rows.size:
        width = min(width, n)
        step = max(1, WINDOW_BYTES // (8 * width * refset.shape[1]))
        for lo in range(0, rows.size, step):
            r = rows[lo : lo + step]
            # reshaped: at width 1 the tree returns one index per query, not a row
            cand = tree.query(queries[r], k=width)[1].reshape(r.size, width)
            if (cand == n).any():  # the tree's pad for "no neighbour at a finite distance"
                raise NumericDegeneracyError("neighbor search found too few finite distances")
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
        return 1.0 / mean_reach  # inf where the reachability sum is 0


def lof_batch(queries, refset, k: int, self_offset: int | None = None) -> np.ndarray:
    """Local outlier factor of each query w.r.t. refset.

    Reachability uses reach_k(a, b) = max(k-distance(b), dist(a, b)). Local
    reachability densities of reference points are computed within the full
    reference set (each point excluding itself). A zero reachability sum, which
    happens for duplicated points, makes the density infinite; a query with
    infinite density gets LOF = 1 (duplicates are maximally inlying).
    """
    ref_idx, ref_dist = _knn_scan(refset, refset, k, self_offset=0)
    kdist = ref_dist[:, -1]
    ref_lrd = _lrd(np.maximum(kdist[ref_idx], ref_dist).mean(axis=1))

    q_idx, q_dist = _knn_scan(queries, refset, k, self_offset)
    lrd_q = _lrd(np.maximum(kdist[q_idx], q_dist).mean(axis=1))
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(lrd_q), 1.0, ref_lrd[q_idx].mean(axis=1) / lrd_q)


def verify_prop1(x0: np.ndarray, model: ScoreModel, rng: np.random.Generator, m: int = 1) -> dict:
    """Check sum_t abar/(1-abar) * ||x0 - x0_hat||^2 == sum_t ||eps - eps_theta||^2.

    Both sides share the same noise draws per (t, draw), so the equality is
    pointwise, not just in expectation. Returns the sums over the full
    timestep grid of the per-t means of both sides (total_lhs, total_rhs)
    and their difference (total_gap), the largest relative gap of any one
    draw (max_pointwise_rel_gap) and m (mc_samples). Overflow is not
    warned about: it leaves a non-finite value, which the caller reports.
    """
    x0 = np.asarray(x0, float)
    sched = model.sched
    lhs = np.empty(sched.T)
    rhs = np.empty(sched.T)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, sched.T + 1):
            ab = float(sched.alpha_bar(t))
            eps = rng.standard_normal((m,) + x0.shape)
            l_draws = ab / (1.0 - ab) * round_trip(x0, t, model, eps)[0]
            e_resid = eps - model.eps(perturb(x0, t, eps, sched), t)
            r_draws = np.sum(e_resid * e_resid, axis=-1)
            gaps = np.abs(l_draws - r_draws) / np.maximum(np.abs(r_draws), 1e-300)
            worst = float(np.maximum(worst, gaps.max()))  # a NaN gap stays NaN
            lhs[t - 1] = l_draws.mean()
            rhs[t - 1] = r_draws.mean()
        total_lhs, total_rhs = float(np.sum(lhs)), float(np.sum(rhs))
    return {
        "total_lhs": total_lhs,
        "total_rhs": total_rhs,
        "total_gap": total_lhs - total_rhs,
        "max_pointwise_rel_gap": worst,
        "mc_samples": m,
    }
