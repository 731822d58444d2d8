"""Shared fixtures: small schedules, benchmark mixtures, analytic models, an
untrained MLP noise predictor (random weights are enough for gradient
checks), the finite-difference objective of the guidance gradient, and the
brute-force neighbour oracle with its instance generator."""

import numpy as np
import pytest

from minority_diffusion.gmm import GmmSpec, benchmark
from minority_diffusion.minority import tweedie
from minority_diffusion.models import GmmScoreModel, MlpEpsModel
from minority_diffusion.schedule import build_schedule


@pytest.fixture(scope="session")
def sched20():
    return build_schedule("cosine", 20)


@pytest.fixture(scope="session")
def ring():
    return benchmark("gmm8-ring")


@pytest.fixture(scope="session")
def unit_gauss():
    return GmmSpec(weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0]))


@pytest.fixture(scope="session")
def ring_model20(ring, sched20):
    return GmmScoreModel(ring, sched20)


@pytest.fixture(scope="session")
def unit_model20(unit_gauss, sched20):
    return GmmScoreModel(unit_gauss, sched20)


@pytest.fixture(scope="session")
def mlp20(sched20):
    return MlpEpsModel(sched20, dim=2, hidden=(16, 16), emb_dim=8, seed=5)


def _sg_objective(x, t, cfg, model, eps, center):
    """Metric value with the stop-gradient branch frozen at the center point."""
    sched = model.sched
    s = sched.step_at(cfg.s_fraction)
    a_s = float(sched.alpha_bar(s))
    c_s = np.sqrt(1.0 - a_s)
    x0_c = tweedie(center, t, model)
    total = 0.0
    for e in eps:
        x0hh_c = tweedie(np.sqrt(a_s) * x0_c + c_s * e, s, model)
        x0 = tweedie(x, t, model)
        x0hh = tweedie(np.sqrt(a_s) * x0 + c_s * e, s, model)
        if cfg.sg_mode == "sg_second":
            total += float(np.sum((x0 - x0hh_c) ** 2))
        elif cfg.sg_mode == "sg_first":
            total += float(np.sum((x0_c - x0hh) ** 2))
        else:
            total += float(np.sum((x0 - x0hh) ** 2))
    return total / len(eps)


@pytest.fixture(scope="session")
def sg_objective():
    """sg_objective(x, t, cfg, model, eps, center): the objective whose
    central finite differences the guidance gradient must match."""
    return _sg_objective


# ---- brute-force neighbour oracle ------------------------------------------
#
# Selection, tie-breaking, exclusion and reachability are all re-derived
# naively here; the Euclidean distance primitive is shared with the
# implementation (vectorized and row-wise norms differ in the last ulp,
# which would make an "exact match" assertion meaningless).


def _dist_row(point, refset):
    return np.linalg.norm(refset - point, axis=1)


def _brute_avg_knn(query, refset, k, exclude_index=None):
    row = _dist_row(query, refset)
    dists = [(float(row[i]), i) for i in range(len(refset)) if i != exclude_index]
    dists.sort()  # ties by distance then index
    return float(np.mean(np.array([d for d, _ in dists[:k]])))


def _brute_lof(query, refset, k, exclude_index=None):
    n = len(refset)

    def neighbors(point, skip):
        row = _dist_row(point, refset)
        dists = sorted((float(row[j]), j) for j in range(n) if j not in skip)
        top = dists[:k]
        return [j for _, j in top], top[-1][0]

    nbrs, kdist = {}, {}
    for i in range(n):
        nbrs[i], kdist[i] = neighbors(refset[i], {i})

    def lrd(point, nb):
        row = _dist_row(point, refset)
        reach = [max(kdist[j], float(row[j])) for j in nb]
        mean_reach = float(np.mean(np.array(reach)))
        return np.inf if mean_reach == 0.0 else 1.0 / mean_reach

    ref_lrd = {i: lrd(refset[i], nbrs[i]) for i in range(n)}
    q_nbrs, _ = neighbors(query, set() if exclude_index is None else {exclude_index})
    lrd_q = lrd(query, q_nbrs)
    if np.isinf(lrd_q):
        return 1.0
    return float(np.mean([ref_lrd[j] for j in q_nbrs]) / lrd_q)


def _random_instance(rng):
    """8 to 64 standard-normal 2-D points, the first few of them exact
    duplicates of the next few with probability 0.3."""
    n = int(rng.integers(8, 65))
    pts = rng.normal(size=(n, 2))
    if rng.random() < 0.3:
        dup = int(rng.integers(1, min(5, n)))
        pts[:dup] = pts[dup : 2 * dup]
    return pts


@pytest.fixture(scope="session")
def brute_avg_knn():
    """brute_avg_knn(query, refset, k, exclude_index=None): the mean
    distance to the k nearest points of refset, refset[exclude_index] left
    out, ties by index."""
    return _brute_avg_knn


@pytest.fixture(scope="session")
def brute_lof():
    """brute_lof(query, refset, k, exclude_index=None): the local outlier
    factor of query within refset, refset[exclude_index] left out."""
    return _brute_lof


@pytest.fixture(scope="session")
def random_instance():
    """random_instance(rng): a point set for the neighbour oracle."""
    return _random_instance
