"""Evaluation unit tests.

Neighborhood metrics are compared against an independent O(N^2) brute-force
oracle (the fixtures of conftest.py, which wrap the benchmark gate's
perfbench/oracle.py), including a property test on tie-heavy inputs; the
reconstruction/noise identity against exact closed forms for the unit
Gaussian (via a cubature that is exact for quadratics in the noise).
"""

import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minority_diffusion import evaluation
from minority_diffusion.errors import NumericDegeneracyError
from minority_diffusion.evaluation import (
    _knn_scan,
    avg_knn_batch,
    lof_batch,
    verify_prop1,
)
from minority_diffusion.gmm import GmmSpec
from minority_diffusion.gmm import log_density as log_density_gmm
from minority_diffusion.minority import minority_score, tweedie
from minority_diffusion.models import GmmScoreModel, MlpEpsModel
from minority_diffusion.schedule import build_schedule, perturb


# ---- kNN / LOF ------------------------------------------------------------


def knn1(query, refset, k, exclude_index=None):
    """avg_knn_batch for a single query, excluding refset[exclude_index]."""
    return avg_knn_batch(np.asarray(query)[None], refset, k, self_offset=exclude_index)[0]


def lof1(query, refset, k, exclude_index=None):
    return lof_batch(np.asarray(query)[None], refset, k, self_offset=exclude_index)[0]


def test_avg_knn_matches_brute_force(brute_avg_knn, random_instance):
    rng = np.random.default_rng(0)
    for _ in range(40):
        pts = random_instance(rng)
        q = rng.normal(size=2)
        k = int(rng.integers(1, 6))
        assert knn1(q, pts, k) == brute_avg_knn(q, pts, k)
        i = int(rng.integers(0, len(pts)))
        assert knn1(pts[i], pts, k, exclude_index=i) == brute_avg_knn(
            pts[i], pts, k, exclude_index=i
        )


def test_lof_matches_brute_force(brute_lof, random_instance):
    rng = np.random.default_rng(1)
    for _ in range(25):
        pts = random_instance(rng)
        q = rng.normal(size=2)
        k = int(rng.integers(2, 6))
        assert lof1(q, pts, k) == pytest.approx(brute_lof(q, pts, k), rel=1e-12)
        i = int(rng.integers(0, len(pts)))
        assert lof1(pts[i], pts, k, exclude_index=i) == pytest.approx(
            brute_lof(pts[i], pts, k, exclude_index=i), rel=1e-12
        )


def test_lof_duplicate_query_is_inlier():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    assert lof1(np.zeros(2), pts, 2) == 1.0


def test_outlier_ranks_above_inlier():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(60, 2))
    queries = np.array([[8.0, 8.0], [0.0, 0.0]])
    out_lof, in_lof = lof_batch(queries, pts, 10)
    out_knn, in_knn = avg_knn_batch(queries, pts, 5)
    assert out_lof > in_lof
    assert out_knn > in_knn


def test_neighbor_metrics_need_enough_points():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        knn1(np.zeros(2), pts, 4)
    with pytest.raises(ValueError):
        lof1(np.zeros(2), pts, 3)
    with pytest.raises(ValueError):
        knn1(np.zeros(2), pts, 0)


def test_neighbor_metrics_reject_non_finite_points():
    pts = np.random.default_rng(11).normal(size=(10, 2))
    with pytest.raises(NumericDegeneracyError):
        knn1(np.array([np.nan, 0.0]), pts, 3)
    pts[4] = np.inf
    with pytest.raises(NumericDegeneracyError):
        lof_batch(pts[:2], pts, 3, self_offset=0)


def test_neighbor_metrics_evaluate_exactly_below_overflow(brute_avg_knn, brute_lof):
    # squared distances of about 1e301 are finite
    pts = np.random.default_rng(12).uniform(-1.0, 1.0, size=(40, 2)) * 1e150
    knn = avg_knn_batch(pts, pts, 5, self_offset=0)
    lof = lof_batch(pts, pts, 5, self_offset=0)
    for i, q in enumerate(pts):
        assert knn[i] == brute_avg_knn(q, pts, 5, exclude_index=i)
        assert lof[i] == pytest.approx(brute_lof(q, pts, 5, exclude_index=i), rel=1e-12)


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e308])
def test_neighbor_metrics_reject_overflowing_distances(scale):
    pts = np.random.default_rng(12).uniform(-1.0, 1.0, size=(40, 2)) * scale
    for metric in (avg_knn_batch, lof_batch):
        with pytest.raises(NumericDegeneracyError, match="overflow"):
            metric(pts, pts, 5, self_offset=0)


def test_neighbor_search_rejects_a_tree_without_finite_neighbours(monkeypatch):
    # cKDTree pads a row with index n when fewer than k points lie at a
    # finite distance
    import scipy.spatial

    class PaddingTree(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kw):
            dist, idx = super().query(x, k=k, **kw)
            idx[:, -1] = self.n
            return dist, idx

    monkeypatch.setattr(scipy.spatial, "cKDTree", PaddingTree)
    pts = np.random.default_rng(13).normal(size=(30, 2))
    with pytest.raises(NumericDegeneracyError, match="finite distances"):
        avg_knn_batch(pts, pts, 3, self_offset=0)


def test_batch_versions_match_single_query(brute_avg_knn, brute_lof):
    rng = np.random.default_rng(3)
    refset = rng.normal(size=(80, 2))
    queries = rng.normal(size=(17, 2))
    knn_b = avg_knn_batch(queries, refset, 5)
    lof_b = lof_batch(queries, refset, 7)
    for i, q in enumerate(queries):
        assert knn_b[i] == brute_avg_knn(q, refset, 5)
        assert lof_b[i] == pytest.approx(brute_lof(q, refset, 7), rel=1e-12)
    # a one-point set: width 1, where the tree returns an index, not a row
    one = avg_knn_batch(queries, refset[:1], 1)
    for i, q in enumerate(queries):
        assert one[i] == brute_avg_knn(q, refset[:1], 1)


def test_batch_self_exclusion_pooled_mode(brute_avg_knn, brute_lof):
    # queries form a contiguous slice of the reference set starting at offset 0
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(30, 2))
    extra = rng.normal(size=(50, 2))
    pooled = np.concatenate([samples, extra])
    knn_b = avg_knn_batch(samples, pooled, 5, self_offset=0)
    lof_b = lof_batch(samples, pooled, 7, self_offset=0)
    for i in range(30):
        assert knn_b[i] == brute_avg_knn(samples[i], pooled, 5, exclude_index=i)
        assert lof_b[i] == pytest.approx(
            brute_lof(samples[i], pooled, 7, exclude_index=i), rel=1e-12
        )


def test_knn_chunking_is_transparent(monkeypatch, brute_avg_knn):
    rng = np.random.default_rng(5)
    # large N on the tree's candidates; at the default budget all 3000 rows
    # fit one block
    refset = rng.normal(size=(3000, 2))
    a = avg_knn_batch(refset, refset, 5, self_offset=0)
    for i in (0, 511, 512, 2999):
        assert a[i] == brute_avg_knn(refset[i], refset, 5, exclude_index=i)
    # a budget of 428 rows of 7 candidates in 2-D at the first width, so
    # the scan crosses real block boundaries, and must not notice them
    blocks, rank = [], evaluation._rank

    def counting_rank(queries, ref, cand, rows, self_offset):
        blocks.append(rows.size)
        return rank(queries, ref, cand, rows, self_offset)

    idx, dist = _knn_scan(refset, refset, 5, self_offset=0)
    monkeypatch.setattr(evaluation, "_rank", counting_rank)
    monkeypatch.setattr(evaluation, "WINDOW_BYTES", 428 * 8 * 7 * 2)
    small_idx, small_dist = _knn_scan(refset, refset, 5, self_offset=0)
    monkeypatch.undo()
    assert blocks[:8] == [428] * 7 + [4]
    np.testing.assert_array_equal(small_idx, idx)
    np.testing.assert_array_equal(small_dist, dist)
    np.testing.assert_array_equal(small_dist.mean(axis=1), a)
    for i in (427, 428, 855, 856, 2567, 2568):
        assert small_dist[i].mean() == brute_avg_knn(refset[i], refset, 5, exclude_index=i)
    # every point duplicated: every row ties at the first width and resolves
    # on the widened tree (widths 14 and 28), short of the whole set; rows
    # that widen to the whole set, in blocks, are checked by
    # test_tied_rows_widen_on_the_tree_up_to_every_point
    twice = np.tile(np.round(rng.normal(size=(700, 2)), 1), (2, 1))
    b = avg_knn_batch(twice, twice, 5, self_offset=0)
    for i in (0, 511, 512, 1023, 1024, 1399):
        assert b[i] == brute_avg_knn(twice[i], twice, 5, exclude_index=i)


def test_tied_rows_widen_on_the_tree_up_to_every_point(monkeypatch, brute_avg_knn):
    rng = np.random.default_rng(14)
    grid = np.round(rng.normal(size=(400, 2)), 1)
    # 45 points at the origin tie until the width covers all of them, so
    # their rows widen until the tree returns every point of the set; the 15
    # at (0.5, 0.5) resolve at a narrower width
    two = np.zeros((60, 2))
    two[::4] = 0.5
    for pts, k in ((grid, 12), (two, 9)):
        idx, dist = _knn_scan(pts, pts, k, self_offset=0)
        # blocks of one row, and of 7 * n // width rows, at every width
        for budget in (0, 7 * 8 * pts.size):
            monkeypatch.setattr(evaluation, "WINDOW_BYTES", budget)
            small_idx, small_dist = _knn_scan(pts, pts, k, self_offset=0)
            np.testing.assert_array_equal(small_idx, idx)
            np.testing.assert_array_equal(small_dist, dist)
        monkeypatch.undo()
        for i in range(len(pts)):
            assert dist[i].mean() == brute_avg_knn(pts[i], pts, k, exclude_index=i)


@st.composite
def tie_heavy_instances(draw):
    """(queries, refset, k, self_offset) on a 0.1 grid, with exact duplicates."""
    dim = draw(st.sampled_from([2, 16]))
    n = draw(st.integers(2, 40))
    grid = st.integers(-5, 5) if dim == 2 else st.integers(-1, 1)
    pts = draw(hnp.arrays(np.int64, (n, dim), elements=grid)) / 10.0
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        pts[dst] = pts[src]
    k = draw(st.integers(1, n - 1))
    self_offset = draw(st.sampled_from([None, 0]))
    if self_offset == 0:
        queries = pts[: draw(st.integers(1, min(n, 4)))]
    else:
        fresh = draw(hnp.arrays(np.int64, (draw(st.integers(1, 3)), dim), elements=grid)) / 10.0
        queries = np.concatenate([fresh, pts[: draw(st.integers(0, 1))]])
    return queries, pts, k, self_offset


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances())
def test_neighbor_search_exact_on_ties_and_duplicates(brute_avg_knn, brute_lof, instance):
    queries, refset, k, self_offset = instance
    knn_b = avg_knn_batch(queries, refset, k, self_offset=self_offset)
    lof_b = lof_batch(queries, refset, k, self_offset=self_offset)
    for i, q in enumerate(queries):
        skip = None if self_offset is None else self_offset + i
        assert knn_b[i] == brute_avg_knn(q, refset, k, exclude_index=skip)
        assert lof_b[i] == brute_lof(q, refset, k, exclude_index=skip)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_instances(), st.floats(0, 1))
def test_neighbor_search_is_blind_to_the_block_budget(instance, share):
    queries, refset, k, self_offset = instance
    whole = 8 * len(queries) * refset.size  # every row in one block, at every width
    scans = []
    for budget in (0, int(share * whole), whole):  # from one row per block up
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "WINDOW_BYTES", budget)
            scans.append(_knn_scan(queries, refset, k, self_offset))
    for idx, dist in scans[:2]:
        assert idx.tobytes() == scans[2][0].tobytes()
        assert dist.tobytes() == scans[2][1].tobytes()


def test_tie_heavy_scan_memory_stays_under_its_budget():
    # 2000 rows repeating 4 distinct 16-D points: every row ties until the
    # width reaches n, so each is scanned against all 2000 rows. Blocks of
    # 512 such rows would hold over 100 MiB of (rows, n, D) differences.
    rng = np.random.default_rng(15)
    refset = np.tile(rng.normal(size=(4, 16)), (500, 1))
    tracemalloc.start()
    try:
        idx, dist = _knn_scan(refset[:512], refset, 5, self_offset=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # each row's 5 nearest are copies of its own point at distance 0
    assert np.array_equal(idx % 4, np.broadcast_to(np.arange(512)[:, None] % 4, idx.shape))
    assert not dist.any()


# ---- identity verifiers ---------------------------------------------------


def test_prop1_identity_pointwise(ring_model20):
    rng = np.random.default_rng(8)
    x0 = rng.normal(scale=3.0, size=2)
    rep = verify_prop1(x0, ring_model20, m=3, rng=rng)
    assert rep["max_pointwise_rel_gap"] <= 1e-10
    assert rep["total_gap"] == pytest.approx(0.0, abs=1e-8 * abs(rep["total_lhs"]))


def test_prop1_nan_gap_is_not_dropped(sched20):
    # parameters of 1e200 overflow both sides to inf, so every gap is NaN;
    # the largest gap must say so, not read 0.0
    model = MlpEpsModel(sched20, dim=2, hidden=(8,), emb_dim=4)
    model.params[...] = 1e200
    rep = verify_prop1(np.zeros(2), model, np.random.default_rng(0))
    assert np.isnan(rep["max_pointwise_rel_gap"]) and np.isnan(rep["total_gap"])


def test_corollary1_identity_pointwise(ring_model20, sched20):
    rng = np.random.default_rng(9)
    x0 = rng.normal(scale=3.0, size=2)
    x_t = perturb(x0, 10, rng.standard_normal(2), sched20)
    # the corollary substitutes the Tweedie surrogate for the clean point
    rep = verify_prop1(tweedie(x_t, 10, ring_model20), ring_model20, m=2, rng=rng)
    assert rep["max_pointwise_rel_gap"] <= 1e-10


def test_prop1_unit_gaussian_closed_form(unit_model20, sched20):
    # per-t expectation of the weighted reconstruction loss is
    # ab^2 D + ab (1-ab) ||x0||^2; the loss is quadratic in eps, so the
    # central-plus-axis cubature evaluates the expectation exactly
    x0 = np.array([0.8, -1.1])
    d = x0.size
    for t in (1, 10, 20):
        ab = float(sched20.alpha_bar(t))
        wbar = ab / (1.0 - ab)

        def q(e):
            ev = minority_score(x0, t, unit_model20, eps=np.asarray(e, float)[None])
            return wbar * float(ev)

        expect = q(np.zeros(d))
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            expect += 0.5 * (q(e) + q(-e) - 2.0 * q(np.zeros(d)))
        closed = ab * ab * d + ab * (1.0 - ab) * float(x0 @ x0)
        assert expect == pytest.approx(closed, rel=1e-10)


def test_log_density_gmm_perturbed(ring, sched20):
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 2))
    clean = log_density_gmm(x, ring)
    pert = log_density_gmm(x, ring, 10, sched20)
    assert clean.shape == pert.shape == (5,)
    assert not np.allclose(clean, pert)
