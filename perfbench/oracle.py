"""Brute-force neighbour oracle for the benchmark's correctness gate.

Each distance row is fully sorted with an explicit reference-index
tie-break (``np.lexsort``), independently of the package's chunked scan.
LOF follows the package's documented conventions: reach(a, b) =
max(k-distance(b), dist(a, b)), reference points exclude themselves, and a
query whose mean reachability is zero has LOF 1.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-12


class NeighbourOracle:
    def __init__(self, refset: np.ndarray, k: int):
        self.refset = np.asarray(refset, float)
        self.k = k
        self._ref_nbrs: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def nearest(self, x: np.ndarray, exclude: int | None = None):
        """(indices, distances) of the k nearest reference points to x."""
        d = np.linalg.norm(self.refset - x, axis=1)
        if exclude is not None:
            d[exclude] = np.inf
        order = np.lexsort((np.arange(d.size), d))[: self.k]
        return order, d[order]

    def _of_ref(self, j: int):
        if j not in self._ref_nbrs:
            self._ref_nbrs[j] = self.nearest(self.refset[j], exclude=j)
        return self._ref_nbrs[j]

    def _mean_reach(self, nbrs, dists) -> float:
        kdist = np.array([self._of_ref(j)[1][-1] for j in nbrs])
        return float(np.mean(np.maximum(kdist, dists)))

    def _lrd(self, j: int) -> float:
        m = self._mean_reach(*self._of_ref(j))
        return np.inf if m == 0.0 else 1.0 / m

    def avg_knn(self, x, exclude=None) -> float:
        return float(np.mean(self.nearest(x, exclude)[1]))

    def lof(self, x, exclude=None) -> float:
        nbrs, dists = self.nearest(x, exclude)
        m = self._mean_reach(nbrs, dists)
        if m == 0.0:
            return 1.0
        return float(np.mean([self._lrd(j) for j in nbrs]) / (1.0 / m))


def mismatches(kind: str, got, queries, refset, k: int, self_offset, rows) -> list[str]:
    """Rows of `got` (kind "avg_knn" or "lof") that disagree with the oracle.

    `queries`, `refset`, `k` and `self_offset` are the arguments the package
    was called with; query i excludes reference point self_offset + i.
    """
    oracle = NeighbourOracle(refset, k)
    statistic = oracle.avg_knn if kind == "avg_knn" else oracle.lof
    bad = []
    for i in rows:
        want = statistic(queries[i], None if self_offset is None else self_offset + i)
        if not abs(got[i] - want) <= TOLERANCE * max(1.0, abs(want)):
            bad.append(f"{kind}[{i}] = {got[i]!r}, oracle {want!r}")
    return bad
