"""Clustering algorithms over document vectors.

All algorithms are deterministic for a fixed seed: K-Means restarts
derive their RNG streams from (seed, restart), DBSCAN visits points in
index order, and ties break toward smaller indices everywhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import EpsNotBelowK, KTooLarge, TooManyDocuments
from .idspace import _CSR, _unwrap
from .simindex import BLOCK_CELLS, COSINE, build_snn_graph

NOISE = -1

SINGLE = "single"
COMPLETE = "complete"
AVERAGE = "average"
WARD = "ward"
LINKAGES = (SINGLE, COMPLETE, AVERAGE, WARD)


@dataclass
class ClusterAssignment:
    """Per-document cluster labels; -1 is reserved for noise."""

    labels: np.ndarray
    K: int
    inertia: Optional[float] = None
    inertia_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)

    @property
    def n_clusters(self) -> int:
        return len(set(self.labels.tolist()) - {NOISE})

    def compact(self) -> "ClusterAssignment":
        """Renumber non-noise labels to 0..C-1 by first appearance."""
        labels = self.labels.copy()
        kept = labels != NOISE
        _, first, inverse = np.unique(labels[kept], return_index=True, return_inverse=True)
        # a label's new number is the rank of its first appearance
        labels[kept] = np.argsort(np.argsort(first))[inverse]
        return ClusterAssignment(
            labels=labels,
            K=len(first),
            inertia=self.inertia,
            inertia_trace=list(self.inertia_trace),
        )


def _row_sq_norms(X) -> np.ndarray:
    if isinstance(X, _CSR):
        return X.sq_sums(axis=1)
    return np.einsum("ij,ij->i", X, X)


def _sq_distances(X, centers: np.ndarray, x_sq: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances of every row to every center."""
    cross = X @ centers.T  # an ndarray for sparse and dense X alike
    c_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = x_sq[:, None] - 2.0 * cross + c_sq[None, :]
    return np.maximum(d2, 0.0)


def _by_row(X):
    """``_unwrap``'s matrix, compressed by row if sparse: k-means reads rows."""
    X = _unwrap(X)
    return X.recompress() if isinstance(X, _CSR) and not X.by_row else X


def _rows_dense(X, idx) -> np.ndarray:
    if isinstance(X, _CSR):
        return X[idx].toarray()
    return np.asarray(X[idx], dtype=float)


def kmeans(
    X,
    K: int,
    seed: int = 0,
    max_iter: int = 300,
    n_restarts: int = 1,
) -> ClusterAssignment:
    """Lloyd's algorithm with random data-point seeding.

    Alternates assignment and centroid moves until assignments are
    stable; an emptied cluster is reseeded to the point farthest from
    its previous centroid.  Best of ``n_restarts`` by inertia.
    """
    X = _by_row(X)
    n = X.shape[0]
    if K > n:
        raise KTooLarge(f"K={K} > n={n}")
    for name, count in (("max_iter", max_iter), ("n_restarts", n_restarts)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    x_sq = _row_sq_norms(X)
    best: Optional[ClusterAssignment] = None
    for restart in range(n_restarts):
        rng = np.random.default_rng([seed, restart])
        centers = _rows_dense(X, rng.choice(n, size=K, replace=False))
        labels = np.full(n, -1)
        trace: list[float] = []
        for _ in range(max_iter):
            d2 = _sq_distances(X, centers, x_sq)
            new_labels = np.argmin(d2, axis=1)
            inertia = float(d2[np.arange(n), new_labels].sum())
            trace.append(inertia)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            reseeded: set[int] = set()
            for j in range(K):
                members = np.flatnonzero(labels == j)
                if len(members):
                    centers[j] = np.asarray(X[members].mean(axis=0)).ravel()
                else:
                    # farthest point from the emptied centroid's previous position
                    order = np.argsort(-d2[:, j], kind="stable")
                    pick = next(int(i) for i in order if int(i) not in reseeded)
                    reseeded.add(pick)
                    centers[j] = _rows_dense(X, [pick])[0]
        result = ClusterAssignment(
            labels=labels, K=K, inertia=trace[-1], inertia_trace=trace
        )
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def minibatch_kmeans(
    X,
    K: int,
    batch_size: int = 1024,
    iters: int = 100,
    seed: int = 0,
) -> ClusterAssignment:
    """Streaming K-Means with per-center learning rate 1/count.

    Every iteration samples a batch, caches its nearest centers, then
    applies one gradient step per point.  A final full pass assigns all
    documents.
    """
    X = _by_row(X)
    n = X.shape[0]
    if K > n:
        raise KTooLarge(f"K={K} > n={n}")
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, n={n}], got {batch_size}")
    rng = np.random.default_rng(seed)
    centers = _rows_dense(X, rng.choice(n, size=K, replace=False))
    counts = np.zeros(K, dtype=np.int64)
    x_sq = _row_sq_norms(X)
    for _ in range(iters):
        batch = rng.choice(n, size=batch_size, replace=False)
        rows = _rows_dense(X, batch)
        d2 = _sq_distances(rows, centers, x_sq[batch])
        nearest = np.argmin(d2, axis=1)
        for row, c in zip(rows, nearest):
            counts[c] += 1
            eta = 1.0 / counts[c]
            centers[c] = (1.0 - eta) * centers[c] + eta * row
    d2 = _sq_distances(X, centers, x_sq)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    return ClusterAssignment(labels=labels, K=K, inertia=inertia)


RegionQuery = Callable[[int, float], Iterable[int]]


def dbscan(region_query: RegionQuery, n: int, eps: float, minpts: int) -> ClusterAssignment:
    """Classic density-based clustering with expand-cluster semantics.

    ``region_query(p, eps)`` returns the neighborhood of p (p itself is
    ignored if present).  A point is core iff it has at least ``minpts``
    neighbors besides itself; border points join the first cluster that
    claims them; the rest stay noise.  Points are visited in index
    order, which pins down border-point ties.
    """
    labels = np.full(n, NOISE)
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for p in range(n):
        if visited[p]:
            continue
        visited[p] = True
        neighborhood = sorted(set(region_query(p, eps)) - {p})
        if len(neighborhood) < minpts:
            continue  # noise for now; may become a border point later
        labels[p] = cluster_id
        seeds = deque(neighborhood)
        enqueued = set(neighborhood)
        while seeds:
            x = seeds.popleft()
            if labels[x] == NOISE:
                labels[x] = cluster_id
            if visited[x]:
                continue
            visited[x] = True
            expansion = sorted(set(region_query(x, eps)) - {x})
            if len(expansion) >= minpts:
                for y in expansion:
                    if y not in enqueued:
                        seeds.append(y)
                        enqueued.add(y)
        cluster_id += 1
    return ClusterAssignment(labels=labels, K=cluster_id)


def snn_dbscan(
    matrix,
    K: int,
    measure: str = COSINE,
    eps: int = 3,
    minpts: int = 3,
) -> ClusterAssignment:
    """DBSCAN over shared-nearest-neighbor similarity."""
    if eps >= K:
        raise EpsNotBelowK(f"eps={eps} must be below K={K}")
    graph = build_snn_graph(matrix, K, measure)
    indptr, indices, data = graph.indptr, graph.indices, graph.data

    def region_query(p: int, threshold: float) -> list[int]:
        s, e = indptr[p], indptr[p + 1]
        cols = indices[s:e]
        return cols[(data[s:e] >= threshold) & (cols != p)].tolist()

    n = graph.shape[0]
    return dbscan(region_query, n, eps, minpts)


def linkage_merges(
    X, linkage: str, max_points: Optional[int] = None
) -> list[tuple[int, int, float]]:
    """Full merge history of agglomerative clustering.

    Returns (i, j, dissimilarity) per merge, where i < j are current
    cluster representatives (smallest original index of each cluster).
    Uses Lance-Williams updates; Ward operates on squared distances.
    Refuses inputs beyond ``max_points``, as the distance matrix is
    quadratic in memory.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    X = _unwrap(X)
    X = np.asarray(X.toarray() if isinstance(X, _CSR) else X, dtype=float)
    n = X.shape[0]
    if max_points is not None and n > max_points:
        raise TooManyDocuments(f"n={n} exceeds the cap of {max_points}")
    d = np.empty((n, n))
    # blocks of rows keep the difference tensor near BLOCK_CELLS cells
    rows = max(1, BLOCK_CELLS // max(n * X.shape[1], 1))
    for s in range(0, n, rows):
        diff = X[s : s + rows, None, :] - X[None, :, :]
        d[s : s + rows] = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if linkage == WARD:
        d *= d
    np.fill_diagonal(d, np.inf)
    inactive = np.zeros(n, dtype=bool)
    sizes = np.ones(n)
    merges = []
    for _ in range(n - 1):
        flat = np.argmin(d)
        i, j = divmod(int(flat), n)
        if i > j:
            i, j = j, i
        value = float(d[i, j])
        merges.append((i, j, value))
        ni, nj = sizes[i], sizes[j]
        live = ~inactive
        live[i] = live[j] = False
        k = np.flatnonzero(live)
        dik, djk = d[i, k], d[j, k]
        if linkage == SINGLE:
            new = np.minimum(dik, djk)
        elif linkage == COMPLETE:
            new = np.maximum(dik, djk)
        elif linkage == AVERAGE:
            new = (ni * dik + nj * djk) / (ni + nj)
        else:  # ward, on squared distances
            nk = sizes[k]
            new = ((ni + nk) * dik + (nj + nk) * djk - nk * d[i, j]) / (ni + nj + nk)
        d[i, k] = d[k, i] = new
        sizes[i] = ni + nj
        inactive[j] = True
        d[j, :] = np.inf
        d[:, j] = np.inf
    return merges


def cut_merges(merges: list[tuple[int, int, float]], n: int, K: int) -> ClusterAssignment:
    """The K clusters left after the first n - K merges of a history over n
    points: every K cuts the one dendrogram ``linkage_merges`` gives."""
    if K > n:
        raise KTooLarge(f"K={K} > n={n}")
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in merges[: n - K]:
        parent[find(j)] = find(i)
    return ClusterAssignment(labels=[find(p) for p in range(n)], K=K).compact()


def agglomerative(X, linkage: str, K: int, max_points: int = 1000) -> ClusterAssignment:
    """Merge clusters bottom-up until K remain: the merge history cut at K."""
    X = _unwrap(X)
    return cut_merges(linkage_merges(X, linkage, max_points), X.shape[0], K)
