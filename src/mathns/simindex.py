"""Similarity measures, inverted-index kNN and shared-nearest-neighbor.

The kNN search walks an inverted index over nonzero dimensions, so only
documents sharing at least one dimension with the query are scored;
together with precomputed row norms this still yields exact top-K
results for every supported measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import LengthMismatch

COSINE = "cosine"
INNER = "inner"
JACCARD = "jaccard"
EUCLIDEAN = "euclidean"
MEASURES = (COSINE, INNER, JACCARD, EUCLIDEAN)

# Measures where smaller is closer.
DISTANCE_MEASURES = frozenset({EUCLIDEAN})


class ZeroVectorWarning(UserWarning):
    """Cosine or Jaccard of a zero vector; defined to 0 by convention."""


def _dense(v) -> np.ndarray:
    if sp.issparse(v):
        return np.asarray(v.todense()).ravel()
    return np.asarray(v, dtype=float).ravel()


def cosine(a, b) -> float:
    x, y = _dense(a), _dense(b)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        warnings.warn("cosine of a zero vector", ZeroVectorWarning, stacklevel=2)
        return 0.0
    return float(np.dot(x, y) / (nx * ny))


def inner(a, b) -> float:
    return float(np.dot(_dense(a), _dense(b)))


def jaccard(a, b) -> float:
    """Jaccard coefficient of the binarized vectors."""
    x, y = _dense(a) != 0, _dense(b) != 0
    union = int(np.sum(x | y))
    if union == 0:
        warnings.warn("Jaccard of a zero vector", ZeroVectorWarning, stacklevel=2)
        return 0.0
    return float(np.sum(x & y) / union)


def euclidean_distance(a, b) -> float:
    return float(np.linalg.norm(_dense(a) - _dense(b)))


_MEASURE_FUNCS = {
    COSINE: cosine,
    INNER: inner,
    JACCARD: jaccard,
    EUCLIDEAN: euclidean_distance,
}


def similarity(measure: str, a, b) -> float:
    """Dispatch to one of the supported measures."""
    try:
        return _MEASURE_FUNCS[measure](a, b)
    except KeyError:
        raise ValueError(f"unknown measure {measure!r}") from None


@dataclass(frozen=True)
class NeighborList:
    """Top-K neighbors of one document, best first."""

    owner: int
    neighbors: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.neighbors)

    def ids(self) -> frozenset[int]:
        return frozenset(idx for idx, _ in self.neighbors)


def _as_csr(matrix) -> sp.csr_matrix:
    if hasattr(matrix, "matrix"):
        matrix = matrix.matrix
    return sp.csr_matrix(matrix)


class SimilarityIndex:
    """Inverted index over nonzero dimensions for exact kNN queries."""

    def __init__(self, matrix, measure: str = COSINE):
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        self.measure = measure
        self.csr = _as_csr(matrix)
        self.csc = self.csr.tocsc()
        self.n_docs = self.csr.shape[0]
        sq = np.asarray(self.csr.multiply(self.csr).sum(axis=1)).ravel()
        self.norms_sq = sq
        self.norms = np.sqrt(sq)
        self.nnz = np.diff(self.csr.indptr)

    def _accumulate(self, i: int, binary: bool) -> dict[int, float]:
        """Dot products (or shared-dim counts) against all sharers of i."""
        start, end = self.csr.indptr[i], self.csr.indptr[i + 1]
        acc: dict[int, float] = {}
        for k in range(start, end):
            j = self.csr.indices[k]
            v = self.csr.data[k]
            cs, ce = self.csc.indptr[j], self.csc.indptr[j + 1]
            rows = self.csc.indices[cs:ce]
            vals = self.csc.data[cs:ce]
            for r, w in zip(rows, vals):
                if r == i:
                    continue
                acc[r] = acc.get(r, 0.0) + (1.0 if binary else v * w)
        return acc

    def query(self, i: int, K: int) -> NeighborList:
        """Exact top-K neighbors of document i under the index measure."""
        if K >= self.n_docs:
            raise ValueError(f"K={K} must be below the document count {self.n_docs}")
        measure = self.measure
        if measure == EUCLIDEAN:
            acc = self._accumulate(i, binary=False)
            dist_sq = self.norms_sq[i] + self.norms_sq
            entries = []
            for r in range(self.n_docs):
                if r == i:
                    continue
                d2 = dist_sq[r] - 2.0 * acc.get(r, 0.0)
                entries.append((max(d2, 0.0) ** 0.5, r))
            entries.sort()
            chosen = [(r, d) for d, r in entries[:K]]
            return NeighborList(owner=i, neighbors=tuple(chosen))
        acc = self._accumulate(i, binary=measure == JACCARD)
        scored = []
        for r, dot in acc.items():
            if measure == COSINE:
                denom = self.norms[i] * self.norms[r]
                score = dot / denom if denom > 0 else 0.0
            elif measure == JACCARD:
                union = self.nnz[i] + self.nnz[r] - dot
                score = dot / union if union > 0 else 0.0
            else:
                score = dot
            scored.append((-score, r))
        scored.sort()
        chosen = [(r, -neg) for neg, r in scored[:K]]
        if len(chosen) < K:
            have = {r for r, _ in chosen} | {i}
            for r in range(self.n_docs):
                if len(chosen) == K:
                    break
                if r not in have:
                    chosen.append((r, 0.0))
        return NeighborList(owner=i, neighbors=tuple(chosen))

    def all_neighbors(self, K: int) -> list[NeighborList]:
        return [self.query(i, K) for i in range(self.n_docs)]


def knn(matrix, i: int, K: int, measure: str = COSINE) -> NeighborList:
    """One-shot exact top-K query; builds a throwaway index."""
    return SimilarityIndex(matrix, measure).query(i, K)


def snn_similarity(p: NeighborList, q: NeighborList, union: bool = False) -> int:
    """Number of shared members between two K-neighbor lists.

    ``union=True`` restores the literal union count for comparison;
    with a fixed K that quantity is 2K minus the intersection.
    """
    if len(p) != len(q):
        raise LengthMismatch(f"{len(p)} vs {len(q)}")
    inter = len(p.ids() & q.ids())
    if union:
        return 2 * len(p) - inter
    return inter


def build_snn_graph(
    matrix, K: int, measure: str = COSINE, union: bool = False
) -> sp.csr_matrix:
    """Pairwise SNN similarity over precomputed kNN lists.

    Symmetric integer matrix with diagonal K by convention.  Built by
    inverting the neighbor lists, so only pairs sharing at least one
    neighbor are materialized.
    """
    index = SimilarityIndex(matrix, measure)
    lists = index.all_neighbors(K)
    n = index.n_docs
    if union:
        dense = np.zeros((n, n), dtype=np.int32)
        for p in range(n):
            for q in range(n):
                dense[p, q] = (
                    K if p == q else snn_similarity(lists[p], lists[q], union=True)
                )
        return sp.csr_matrix(dense)
    listers: dict[int, list[int]] = {}
    for nl in lists:
        for x in nl.ids():
            listers.setdefault(x, []).append(nl.owner)
    counts: dict[tuple[int, int], int] = {}
    for owners in listers.values():
        owners.sort()
        for a_pos in range(len(owners)):
            for b_pos in range(a_pos + 1, len(owners)):
                pair = (owners[a_pos], owners[b_pos])
                counts[pair] = counts.get(pair, 0) + 1
    rows, cols, vals = [], [], []
    for (p, q), c in counts.items():
        rows.extend((p, q))
        cols.extend((q, p))
        vals.extend((c, c))
    for p in range(n):
        rows.append(p)
        cols.append(p)
        vals.append(K)
    return sp.csr_matrix(
        (np.array(vals, dtype=np.int32), (np.array(rows), np.array(cols))), shape=(n, n)
    )
