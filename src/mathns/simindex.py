"""Blocked sparse-product kNN under four measures, and shared-nearest-neighbor.

One kernel scores a block of rows against every document: the terms of
``csr[s:e] @ csc.T`` (Gustavson's row-by-row product), added per pair in
csr storage order for the dot products and counted for Jaccard and for
which pairs share a dimension.
Blocks hold about ``BLOCK_CELLS`` dense cells, so memory stays bounded.
kNN lists, DBSCAN region queries and the SNN graph (``N @ N.T`` of the
kNN indicator) all come from it.  Ties keep the smaller index, and for a
similarity every document sharing a stored dimension with the query
outranks every one that does not, even at a score of 0 or below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .idspace import _CSR, _as_csr, _ranges, _sums

COSINE = "cosine"
INNER = "inner"
JACCARD = "jaccard"
EUCLIDEAN = "euclidean"
MEASURES = (COSINE, INNER, JACCARD, EUCLIDEAN)

# Measures where smaller is closer.
DISTANCE_MEASURES = frozenset({EUCLIDEAN})

# Dense cells per kernel block: 128 KB per float64 temporary.  At 600
# documents, 512 KB blocks raised the process's peak RSS by 0.5 MB.
BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class NeighborList:
    """Top-K neighbors of one document, best first."""

    owner: int
    neighbors: tuple[tuple[int, float], ...]


def _products(a: _CSR, cols: _CSR, s: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term ``a[i, j] * b[k, j]`` of ``a[s:e] @ b.T`` (``cols`` is b
    compressed by column) as its cell ``(i - s) * n + k`` and its factors'
    positions, in scipy's ``csr_matmat`` order: a's storage, then b's."""
    left = np.arange(a.indptr[s], a.indptr[e])
    j = a.indices[left]
    counts = np.diff(cols.indptr)[j]
    right = _ranges(cols.indptr[j], counts)
    row = np.repeat(np.arange(e - s), np.diff(a.indptr[s : e + 1]))
    cells = np.repeat(row * cols.shape[0], counts) + cols.indices[right]
    return cells, np.repeat(left, counts), right


class SimilarityIndex:
    """Exact kNN and threshold queries through one blocked sparse product.

    Under Jaccard, which compares the binarized vectors, it indexes only
    the nonzero entries; the other measures keep every stored entry.
    """

    def __init__(self, matrix, measure: str = COSINE):
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        self.measure = measure
        self.csr = _as_csr(matrix)
        if measure == JACCARD:
            self.csr = self.csr.without_zeros()
        self.csc = self.csr.recompress()
        self.n_docs = self.csr.shape[0]
        sq = self.csr.sq_sums(axis=1)
        self.norms_sq = sq
        self.norms = np.sqrt(sq)
        self.nnz = np.diff(self.csr.indptr)

    def _block(self, s: int, e: int, sharers: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Scores of rows [s, e) against every document, and which pairs share
        a stored dimension (None unless ``sharers``).

        The dots add ``v * w`` per pair from 0.0 in csr storage order, as
        scipy's ``csr[s:e] @ csc.T`` does; a pair can share dimensions and
        still sum to 0, so the sharer mask counts stored entries (explicit
        zeros too), never the values.
        """
        measure = self.measure
        cells, left, right = _products(self.csr, self.csc, s, e)
        size, shape = (e - s) * self.n_docs, (e - s, self.n_docs)
        shared = None
        if sharers or measure == JACCARD:
            shared = np.bincount(cells, minlength=size).reshape(shape).astype(float)
        if measure == JACCARD:
            union = self.nnz[s:e, None] + self.nnz[None, :] - shared
            scores = np.divide(shared, union, out=np.zeros_like(shared), where=union > 0)
        else:
            dots = _sums(cells, self.csr.data[left] * self.csc.data[right], size).reshape(shape)
            if measure == COSINE:
                denom = self.norms[s:e, None] * self.norms[None, :]
                scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
            elif measure == EUCLIDEAN:
                d2 = (self.norms_sq[s:e, None] + self.norms_sq[None, :]) - 2.0 * dots
                # libm pow(x, 0.5), not np.sqrt: they differ in the last bit
                # for about 0.1 % of inputs, and kNN distances are pow's.
                scores = np.float_power(np.maximum(d2, 0.0), 0.5)
            else:
                scores = dots
        return scores, None if shared is None else shared > 0

    def _top(self, s: int, e: int, K: int) -> list[NeighborList]:
        """Top-K lists of rows [s, e).

        Similarities rank every sharer (even at score 0 or below) by
        (-score, index), then non-sharers by index at score 0.0;
        distances rank every document by (distance, index).
        """
        if K >= self.n_docs:
            raise ValueError(f"K={K} must be below the document count {self.n_docs}")
        distance = self.measure in DISTANCE_MEASURES
        scores, shares = self._block(s, e, sharers=not distance)
        if distance:
            rank, key = np.zeros(scores.shape, dtype=np.int8), scores
        else:
            rank, key = (~shares).astype(np.int8), -scores
        rank[np.arange(e - s), np.arange(s, e)] = 2  # never a document's own neighbor
        # lexsort is stable, so equal (rank, key) keep index order.
        order = np.lexsort((key, rank), axis=-1)[:, :K]
        picked = np.take_along_axis(scores, order, axis=1)
        return [
            NeighborList(owner=s + r, neighbors=tuple(zip(order[r].tolist(), picked[r].tolist())))
            for r in range(e - s)
        ]

    def query(self, i: int, K: int) -> NeighborList:
        """Exact top-K neighbors of document i under the index measure."""
        return self._top(i, i + 1, K)[0]

    def all_neighbors(self, K: int) -> list[NeighborList]:
        rows = max(1, BLOCK_CELLS // max(self.n_docs, 1))
        blocks = (self._top(s, min(s + rows, self.n_docs), K) for s in range(0, self.n_docs, rows))
        return [nl for block in blocks for nl in block]

    def within(self, i: int, threshold: float) -> list[int]:
        """Documents other than i scoring at least ``threshold`` (at most, for
        a distance measure): a DBSCAN region query."""
        scores = self._block(i, i + 1, sharers=False)[0][0]
        hits = scores <= threshold if self.measure in DISTANCE_MEASURES else scores >= threshold
        hits[i] = False
        return np.flatnonzero(hits).tolist()


def build_snn_graph(matrix, K: int, measure: str = COSINE) -> _CSR:
    """Pairwise SNN similarity over precomputed kNN lists.

    Symmetric int32 matrix ``N @ N.T``, where row p of the binary
    indicator ``N`` marks the K neighbors of p; its diagonal is K, the
    size of every list, and only pairs sharing a neighbor are stored,
    each row sorted by column.
    """
    index = SimilarityIndex(matrix, measure)
    lists = index.all_neighbors(K)
    n = index.n_docs
    ids = np.array([j for nl in lists for j, _ in nl.neighbors], dtype=np.int32)
    indicator = _CSR(np.ones(n * K, dtype=np.int32), ids, np.arange(n + 1) * K, (n, n))
    cells = _products(indicator, indicator.recompress(), 0, n)[0]
    pairs, counts = np.unique(cells, return_counts=True)
    rows, cols = np.divmod(pairs, n)
    return _CSR.from_coo(rows, cols, counts.astype(np.int32), (n, n))
