"""Rank-reduced factorizations: randomized SVD and multiplicative NMF.

Both factorizations are deterministic for a fixed seed.  The LSA
embedding keeps only the document-side factor scaled by the singular
values; NMF additionally yields a direct clustering rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusterAssignment
from .errors import NegativeInput, RankTooLarge
from .idspace import _CSR, _unwrap


@dataclass
class SvdFactors:
    """Truncated SVD factors: A ~ U @ diag(S) @ V.T."""

    U: np.ndarray  # m x k, orthonormal columns
    S: np.ndarray  # k singular values, non-increasing
    V: np.ndarray  # n x k, orthonormal columns

    @property
    def embedding(self) -> np.ndarray:
        """Rows of V scaled by the singular values."""
        return self.V * self.S


def randomized_svd(
    D,
    k: int,
    seed: int = 0,
    oversample: int = 10,
    power_iters: int = 2,
) -> SvdFactors:
    """Best-effort rank-k SVD via a randomized range finder.

    A Gaussian sketch captures the dominant column space; a few power
    iterations (with QR re-orthonormalization) sharpen it, and the small
    projected matrix is decomposed exactly.
    """
    A = _unwrap(D)
    m, n = A.shape
    if k < 1 or k > min(m, n):
        raise RankTooLarge(f"k={k} outside [1, {min(m, n)}]")
    rng = np.random.default_rng(seed)
    p = min(k + oversample, min(m, n))
    sketch = rng.standard_normal((n, p))
    Y = A @ sketch
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A  # an ndarray for sparse and dense A alike
    Ub, S, Vt = np.linalg.svd(B, full_matrices=False)
    U = Q @ Ub
    return SvdFactors(U=U[:, :k], S=S[:k], V=Vt[:k].T)


def lsa_embed(D, k: int, seed: int = 0, oversample: int = 10, power_iters: int = 2) -> np.ndarray:
    """Low-dimensional document embedding (one row per document).

    The input is document-major, so the factorization runs on its
    transpose (the term-document orientation) and the document-side
    factor scaled by the singular values is returned.
    """
    A = _unwrap(D)
    factors = randomized_svd(A.T, k, seed=seed, oversample=oversample, power_iters=power_iters)
    return factors.embedding


@dataclass
class NmfFactors:
    """Non-negative factors: D ~ U @ V.T, with the error per iteration."""

    U: np.ndarray  # m x k, >= 0
    V: np.ndarray  # n x k, >= 0
    objective_trace: list[float]


def _frobenius_error(A, U: np.ndarray, V: np.ndarray) -> float:
    # ||A - U V^T||_F computed without densifying A
    a_sq = float(A.sq_sums()) if isinstance(A, _CSR) else float(np.sum(A * A))
    cross = float(np.sum((A.T @ U) * V))
    gram = float(np.sum((U.T @ U) * (V.T @ V)))
    return max(a_sq - 2.0 * cross + gram, 0.0) ** 0.5


def nmf(
    D,
    k: int,
    max_iters: int = 200,
    tol: float = 1e-4,
    seed: int = 0,
) -> NmfFactors:
    """Multiplicative-update NMF for the Frobenius loss.

    Stops after ``max_iters`` or once the relative objective improvement
    drops below ``tol``.  The objective trace is non-increasing up to a
    tiny epsilon guard in the update denominators.
    """
    A = _unwrap(D)
    m, n = A.shape
    if k < 1:
        raise RankTooLarge(f"k={k} must be at least 1")
    if not isinstance(A, _CSR):
        A = np.asarray(A, dtype=float)
    values = A.data if isinstance(A, _CSR) else A  # in storage order, as scipy sums them
    if values.size and values.min() < 0:
        raise NegativeInput("NMF input must be entrywise non-negative")
    mean = np.sum(values) / (m * n) if m * n else 0.0
    rng = np.random.default_rng(seed)
    scale = max(float(mean) / k, np.finfo(float).tiny)
    U = rng.uniform(size=(m, k)) * scale
    V = rng.uniform(size=(n, k)) * scale
    eps = 1e-12
    trace = [_frobenius_error(A, U, V)]
    for _ in range(max_iters):
        V *= (A.T @ U) / (V @ (U.T @ U) + eps)
        U *= (A @ V) / (U @ (V.T @ V) + eps)
        err = _frobenius_error(A, U, V)
        trace.append(err)
        prev = trace[-2]
        if prev > 0 and (prev - err) / prev < tol:
            break
    return NmfFactors(U=U, V=V, objective_trace=trace)


def nmf_assign(factors: NmfFactors) -> ClusterAssignment:
    """Read a clustering straight off the NMF document factor.

    Each column of V is scaled by the norm of the matching column of U
    (making the argmax invariant to joint column rescaling), then every
    document goes to its largest component; ties to the lowest index.
    """
    col_norms = np.linalg.norm(factors.U, axis=0)
    scaled = factors.V * col_norms
    labels = np.argmax(scaled, axis=1).astype(int)
    return ClusterAssignment(labels=labels, K=factors.V.shape[1])
