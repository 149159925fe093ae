"""Randomized SVD, LSA embedding and multiplicative NMF."""

import numpy as np
import pytest
import scipy.sparse as sp

from mathns.decompose import lsa_embed, nmf, nmf_assign, randomized_svd
from mathns.errors import NegativeInput, RankTooLarge


def dense_truncation_error(M: np.ndarray, k: int) -> float:
    """Oracle: optimal rank-k error from a full dense SVD."""
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    return float(np.linalg.norm(M - (U[:, :k] * S[:k]) @ Vt[:k]))


class TestRandomizedSvd:
    def test_diagonal_exact(self):
        f = randomized_svd(np.diag([3.0, 2.0, 1.0]), 3, seed=0)
        np.testing.assert_allclose(f.S, [3.0, 2.0, 1.0], atol=1e-12)

    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((20, 2)) @ rng.standard_normal((2, 15))
        f = randomized_svd(M, 2, seed=0)
        assert np.linalg.norm(M - (f.U * f.S) @ f.V.T) <= 1e-8

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((50, 30))
        f = randomized_svd(M, 5, seed=1, power_iters=12)
        got = np.linalg.norm(M - (f.U * f.S) @ f.V.T)
        assert got - dense_truncation_error(M, 5) <= 1e-6

    def test_rank_too_large(self):
        with pytest.raises(RankTooLarge):
            randomized_svd(np.eye(4), 5, seed=0)

    def test_deterministic_for_seed(self):
        M = np.random.default_rng(3).standard_normal((12, 9))
        a = randomized_svd(M, 4, seed=42)
        b = randomized_svd(M, 4, seed=42)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.S, b.S)

    def test_singular_values_non_increasing(self):
        M = np.random.default_rng(9).standard_normal((25, 18))
        f = randomized_svd(M, 8, seed=0, power_iters=8)
        assert np.all(np.diff(f.S) <= 1e-12)

    def test_orthonormal_columns(self):
        M = np.random.default_rng(2).standard_normal((30, 20))
        f = randomized_svd(M, 6, seed=0, power_iters=8)
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(6), atol=1e-6)
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(6), atol=1e-6)

    def test_sparse_input(self):
        M = sp.random(40, 25, density=0.3, random_state=1, format="csr")
        f = randomized_svd(M, 3, seed=0, power_iters=10)
        dense = np.asarray(M.todense())
        got = np.linalg.norm(dense - (f.U * f.S) @ f.V.T)
        assert got - dense_truncation_error(dense, 3) <= 1e-6


class TestLsaEmbed:
    def test_identical_documents_identical_rows(self):
        row = np.array([1.0, 2.0, 0.0, 1.0])
        X = np.vstack([row, row, row * 0.5])
        emb = lsa_embed(X, 2, seed=0, power_iters=8)
        assert np.linalg.norm(emb[0] - emb[1]) <= 1e-8

    def test_inner_products_match_reconstruction(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (10, 6))
        k = 3
        factors = randomized_svd(X.T, k, seed=0, power_iters=10)
        emb = factors.embedding
        Dk = (factors.U * factors.S) @ factors.V.T  # term-by-document
        for i in range(10):
            for j in range(10):
                assert emb[i] @ emb[j] == pytest.approx(
                    float(Dk[:, i] @ Dk[:, j]), abs=1e-8
                )

    def test_full_rank_lossless(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 5))
        emb = lsa_embed(X, 5, seed=0, power_iters=10)
        gram = emb @ emb.T
        np.testing.assert_allclose(gram, X @ X.T, atol=1e-6)


class TestNmf:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.5, 1.0, (12, 1))
        v = rng.uniform(0.5, 1.0, (9, 1))
        D = u @ v.T
        f = nmf(D, 1, max_iters=500, tol=1e-12, seed=0)
        assert f.objective_trace[-1] <= 1e-6

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(8)
        D = rng.uniform(0, 1, (20, 10))
        f = nmf(D, 3, seed=1)
        trace = f.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-8 for i in range(len(trace) - 1))

    def test_factors_nonnegative(self):
        D = np.random.default_rng(10).uniform(0, 1, (15, 8))
        f = nmf(D, 4, seed=2)
        assert f.U.min() >= 0 and f.V.min() >= 0

    def test_error_at_least_svd_bound(self):
        # Eckart-Young: no rank-3 factorization beats the SVD tail
        rng = np.random.default_rng(12)
        D = rng.uniform(0, 1, (20, 10))
        f = nmf(D, 3, seed=3)
        assert f.objective_trace[-1] >= dense_truncation_error(D, 3) - 1e-9

    def test_negative_input_rejected(self):
        with pytest.raises(NegativeInput):
            nmf(np.array([[1.0, -0.1], [0.2, 0.3]]), 1, seed=0)

    def test_sparse_input(self):
        D = sp.random(15, 10, density=0.4, random_state=2, format="csr")
        f = nmf(D, 2, seed=0)
        assert f.objective_trace[-1] <= f.objective_trace[0]


class TestNmfAssign:
    def _factors(self, U, V):
        from mathns.decompose import NmfFactors

        return NmfFactors(U=np.asarray(U, float), V=np.asarray(V, float), objective_trace=[])

    def test_argmax_row(self):
        f = self._factors(np.eye(2), [[0.1, 0.9], [0.8, 0.2]])
        labels = nmf_assign(f).labels
        assert labels.tolist() == [1, 0]

    def test_tie_goes_low(self):
        f = self._factors(np.eye(2), [[0.5, 0.5]])
        assert nmf_assign(f).labels.tolist() == [0]

    def test_column_rescaling_invariant(self):
        rng = np.random.default_rng(13)
        U = rng.uniform(0.1, 1, (6, 3))
        V = rng.uniform(0.1, 1, (8, 3))
        base = nmf_assign(self._factors(U, V)).labels
        scale = np.array([3.0, 0.25, 7.0])
        rescaled = nmf_assign(self._factors(U / scale, V * scale)).labels
        np.testing.assert_array_equal(base, rescaled)

    def test_block_diagonal_separates(self):
        # two blocks of documents using disjoint term sets
        D = np.zeros((6, 4))
        D[:3, :2] = 1.0
        D[3:, 2:] = 1.0
        f = nmf(D.T, 2, seed=1, max_iters=500)  # term-document orientation
        labels = nmf_assign(f).labels
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
