"""Similarity measures, blocked-kernel kNN and SNN similarity."""

import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathns import simindex
from mathns.cluster import dbscan, snn_dbscan
from mathns.decompose import lsa_embed
from mathns.errors import LengthMismatch
from mathns.pipeline import PipelineConfig, _run_clustering
from mathns.simindex import (
    COSINE,
    DISTANCE_MEASURES,
    EUCLIDEAN,
    INNER,
    JACCARD,
    NeighborList,
    SimilarityIndex,
    ZeroVectorWarning,
    build_snn_graph,
    knn,
    similarity,
    snn_similarity,
)

from conftest import as_scipy


def assert_same_topk(got, expected, tol: float = 1e-9):
    """Top-K equality up to float noise.  ``expected`` is the oracle's
    ranking, either its top K or every other document; K is ``len(got)``.

    Scores must agree with the oracle's first K, and ids must agree
    exactly wherever scores are separated by more than ``tol``.  A tie
    group (scores within ``tol`` of their neighbour) that lies inside the
    top K must hold the same ids.  When the group is cut by K, which of
    its members make the cut is float noise, so ``got``'s ids there must
    be distinct members of the oracle's whole group."""
    K = len(got)
    got_scores = [s for _, s in got]
    exp_scores = [s for _, s in expected]
    np.testing.assert_allclose(got_scores, exp_scores[:K], atol=tol)
    start = 0
    for k in range(1, len(expected) + 1):
        if k == len(expected) or abs(exp_scores[k] - exp_scores[k - 1]) > tol:
            picked = [j for j, _ in got[start:k]]
            group = {j for j, _ in expected[start:k]}
            if k <= K:
                assert set(picked) == group
            else:
                assert len(set(picked)) == len(picked) and set(picked) <= group
                break
            start = k


def brute_force_knn(dense: np.ndarray, i: int, K: int, measure: str):
    """All-pairs oracle; same tie rule (score desc, id asc)."""
    scores = []
    for j in range(dense.shape[0]):
        if j == i:
            continue
        a, b = dense[i], dense[j]
        if measure == COSINE:
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            s = float(a @ b / (na * nb)) if na > 0 and nb > 0 else 0.0
            scores.append((-s, j))
        elif measure == INNER:
            scores.append((-float(a @ b), j))
        elif measure == JACCARD:
            x, y = a != 0, b != 0
            union = np.sum(x | y)
            s = float(np.sum(x & y) / union) if union else 0.0
            scores.append((-s, j))
        else:
            scores.append((float(np.linalg.norm(a - b)), j))
    scores.sort()
    return [(j, abs(s)) for s, j in scores[:K]]


class TestSimilarity:
    def test_cosine_self_unit(self):
        v = np.array([0.6, 0.8])
        assert similarity(COSINE, v, v) == pytest.approx(1.0)

    def test_jaccard_sets(self):
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 1.0])
        assert similarity(JACCARD, a, b) == pytest.approx(1 / 3)

    def test_zero_vector_warns_and_returns_zero(self):
        with pytest.warns(ZeroVectorWarning):
            assert similarity(COSINE, np.zeros(3), np.ones(3)) == 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_euclidean_cosine_identity(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        lhs = similarity(EUCLIDEAN, u, v) ** 2
        rhs = 2.0 * (1.0 - similarity(COSINE, u, v))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([COSINE, INNER, JACCARD, EUCLIDEAN]))
    def test_symmetry(self, seed, measure):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 1, 6)
        b = rng.uniform(0, 1, 6)
        assert similarity(measure, a, b) == pytest.approx(similarity(measure, b, a))


class TestKnn:
    def test_identical_docs(self):
        X = sp.csr_matrix(np.ones((3, 4)))
        result = knn(X, 0, 2, COSINE)
        assert [s for _, s in result.neighbors] == pytest.approx([1.0, 1.0])

    def test_orthogonal_doc_fills_with_zero(self):
        X = sp.csr_matrix(np.array([[1.0, 0], [1.0, 0], [0, 1.0]]))
        result = knn(X, 2, 1, COSINE)
        assert result.neighbors == ((0, 0.0),)

    def test_k_must_be_below_n(self):
        X = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            knn(X, 0, 3, COSINE)

    def test_owner_not_in_neighbors(self):
        X = sp.csr_matrix(np.ones((4, 2)))
        result = knn(X, 1, 3, COSINE)
        assert 1 not in result.ids()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([COSINE, INNER, JACCARD, EUCLIDEAN]),
    )
    @example(seed=20885858, measure=COSINE)  # row 4, K=1: three scores one ulp apart
    @settings(max_examples=25)
    def test_property_matches_brute_force(self, seed, measure):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        X = sp.random(n, 6, density=0.4, random_state=int(rng.integers(1e6)), format="csr")
        dense = np.asarray(X.todense())
        index = SimilarityIndex(X, measure)
        K = int(rng.integers(1, n))
        for i in range(n):
            assert_same_topk(
                index.query(i, K).neighbors, brute_force_knn(dense, i, n - 1, measure)
            )

    @pytest.mark.parametrize("measure", [COSINE, INNER, JACCARD, EUCLIDEAN])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, measure, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21))
        X = sp.random(n, 10, density=0.4, random_state=int(rng.integers(1e6)), format="csr")
        dense = np.asarray(X.todense())
        index = SimilarityIndex(X, measure)
        K = int(rng.integers(1, n))
        for i in range(n):
            got = index.query(i, K).neighbors
            expected = brute_force_knn(dense, i, n - 1, measure)
            assert_same_topk(got, expected)


class TestSnn:
    def nl(self, owner, ids):
        return NeighborList(owner, tuple((i, 1.0) for i in ids))

    def test_identical_lists(self):
        assert snn_similarity(self.nl(0, [1, 2, 3]), self.nl(4, [1, 2, 3])) == 3

    def test_disjoint_lists(self):
        assert snn_similarity(self.nl(0, [1, 2]), self.nl(3, [4, 5])) == 0

    def test_three_shared(self):
        p = self.nl(0, [1, 2, 3, 4])
        q = self.nl(5, [2, 3, 4, 6])
        assert snn_similarity(p, q) == 3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            snn_similarity(self.nl(0, [1]), self.nl(2, [1, 3]))

    @given(st.integers(0, 2**32 - 1))
    def test_bounded_by_k(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        p = self.nl(0, rng.choice(20, size=K, replace=False).tolist())
        q = self.nl(1, rng.choice(20, size=K, replace=False).tolist())
        assert 0 <= snn_similarity(p, q) <= K


class TestSnnGraph:
    def test_two_identical_docs_k1(self):
        # n=2, K=1: each lists the other, so no shared neighbor exists
        X = sp.csr_matrix(np.ones((2, 3)))
        A = as_scipy(build_snn_graph(X, 1, COSINE))
        assert A[0, 1] == 0
        assert A[0, 0] == 1  # diagonal is K by convention

    def test_three_doc_trace(self):
        # p, q identical; r overlaps both. K=2: NN(p)={q,r}, NN(q)={p,r},
        # so p and q share exactly {r}.
        X = sp.csr_matrix(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        )
        A = as_scipy(build_snn_graph(X, 2, COSINE))
        assert A[0, 1] == 1

    def test_orthogonal_corpus_zero_offdiag(self):
        X = sp.csr_matrix(np.eye(4))
        A = as_scipy(build_snn_graph(X, 2, COSINE))
        dense = np.asarray(A.todense())
        off = dense - np.diag(np.diag(dense))
        # neighbors exist (zero-similarity fill), but they are assigned
        # by ascending doc id, so shared members still occur
        assert dense.shape == (4, 4)
        assert np.all(np.diag(dense) == 2)
        assert np.all(off >= 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        X = sp.random(n, 8, density=0.5, random_state=seed, format="csr")
        K = 4
        A = as_scipy(build_snn_graph(X, K, COSINE))
        dense_X = np.asarray(X.todense())
        lists = [
            frozenset(j for j, _ in brute_force_knn(dense_X, i, K, COSINE))
            for i in range(n)
        ]
        for p in range(n):
            for q in range(n):
                expected = K if p == q else len(lists[p] & lists[q])
                assert A[p, q] == expected

    def test_symmetric(self):
        X = sp.random(15, 6, density=0.5, random_state=3, format="csr")
        A = as_scipy(build_snn_graph(X, 3, COSINE))
        assert (A != A.T).nnz == 0


# ---------------------------------------------------------------------------
# Loop references.  These are the per-query implementations that the
# blocked sparse-product kernel replaced, kept verbatim as oracles: the
# kernel must give the same neighbor ids, bit-for-bit the same scores,
# the same graph and the same neighborhoods.


def loop_query(index: SimilarityIndex, i: int, K: int) -> NeighborList:
    """Dict walk over the inverted index, one query at a time."""

    def accumulate(binary: bool) -> dict:
        start, end = index.csr.indptr[i], index.csr.indptr[i + 1]
        acc: dict = {}
        for k in range(start, end):
            j = index.csr.indices[k]
            v = index.csr.data[k]
            cs, ce = index.csc.indptr[j], index.csc.indptr[j + 1]
            rows = index.csc.indices[cs:ce]
            vals = index.csc.data[cs:ce]
            for r, w in zip(rows, vals):
                if r == i:
                    continue
                acc[r] = acc.get(r, 0.0) + (1.0 if binary else v * w)
        return acc

    if K >= index.n_docs:
        raise ValueError(f"K={K} must be below the document count {index.n_docs}")
    measure = index.measure
    if measure == EUCLIDEAN:
        acc = accumulate(binary=False)
        dist_sq = index.norms_sq[i] + index.norms_sq
        entries = []
        for r in range(index.n_docs):
            if r == i:
                continue
            d2 = dist_sq[r] - 2.0 * acc.get(r, 0.0)
            entries.append((max(d2, 0.0) ** 0.5, r))
        entries.sort()
        chosen = [(r, d) for d, r in entries[:K]]
        return NeighborList(owner=i, neighbors=tuple(chosen))
    acc = accumulate(binary=measure == JACCARD)
    scored = []
    for r, dot in acc.items():
        if measure == COSINE:
            denom = index.norms[i] * index.norms[r]
            score = dot / denom if denom > 0 else 0.0
        elif measure == JACCARD:
            union = index.nnz[i] + index.nnz[r] - dot
            score = dot / union if union > 0 else 0.0
        else:
            score = dot
        scored.append((-score, r))
    scored.sort()
    chosen = [(r, -neg) for neg, r in scored[:K]]
    if len(chosen) < K:
        have = {r for r, _ in chosen} | {i}
        for r in range(index.n_docs):
            if len(chosen) == K:
                break
            if r not in have:
                chosen.append((r, 0.0))
    return NeighborList(owner=i, neighbors=tuple(chosen))


def loop_snn_graph(matrix, K: int, measure: str) -> sp.csr_matrix:
    """Dict pair-inversion over the brute-force kNN lists."""
    index = SimilarityIndex(matrix, measure)
    lists = [loop_query(index, i, K) for i in range(index.n_docs)]
    n = index.n_docs
    listers: dict = {}
    for nl in lists:
        for x in nl.ids():
            listers.setdefault(x, []).append(nl.owner)
    counts: dict = {}
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


def loop_region_query(dense: np.ndarray, measure: str, p: int, threshold: float) -> list:
    """The plain-dbscan region query: n similarity calls on dense rows."""
    sims = [similarity(measure, dense[p], dense[q]) for q in range(dense.shape[0])]
    if measure in DISTANCE_MEASURES:
        return [q for q, s in enumerate(sims) if s <= threshold]
    return [q for q, s in enumerate(sims) if s >= threshold]


def kernel_case(kind: str, seed: int, n: int = 24, d: int = 9):
    """Matrices that stress the kernel's exactness rules."""
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        return sp.random(n, d, density=0.3, random_state=seed, format="csr")
    if kind == "integers":
        # small integers: many exact ties, and signed products that sum to 0
        values = rng.integers(-2, 3, size=(n, d)).astype(float)
        values[rng.random((n, d)) < 0.5] = 0.0
        return sp.csr_matrix(values)
    if kind == "explicit_zeros":
        X = sp.random(n, d, density=0.4, random_state=seed, format="csr")
        X.data[rng.random(X.nnz) < 0.3] = 0.0  # stored, not eliminated
        return X
    if kind == "dense_svd":
        terms = sp.random(n, 3 * d, density=0.3, random_state=seed, format="csr")
        return lsa_embed(terms, 4, seed=seed)
    if kind == "zero_rows":
        values = np.asarray(sp.random(n, d, density=0.3, random_state=seed).todense())
        values[rng.choice(n, size=n // 4, replace=False)] = 0.0
        return sp.csr_matrix(values)
    raise ValueError(kind)


KERNEL_CASES = ("sparse", "integers", "explicit_zeros", "dense_svd", "zero_rows")
MEASURE_LIST = (COSINE, INNER, JACCARD, EUCLIDEAN)


@pytest.fixture
def small_blocks(monkeypatch):
    """Three rows per kernel block for 24 documents: 8 blocks."""
    monkeypatch.setattr(simindex, "BLOCK_CELLS", 3 * 24 + 2)


class TestKernelMatchesLoops:
    @pytest.mark.parametrize("measure", MEASURE_LIST)
    @pytest.mark.parametrize("kind", KERNEL_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_all_neighbors_and_query(self, measure, kind, seed, small_blocks):
        X = kernel_case(kind, seed)
        index = SimilarityIndex(X, measure)
        n = index.n_docs
        for K in (1, 5, n - 1):
            expected = [loop_query(index, i, K) for i in range(n)]
            assert index.all_neighbors(K) == expected
            assert [index.query(i, K) for i in range(n)] == expected

    def test_block_split_at_default_size(self):
        X = sp.random(300, 30, density=0.2, random_state=5, format="csr")
        assert 300 % (simindex.BLOCK_CELLS // 300) != 0
        for measure in (COSINE, EUCLIDEAN):
            index = SimilarityIndex(X, measure)
            expected = [loop_query(index, i, 10) for i in range(300)]
            assert index.all_neighbors(10) == expected

    def test_explicit_zero_outranks_non_sharer(self):
        # row 1 shares dim 0 with row 0 only through a stored zero
        X = sp.csr_matrix(
            (np.array([1.0, 0.0, 1.0]), np.array([0, 0, 1]), np.array([0, 1, 2, 3])), shape=(3, 2)
        )
        for measure in (COSINE, INNER):
            index = SimilarityIndex(X, measure)
            assert index.query(0, 2).neighbors == ((1, 0.0), (2, 0.0))
            assert index.query(0, 2) == loop_query(index, 0, 2)

    def test_negative_sharer_outranks_non_sharer(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        index = SimilarityIndex(X, COSINE)
        assert index.query(0, 2).neighbors == ((1, -1.0), (2, 0.0))

    def test_integer_input(self):
        X = sp.csr_matrix(np.array([[1, 0, 2], [1, 1, 0], [0, 1, 2], [3, 0, 0]]))
        for measure in MEASURE_LIST:
            index = SimilarityIndex(X, measure)
            assert index.all_neighbors(3) == [loop_query(index, i, 3) for i in range(4)]

    def test_k_not_below_n(self):
        index = SimilarityIndex(np.eye(3), COSINE)
        with pytest.raises(ValueError):
            index.all_neighbors(3)


class TestSnnGraphMatchesLoops:
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("measure", MEASURE_LIST)
    @pytest.mark.parametrize("kind", KERNEL_CASES)
    def test_graph(self, split, measure, kind, request):
        """All 24 rows in one kernel block, or (split) in blocks of three."""
        if split:
            request.getfixturevalue("small_blocks")
        X = kernel_case(kind, 11)
        for K in (1, 4, 23):
            got = build_snn_graph(X, K, measure)
            expected = loop_snn_graph(X, K, measure)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            np.testing.assert_array_equal(got.indices, expected.indices)
            np.testing.assert_array_equal(got.data, expected.data)

    def test_snn_dbscan_labels(self):
        X = kernel_case("sparse", 4, n=40)
        graph = loop_snn_graph(X, 6, COSINE)
        eps = 2

        def getrow_query(p, threshold):
            row = graph.getrow(p)
            return [int(q) for q, v in zip(row.indices, row.data) if v >= threshold and q != p]

        expected = dbscan(getrow_query, 40, eps, 3)
        got = snn_dbscan(X, K=6, eps=eps, minpts=3)
        np.testing.assert_array_equal(got.labels, expected.labels)
        assert got.K == expected.K


# thresholds that the integer case hits exactly, and some that it does not
REGION_EPS = {
    COSINE: (0.0, 0.5, 0.37),
    INNER: (1.0, 2.0, 0.5),
    JACCARD: (0.25, 0.5, 0.3),
    EUCLIDEAN: (2.0, 3.0, 2.2),
}


class TestRegionQueryMatchesLoops:
    @pytest.mark.parametrize("measure", MEASURE_LIST)
    @pytest.mark.parametrize("kind", KERNEL_CASES)
    def test_neighborhoods(self, measure, kind):
        X = kernel_case(kind, 2)
        dense = X if isinstance(X, np.ndarray) else np.asarray(X.todense())
        csr = sp.csr_matrix(X, copy=True)
        csr.eliminate_zeros()
        index = SimilarityIndex(csr, measure)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroVectorWarning)
            for eps in REGION_EPS[measure]:
                for p in range(dense.shape[0]):
                    expected = sorted(set(loop_region_query(dense, measure, p, eps)) - {p})
                    assert index.within(p, eps) == expected

    @pytest.mark.parametrize("measure", MEASURE_LIST)
    @pytest.mark.parametrize("kind", ["explicit_zeros", "dense_svd"])
    def test_pipeline_dbscan(self, measure, kind):
        X = kernel_case(kind, 3, n=40)
        dense = X if isinstance(X, np.ndarray) else np.asarray(X.todense())
        eps = {COSINE: 0.3, INNER: 0.2, JACCARD: 0.2, EUCLIDEAN: 0.8}[measure]
        config = PipelineConfig(
            corpus_path=Path("unused"),
            seed=0,
            output_dir=Path("unused"),
            clustering={"algorithm": "dbscan", "measure": measure, "eps": eps, "minpts": 2},
        )
        got = _run_clustering(config, X, None, None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroVectorWarning)
            expected = dbscan(
                lambda p, t: loop_region_query(dense, measure, p, t), 40, eps, 2
            )
        np.testing.assert_array_equal(got.labels, expected.labels)
        assert got.K == expected.K
