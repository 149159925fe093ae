"""K-Means, MiniBatch, DBSCAN, SNN-DBSCAN, agglomerative."""

import itertools
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from mathns import cluster
from mathns.cluster import (
    NOISE,
    AVERAGE,
    COMPLETE,
    SINGLE,
    WARD,
    ClusterAssignment,
    agglomerative,
    dbscan,
    kmeans,
    linkage_merges,
    minibatch_kmeans,
    snn_dbscan,
)
from mathns.errors import EpsNotBelowK, KTooLarge, TooManyDocuments
from mathns.idspace import _unwrap


def optimal_partition_inertia(X: np.ndarray, K: int) -> float:
    """Oracle: exhaustive enumeration of all K-labelings (n <= 12)."""
    n = len(X)
    best = np.inf
    for labels in itertools.product(range(K), repeat=n):
        total = 0.0
        for k in range(K):
            members = X[[i for i in range(n) if labels[i] == k]]
            if len(members):
                center = members.mean(axis=0)
                total += float(((members - center) ** 2).sum())
        best = min(best, total)
    return best


def dbscan_oracle(neighbors: dict[int, set[int]], n: int, minpts: int):
    """Connected components of the core-point reachability graph.

    Returns (core_components, border_options, noise): the partition of
    core points, the set of admissible clusters per border point, and
    the set of definite noise points.
    """
    core = {p for p in range(n) if len(neighbors[p] - {p}) >= minpts}
    seen = set()
    components = []
    for p in sorted(core):
        if p in seen:
            continue
        stack = [p]
        comp = set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            seen.add(x)
            stack.extend((neighbors[x] - {x}) & core - comp)
        components.append(comp)
    border_options = {}
    noise = set()
    for p in range(n):
        if p in core:
            continue
        touching = {
            ci for ci, comp in enumerate(components) if (neighbors[p] - {p}) & comp
        }
        if touching:
            border_options[p] = touching
        else:
            noise.add(p)
    return components, border_options, noise


class TestKmeans:
    def test_two_blobs_exact_optimum(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = kmeans(X, 2, seed=0, n_restarts=4)
        assert result.inertia == pytest.approx(0.01)
        assert result.inertia == pytest.approx(optimal_partition_inertia(X, 2))
        assert result.labels[0] == result.labels[1]
        assert result.labels[2] == result.labels[3]

    def test_k_equals_n_zero_inertia(self):
        X = np.arange(6, dtype=float).reshape(-1, 1) * 3
        result = kmeans(X, 6, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_duplicate_rows_share_label(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [1.0, 2.0]])
        result = kmeans(X, 2, seed=1, n_restarts=3)
        assert result.labels[0] == result.labels[1] == result.labels[3]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("name", ["max_iter", "n_restarts"])
    @pytest.mark.parametrize("count", [0, -2])
    def test_counts_below_one_raise(self, name, count):
        # n_restarts 0 returned None, and max_iter 0 failed on an empty trace
        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {count}"):
            kmeans(np.eye(4), 2, seed=0, **{name: count})

    @pytest.mark.parametrize("seed", range(10))
    def test_inertia_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 4))
        result = kmeans(X, 5, seed=seed)
        trace = result.inertia_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    def test_sparse_input(self):
        X = sp.csr_matrix(np.array([[0.0], [0.1], [10.0], [10.1]]))
        result = kmeans(X, 2, seed=0, n_restarts=4)
        assert result.inertia == pytest.approx(0.01)

    @pytest.mark.parametrize("shape", [(6, 6), (8, 5), (5, 8)])
    @pytest.mark.parametrize("seed", range(4))
    def test_column_compressed_input_is_read_by_row(self, shape, seed):
        # a CSC, or a transposed CSR, stores its columns; both k-means must
        # read its rows as the CSR of the same matrix gives them, bit for bit
        rng = np.random.default_rng(seed)
        D = rng.random(shape) * (rng.random(shape) < 0.6)
        K = 2
        for run in (
            lambda X: kmeans(X, K, seed=1, n_restarts=2),
            lambda X: minibatch_kmeans(X, K, batch_size=3, iters=5, seed=1),
        ):
            want = run(sp.csr_matrix(D))
            for X in (sp.csc_matrix(D), _unwrap(sp.csr_matrix(D.T)).T):
                got = run(X)
                np.testing.assert_array_equal(got.labels, want.labels)
                assert struct.pack("<d", got.inertia) == struct.pack("<d", want.inertia)

    def test_deterministic(self):
        X = np.random.default_rng(1).standard_normal((30, 3))
        a = kmeans(X, 4, seed=9, n_restarts=2)
        b = kmeans(X, 4, seed=9, n_restarts=2)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_unit_rows_euclidean_equals_cosine_argmin(self):
        # on unit-normalized rows, squared distance is 2(1 - cosine), so
        # nearest-center assignments agree between the two objectives
        rng = np.random.default_rng(21)
        X = rng.standard_normal((25, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        result = kmeans(X, 3, seed=2)
        centers = np.vstack(
            [X[result.labels == k].mean(axis=0) for k in range(3)]
        )
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        cos = X @ centers.T / (np.linalg.norm(centers, axis=1) + 1e-300)
        np.testing.assert_array_equal(
            np.argmin(d2, axis=1), np.argmax(cos - 1e-12 * d2, axis=1)
        )


def loop_compact(labels: np.ndarray) -> tuple[list[int], int]:
    """The dict renumbering loop that ``compact`` replaced; the exact reference."""
    mapping: dict[int, int] = {}
    out = labels.copy()
    for i, lab in enumerate(labels.tolist()):
        if lab == NOISE:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out.tolist(), len(mapping)


class TestCompaction:
    def test_compact_removes_gaps(self):
        assignment = ClusterAssignment(labels=np.array([5, -1, 5, 9, 2]), K=10)
        compacted = assignment.compact()
        assert compacted.labels.tolist() == [0, -1, 0, 1, 2]
        assert compacted.K == 3

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 30))
        labels = rng.integers(-1, int(rng.integers(1, 12)), size=n) * int(rng.integers(1, 4))
        labels[labels < 0] = NOISE
        compacted = ClusterAssignment(labels=labels, K=0, inertia=1.5).compact()
        assert (compacted.labels.tolist(), compacted.K) == loop_compact(labels)
        assert compacted.inertia == 1.5


class TestMiniBatch:
    def test_close_to_lloyd_on_blobs(self):
        # seed 0 starts both centers inside one blob; many iterations
        # let the streaming means forget the early misassignments
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        full = kmeans(X, 2, seed=0, n_restarts=4)
        mb = minibatch_kmeans(X, 2, batch_size=4, iters=1000, seed=0)
        assert mb.inertia <= full.inertia * 1.05 + 1e-12

    def test_k1_center_is_mean(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3))
        mb = minibatch_kmeans(X, 1, batch_size=50, iters=4, seed=0)
        # center equals the running mean of all processed points
        expected = float(((X - X.mean(axis=0)) ** 2).sum())
        assert mb.inertia == pytest.approx(expected, abs=1e-6)

    def test_deterministic(self):
        X = np.random.default_rng(4).standard_normal((30, 2))
        a = minibatch_kmeans(X, 3, batch_size=10, iters=20, seed=5)
        b = minibatch_kmeans(X, 3, batch_size=10, iters=20, seed=5)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_batch_size_guard(self):
        with pytest.raises(ValueError):
            minibatch_kmeans(np.zeros((3, 1)), 1, batch_size=10, iters=1, seed=0)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_raises(self, batch_size):
        # a negative batch failed inside numpy, "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"batch_size must be in .*, got {batch_size}"):
            minibatch_kmeans(np.eye(4), 2, batch_size=batch_size, iters=1, seed=0)


class TestDbscan:
    @staticmethod
    def regions_from_points(points: np.ndarray, eps: float):
        neighbors = {
            p: {
                q
                for q in range(len(points))
                if np.linalg.norm(points[p] - points[q]) <= eps
            }
            for p in range(len(points))
        }
        return neighbors, (lambda p, _eps: neighbors[p])

    def test_all_identical_one_cluster(self):
        points = np.zeros((5, 2))
        _, query = self.regions_from_points(points, 0.5)
        result = dbscan(query, 5, 0.5, 1)
        assert result.n_clusters == 1
        assert NOISE not in result.labels

    def test_all_dissimilar_noise(self):
        def query(p, eps):
            return []

        result = dbscan(query, 4, 0.5, 1)
        assert np.all(result.labels == NOISE)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_core_graph_oracle(self, seed):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.normal(0.0, 0.4, (6, 2)),
                rng.normal(5.0, 0.4, (6, 2)),
                rng.uniform(-10, 15, (3, 2)),
            ]
        )
        eps, minpts = 1.2, 2
        neighbors, query = self.regions_from_points(points, eps)
        result = dbscan(query, len(points), eps, minpts)
        components, border_options, noise = dbscan_oracle(
            neighbors, len(points), minpts
        )
        # core partition must match exactly
        core = set().union(*components) if components else set()
        label_of_component = {}
        for comp in components:
            labels = {result.labels[p] for p in comp}
            assert len(labels) == 1, "core component split across clusters"
            label_of_component[frozenset(comp)] = labels.pop()
        assert len(set(label_of_component.values())) == len(components)
        # border points must sit in one of their admissible clusters
        for p, options in border_options.items():
            got = result.labels[p]
            admissible = {
                label_of_component[frozenset(components[ci])] for ci in options
            }
            assert got in admissible
        for p in noise:
            assert result.labels[p] == NOISE

    def test_order_invariance_of_core_structure(self):
        rng = np.random.default_rng(42)
        points = np.vstack(
            [rng.normal(0, 0.3, (5, 2)), rng.normal(4, 0.3, (5, 2))]
        )
        eps, minpts = 1.0, 2
        _, query = self.regions_from_points(points, eps)
        base = dbscan(query, 10, eps, minpts)
        perm = rng.permutation(10)
        permuted = points[perm]
        _, query_p = self.regions_from_points(permuted, eps)
        shuffled = dbscan(query_p, 10, eps, minpts)
        # relabel both to canonical form and compare cluster sets
        def canonical(labels, order):
            groups = {}
            for pos, lab in zip(order, labels):
                if lab != NOISE:
                    groups.setdefault(lab, set()).add(pos)
            return {frozenset(g) for g in groups.values()}

        assert canonical(base.labels, range(10)) == canonical(shuffled.labels, perm)


class TestSnnDbscan:
    def test_duplicated_groups_cluster(self):
        # K=3 keeps each list inside its duplicate group, so the groups
        # share nothing across topics
        X = sp.csr_matrix(np.repeat(np.eye(3), 4, axis=0))
        result = snn_dbscan(X, K=3, eps=2, minpts=2)
        assert result.n_clusters == 3
        for g in range(3):
            block = result.labels[g * 4 : (g + 1) * 4]
            assert len(set(block.tolist())) == 1

    def test_eps_not_below_k(self):
        X = sp.csr_matrix(np.eye(4))
        with pytest.raises(EpsNotBelowK):
            snn_dbscan(X, K=3, eps=3, minpts=1)

    def test_three_topic_corpus(self):
        rng = np.random.default_rng(0)
        blocks = []
        for topic in range(3):
            base = np.zeros(12)
            base[topic * 4 : topic * 4 + 4] = 1.0
            for _ in range(10):
                row = base.copy()
                row[rng.integers(0, 12)] += 0.5
                blocks.append(row)
        X = sp.csr_matrix(np.vstack(blocks))
        result = snn_dbscan(X, K=8, eps=4, minpts=3)
        assert result.n_clusters >= 3
        topics = np.repeat(np.arange(3), 10)
        for c in range(result.n_clusters):
            members = topics[result.labels == c]
            if len(members) == 0:
                continue
            counts = np.bincount(members, minlength=3)
            assert counts.max() / len(members) >= 0.8


class TestAgglomerative:
    def test_single_linkage_splits_far_point(self):
        X = np.array([[0.0], [1.0], [10.0]])
        result = agglomerative(X, SINGLE, 2)
        assert result.labels[0] == result.labels[1] != result.labels[2]

    def test_k_equals_n(self):
        X = np.arange(5, dtype=float).reshape(-1, 1)
        result = agglomerative(X, COMPLETE, 5)
        assert len(set(result.labels.tolist())) == 5

    def test_too_many_documents(self):
        with pytest.raises(TooManyDocuments):
            agglomerative(np.zeros((10, 1)), SINGLE, 2, max_points=5)

    @pytest.mark.parametrize("linkage", [SINGLE, COMPLETE, AVERAGE, WARD])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_merge_order_matches_direct_oracle(self, linkage, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((15, 3))
        got = [(i, j) for i, j, _ in linkage_merges(X, linkage)]

        # oracle: recompute cluster dissimilarities from raw points at
        # every step instead of Lance-Williams updates
        clusters: dict[int, list[int]] = {i: [i] for i in range(len(X))}

        def dissimilarity(a: list[int], b: list[int]) -> float:
            pair_d = [np.linalg.norm(X[p] - X[q]) for p in a for q in b]
            if linkage == SINGLE:
                return min(pair_d)
            if linkage == COMPLETE:
                return max(pair_d)
            if linkage == AVERAGE:
                return float(np.mean(pair_d))
            ca, cb = X[a].mean(axis=0), X[b].mean(axis=0)
            na, nb = len(a), len(b)
            # Ward cost scaled by 2 to match squared-distance seeding
            return 2.0 * (na * nb) / (na + nb) * float(((ca - cb) ** 2).sum())

        expected = []
        while len(clusters) > 1:
            best = None
            for a in sorted(clusters):
                for b in sorted(clusters):
                    if a >= b:
                        continue
                    d = dissimilarity(clusters[a], clusters[b])
                    if best is None or d < best[0] - 1e-12:
                        best = (d, a, b)
            _, a, b = best
            expected.append((a, b))
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
        assert got == expected


def loop_agglomerative_labels(X, linkage: str, K: int) -> list[int]:
    """Union-find over the first n - K merges, relabelled by the loop that
    ``agglomerative`` replaced with ``ClusterAssignment.compact``."""
    n = len(X)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in linkage_merges(X, linkage)[: n - K]:
        parent[find(j)] = find(i)
    roots: dict[int, int] = {}
    labels = []
    for p in range(n):
        labels.append(roots.setdefault(find(p), len(roots)))
    return labels


class TestAgglomerativeMatchesLoop:
    @given(
        st.sampled_from([SINGLE, COMPLETE, AVERAGE, WARD]),
        st.integers(1, 12),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_labels_and_K(self, linkage, n, seed, data):
        rng = np.random.default_rng(seed)
        # few distinct rows, so that tied merges are common
        X = rng.integers(0, 3, size=(n, 2)).astype(float)
        K = data.draw(st.integers(1, n))
        result = agglomerative(X, linkage, K)
        assert result.labels.tolist() == loop_agglomerative_labels(X, linkage, K)
        assert result.K == K == result.n_clusters


def loop_linkage_merges(X, linkage: str) -> list[tuple[int, int, float]]:
    """Lance-Williams with the per-k Python update loop that the
    vectorised update replaced; kept as the exact reference."""
    X = np.asarray(X.todense() if sp.issparse(X) else X, dtype=float)
    n = X.shape[0]
    diff = X[:, None, :] - X[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if linkage == WARD:
        d = d * d
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
        for k in range(n):
            if inactive[k] or k == i or k == j:
                continue
            dik, djk = d[i, k], d[j, k]
            if linkage == SINGLE:
                new = min(dik, djk)
            elif linkage == COMPLETE:
                new = max(dik, djk)
            elif linkage == AVERAGE:
                new = (ni * dik + nj * djk) / (ni + nj)
            else:
                nk = sizes[k]
                new = ((ni + nk) * dik + (nj + nk) * djk - nk * d[i, j]) / (ni + nj + nk)
            d[i, k] = d[k, i] = new
        sizes[i] = ni + nj
        inactive[j] = True
        d[j, :] = np.inf
        d[:, j] = np.inf
    return merges


class TestLinkageMatchesLoop:
    @pytest.mark.parametrize("linkage", [SINGLE, COMPLETE, AVERAGE, WARD])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_points(self, linkage, seed):
        X = np.random.default_rng(seed).standard_normal((40, 5))
        assert linkage_merges(X, linkage) == loop_linkage_merges(X, linkage)

    @pytest.mark.parametrize("linkage", [SINGLE, COMPLETE, AVERAGE, WARD])
    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_points_tie(self, linkage, seed):
        # integer grid with repeated rows: zero distances and equal merge heights
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 3, size=(12, 2)).astype(float)
        X = np.vstack([base, base[rng.choice(12, size=8)]])
        assert linkage_merges(X, linkage) == loop_linkage_merges(X, linkage)

    @pytest.mark.parametrize("linkage", [SINGLE, WARD])
    def test_sparse_input(self, linkage):
        X = sp.random(30, 8, density=0.3, random_state=7, format="csr")
        assert linkage_merges(X, linkage) == loop_linkage_merges(X, linkage)

    @pytest.mark.parametrize("linkage", [SINGLE, COMPLETE, AVERAGE, WARD])
    @pytest.mark.parametrize("d", [1, 3, 12, 106])
    def test_row_blocks(self, linkage, d, monkeypatch):
        """Distances built a few rows at a time equal the full tensor's."""
        monkeypatch.setattr(cluster, "BLOCK_CELLS", 3 * 25 * d + 1)
        X = np.random.default_rng(d).standard_normal((25, d))
        assert linkage_merges(X, linkage) == loop_linkage_merges(X, linkage)

    def test_memory_below_difference_tensor(self):
        n, d = 200, 100
        X = np.random.default_rng(0).standard_normal((n, d))
        tracemalloc.start()
        try:
            linkage_merges(X, WARD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * d * 8 / 8
