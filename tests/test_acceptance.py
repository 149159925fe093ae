"""Acceptance suite: one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion pass/fail lines.
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from mathns.cluster import NOISE, ClusterAssignment, dbscan, kmeans, snn_dbscan
from mathns.corpus import build_corpus
from mathns.decompose import nmf, randomized_svd
from mathns.evaluate import (
    cluster_purity,
    purity_report,
    random_baseline,
)
from mathns.extraction import Relation
from mathns.idspace import (
    BINARY,
    IDENTIFIERS_ONLY,
    STRONG,
    WEAK,
    tfidf_weight,
    vectorize,
)
from mathns.namespaces import FuzzyMemo, build_namespace, merge_exact, merge_fuzzy, squash_score
from mathns.pipeline import PipelineConfig, run_pipeline
from mathns.simindex import COSINE, EUCLIDEAN, INNER, JACCARD, SimilarityIndex

from conftest import as_scipy
from test_cluster import dbscan_oracle, optimal_partition_inertia
from test_namespaces import golden_relations
from test_simindex import assert_same_topk, brute_force_knn


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL — {description}", flush=True)
                raise
            print(f"ACCEPTANCE {number:02d} PASS — {description}", flush=True)

        return wrapper

    return decorate


@criterion(1, "namespace builder reproduces the worked three-document cluster")
def test_namespace_builder_golden():
    start = time.perf_counter()
    relations = golden_relations()
    merged = merge_exact(relations)
    assert dict(merged["theta"])["estimator"] == pytest.approx(2.84, abs=0.005)
    memo = FuzzyMemo(0.85)
    grouped = merge_fuzzy(merged, memo)
    sigma_best = max(grouped["sigma"], key=lambda g: g.score)
    assert sigma_best.score == pytest.approx(3.7, abs=0.005)
    assert set(sigma_best.members) == {"variance", "population variance"}
    mu_best = max(grouped["mu"], key=lambda g: g.score)
    assert mu_best.label == "random variables"
    assert mu_best.score == pytest.approx(2.67, abs=0.005)

    labels = {"A": "Statistics", "B": "Statistics", "C": "Statistics"}
    ns = build_namespace(["A", "B", "C"], relations, labels, memo)
    got = {e.identifier: e.score for e in ns.entries}
    expected = {
        "P_theta": 0.41,
        "X": 0.44,
        "n": 0.45,
        "x": 0.46,
        "theta": 0.89,
        "mu": 0.87,
        "mu_4": 0.39,
        "sigma": 0.95,
    }
    assert set(got) == set(expected)
    for key, score in expected.items():
        assert got[key] == pytest.approx(score, abs=0.005), key
    assert time.perf_counter() - start < 1.0


@criterion(2, "identifier space reproduces the worked matrices in all three modes")
def test_identifier_space_golden():
    corpus = build_corpus(
        [
            {"doc_id": "d1", "text": "$E$ $m$ $c$"},
            {"doc_id": "d2", "text": "$m$ $c$"},
            {"doc_id": "d3", "text": "$E$"},
        ]
    )

    def rel(doc, ident, definition):
        return Relation(ident, definition, 1.0, "pattern", doc)

    relations = [
        rel("d1", "E", "energy"),
        rel("d1", "m", "mass"),
        rel("d1", "c", "speed of light"),
        rel("d2", "m", "mass"),
        rel("d2", "c", "speed of light"),
        rel("d3", "E", "energy"),
    ]

    def columns(mode):
        dm = vectorize(corpus, relations, mode, min_df=2, weighting=BINARY, normalize=False)
        dense = np.asarray(as_scipy(dm.matrix).todense())
        return {dim: tuple(dense[:, j].astype(int)) for j, dim in enumerate(dm.vocab.dims)}

    none_cols = columns(IDENTIFIERS_ONLY)
    assert none_cols == {"E": (1, 0, 1), "m": (1, 1, 0), "c": (1, 1, 0)}

    weak_cols = columns(WEAK)
    assert weak_cols == {
        "E": (1, 0, 1),
        "m": (1, 1, 0),
        "c": (1, 1, 0),
        "energy": (1, 0, 1),
        "mass": (1, 1, 0),
        "speed": (1, 1, 0),
        "light": (1, 1, 0),
    }

    strong_cols = columns(STRONG)
    assert strong_cols == {
        "E_energy": (1, 0, 1),
        "m_mass": (1, 1, 0),
        "c_speed": (1, 1, 0),
        "c_light": (1, 1, 0),
    }


@criterion(3, "tanh(x/2) squash anchor at raw score 3")
def test_tanh_anchor():
    assert squash_score(3.0) == pytest.approx(0.905, abs=0.001)


@criterion(4, "TF-IDF zero at df=n, monotone in tf, spot value")
def test_tfidf_properties():
    assert tfidf_weight(1, 7, 7) == 0.0
    assert tfidf_weight(3, 7, 7) == 0.0
    previous = -1.0
    for tf in range(1, 200):
        current = tfidf_weight(tf, 10, 100)
        assert current >= previous
        previous = current
    # implementer-derived oracle: (1 + ln 10) * ln 10
    assert tfidf_weight(10, 10, 100) == pytest.approx(7.604483203472445, abs=1e-9)
    assert tfidf_weight(10, 10, 100) == pytest.approx(
        (1 + math.log(10)) * math.log(10), abs=1e-12
    )


@criterion(5, "Euclidean/cosine identity on 1000 random unit pairs")
def test_cosine_euclidean_identity():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        lhs = float(np.sum((u - v) ** 2))
        rhs = 2.0 * (1.0 - float(u @ v))
        assert abs(lhs - rhs) < 1e-9


@criterion(6, "inverted-index kNN equals brute force on 100 random corpora")
def test_knn_oracle_equivalence():
    start = time.perf_counter()
    measures = (COSINE, INNER, JACCARD, EUCLIDEAN)
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(4, 51))
        d = int(rng.integers(3, 25))
        X = sp.random(n, d, density=0.3, random_state=trial, format="csr")
        dense = np.asarray(X.todense())
        measure = measures[trial % 4]
        index = SimilarityIndex(X, measure)
        K = int(rng.integers(1, n))
        for i in range(n):
            got = index.query(i, K).neighbors
            expected = brute_force_knn(dense, i, K, measure)
            assert_same_topk(got, expected)
    assert time.perf_counter() - start < 10.0


@criterion(7, "K-Means inertia monotone on 100 instances; exact two-blob optimum")
def test_kmeans_criteria():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((int(rng.integers(10, 40)), int(rng.integers(2, 6))))
        K = int(rng.integers(2, 6))
        result = kmeans(X, min(K, len(X)), seed=seed)
        trace = result.inertia_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
    blob_rng = np.random.default_rng(77)
    X = np.vstack(
        [blob_rng.normal(0.0, 0.05, (6, 1)), blob_rng.normal(10.0, 0.05, (6, 1))]
    )
    result = kmeans(X, 2, seed=0, n_restarts=5)
    assert result.inertia == pytest.approx(optimal_partition_inertia(X, 2), abs=1e-9)


@criterion(8, "DBSCAN matches the core-graph oracle; SNN recovers three topics")
def test_dbscan_criteria():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.normal(0.0, 0.4, (6, 2)),
                rng.normal(5.0, 0.4, (6, 2)),
                rng.uniform(-8, 12, (3, 2)),
            ]
        )
        eps, minpts = 1.2, 2
        neighbors = {
            p: {
                q
                for q in range(len(points))
                if np.linalg.norm(points[p] - points[q]) <= eps
            }
            for p in range(len(points))
        }
        result = dbscan(lambda p, _e: neighbors[p], len(points), eps, minpts)
        components, border_options, noise = dbscan_oracle(neighbors, len(points), minpts)
        comp_labels = {}
        for comp in components:
            labels = {result.labels[p] for p in comp}
            assert len(labels) == 1
            comp_labels[frozenset(comp)] = labels.pop()
        assert len(set(comp_labels.values())) == len(components)
        for p, options in border_options.items():
            assert result.labels[p] in {
                comp_labels[frozenset(components[c])] for c in options
            }
        for p in noise:
            assert result.labels[p] == NOISE

    rng = np.random.default_rng(0)
    rows = []
    for topic in range(3):
        base = np.zeros(12)
        base[topic * 4 : topic * 4 + 4] = 1.0
        for _ in range(10):
            row = base.copy()
            row[rng.integers(0, 12)] += 0.5
            rows.append(row)
    X = sp.csr_matrix(np.vstack(rows))
    result = snn_dbscan(X, K=8, eps=4, minpts=3)
    assert result.n_clusters >= 3
    topics = np.repeat(np.arange(3), 10)
    for c in range(result.n_clusters):
        members = topics[result.labels == c]
        if len(members):
            assert np.bincount(members, minlength=3).max() / len(members) >= 0.8


@criterion(9, "randomized SVD matches the dense oracle at small scale")
def test_svd_criteria():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(5, 51)), int(rng.integers(5, 51))
        k = int(rng.integers(1, min(m, n) + 1))
        M = rng.standard_normal((m, n))
        f = randomized_svd(M, k, seed=seed, power_iters=12)
        assert np.all(np.diff(f.S) <= 1e-12)
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
        oracle = float(np.linalg.norm(M - (U[:, :k] * S[:k]) @ Vt[:k]))
        got = float(np.linalg.norm(M - (f.U * f.S) @ f.V.T))
        assert got - oracle <= 1e-6
    rng = np.random.default_rng(123)
    low = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 20))
    f = randomized_svd(low, 4, seed=0)
    assert float(np.linalg.norm(low - (f.U * f.S) @ f.V.T)) <= 1e-8


@criterion(10, "NMF stays non-negative, monotone, and above the SVD bound")
def test_nmf_criteria():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(5, 25)), int(rng.integers(4, 15))
        k = int(rng.integers(1, 5))
        D = rng.uniform(0, 1, (m, n))
        f = nmf(D, k, seed=seed)
        assert f.U.min() >= 0 and f.V.min() >= 0
        trace = f.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-8 for i in range(len(trace) - 1))
        _, S, _ = np.linalg.svd(D, full_matrices=False)
        svd_error = float(np.sqrt(np.sum(S[k:] ** 2)))
        assert trace[-1] >= svd_error - 1e-9
    # factors remain non-negative at every individual iteration
    D = np.random.default_rng(7).uniform(0, 1, (12, 8))
    for iters in range(1, 16):
        f = nmf(D, 3, max_iters=iters, tol=0.0, seed=7)
        assert f.U.min() >= 0 and f.V.min() >= 0


@criterion(11, "purity formula and split monotonicity")
def test_purity_criteria():
    labels = {"d0": "a", "d1": "a", "d2": "b"}
    purity, cat = cluster_purity(["d0", "d1", "d2"], labels)
    assert purity == pytest.approx(2 / 3)
    assert cat == "a"
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        cats = {f"d{i}": f"c{rng.integers(0, 5)}" for i in range(n)}
        doc_ids = list(cats)
        assignment = rng.integers(0, 4, n)
        before = purity_report(
            ClusterAssignment(labels=assignment.copy(), K=4), doc_ids, cats
        ).overall
        target = int(rng.choice(np.unique(assignment)))
        members = np.flatnonzero(assignment == target)
        split = assignment.copy()
        split[members[rng.uniform(size=len(members)) < 0.5]] = 4
        after = purity_report(
            ClusterAssignment(labels=split, K=5), doc_ids, cats
        ).overall
        assert after >= before - 1e-12


@criterion(12, "random baseline simulation matches exhaustive enumeration")
def test_baseline_criteria():
    categories = ["a", "a", "a", "b", "b", "b"]
    doc_ids = [f"d{i}" for i in range(6)]
    labels = dict(zip(doc_ids, categories))
    counts = []
    for positions in itertools.combinations(range(6), 3):
        vector = [0 if i in positions else 1 for i in range(6)]
        assignment = ClusterAssignment(labels=vector, K=2)
        counts.append(purity_report(assignment, doc_ids, labels).n_pure)
    exact_mean = sum(counts) / len(counts)
    simulated = random_baseline(categories, trials=10_000, seed=0)
    assert simulated.mean == pytest.approx(exact_mean, rel=0.02)


@criterion(13, "end-to-end toy pipeline is deterministic and finds pure clusters")
def test_end_to_end_determinism(tmp_path, toy_config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_pipeline(PipelineConfig.load(toy_config_path, out=out_a))
    run_pipeline(PipelineConfig.load(toy_config_path, out=out_b))
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    purity = json.loads((out_a / "purity.json").read_text())
    selected = next(
        row for row in purity["rows"] if row["combo"] == purity["selected"]
    )
    assert selected["n_pure"] >= 4
    pure_rows = [
        c
        for c in selected["clusters"]
        if c["purity"] >= 0.8 and c["size"] >= 3
    ]
    assert len(pure_rows) >= 4
