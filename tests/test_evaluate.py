"""Purity, namespace-defining selection, random baseline."""

import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathns.cluster import NOISE, ClusterAssignment
from mathns.errors import EmptyCluster
from mathns.evaluate import (
    _baseline_assignment,
    category_of,
    cluster_purity,
    load_labels,
    namespace_defining,
    purity_report,
    random_baseline,
)


class TestClusterPurity:
    LABELS = {"a1": "a", "a2": "a", "a3": "a", "b1": "b", "b2": "b"}

    def test_pure(self):
        assert cluster_purity(["a1", "a2", "a3"], self.LABELS) == (1.0, "a")

    def test_two_thirds(self):
        purity, cat = cluster_purity(["a1", "a2", "b1"], self.LABELS)
        assert purity == pytest.approx(2 / 3)
        assert cat == "a"

    def test_tie_lexicographic(self):
        assert cluster_purity(["a1", "b1"], self.LABELS) == (0.5, "a")

    def test_empty_raises(self):
        with pytest.raises(EmptyCluster):
            cluster_purity([], self.LABELS)

    def test_unlabeled_docs_cannot_inflate(self):
        purity, _ = cluster_purity(["x1", "x2", "x3"], {})
        assert purity == pytest.approx(1 / 3)


class TestPurityReport:
    def test_overall_weighted(self):
        labels = {"d0": "a", "d1": "a", "d2": "b", "d3": "b", "d4": "b", "d5": "c"}
        assignment = ClusterAssignment(labels=np.array([0, 0, 0, 1, 1, -1]), K=2)
        report = purity_report(assignment, list(labels), labels)
        # cluster 0: {a,a,b} purity 2/3 size 3; cluster 1: {b,b} purity 1 size 2
        assert report.overall == pytest.approx((3 * (2 / 3) + 2 * 1.0) / 5)
        assert report.noise_fraction == pytest.approx(1 / 6)

    def test_n_pure_bounded(self):
        labels = {f"d{i}": "a" for i in range(9)}
        assignment = ClusterAssignment(labels=np.repeat([0, 1, 2], 3), K=3)
        report = purity_report(assignment, list(labels), labels)
        assert report.n_pure == 3 <= len(report.per_cluster)

    @given(st.integers(0, 2**32 - 1))
    def test_split_never_decreases_overall(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        categories = rng.integers(0, 4, n)
        labels = {f"d{i}": f"cat{categories[i]}" for i in range(n)}
        assignment = rng.integers(0, 3, n)
        doc_ids = [f"d{i}" for i in range(n)]
        before = purity_report(
            ClusterAssignment(labels=assignment.copy(), K=3), doc_ids, labels
        ).overall
        # split a random nonempty cluster into two
        target = int(rng.choice(np.unique(assignment)))
        members = np.flatnonzero(assignment == target)
        moved = members[rng.uniform(size=len(members)) < 0.5]
        split = assignment.copy()
        split[moved] = 3
        after = purity_report(
            ClusterAssignment(labels=split, K=4), doc_ids, labels
        ).overall
        assert after >= before - 1e-12


class TestNamespaceDefining:
    LABELS = {f"d{i}": ("a" if i < 5 else "b") for i in range(10)}

    def test_selected_cluster(self):
        assignment = ClusterAssignment(
            labels=np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1]), K=2
        )
        chosen = namespace_defining(assignment, list(self.LABELS), self.LABELS)
        assert set(chosen) == {0, 1}

    def test_small_pure_cluster_rejected(self):
        assignment = ClusterAssignment(labels=np.array([0, 0, -1, -1, -1, 1, 1, 1, 1, 1]), K=2)
        chosen = namespace_defining(assignment, list(self.LABELS), self.LABELS)
        assert chosen == [1]

    def test_boundary_purity_rejected(self):
        labels = {f"d{i}": ("a" if i < 79 else "b") for i in range(100)}
        assignment = ClusterAssignment(labels=np.zeros(100, dtype=int), K=1)
        chosen = namespace_defining(assignment, list(labels), labels, purity_threshold=0.8)
        assert chosen == []  # purity 0.79 misses the 0.8 threshold

    def test_sorted_by_size_desc(self):
        labels = {f"d{i}": "a" for i in range(9)}
        assignment = ClusterAssignment(labels=np.array([0, 0, 0, 0, 1, 1, 1, 1, 1]), K=2)
        chosen = namespace_defining(assignment, list(labels), labels)
        assert chosen == [1, 0]


def loop_count_pure_clusters(vector, categories, purity_threshold=0.8, min_size=3) -> int:
    """The dict and Counter loop that the contingency table's pure count replaced."""
    members: dict[int, list[str]] = {}
    for label, cat in zip(vector, categories):
        members.setdefault(int(label), []).append(cat)
    pure = 0
    for cats in members.values():
        if len(cats) < min_size:
            continue
        top = max(Counter(cats).values())
        if top / len(cats) >= purity_threshold:
            pure += 1
    return pure


class TestRandomBaseline:
    @pytest.mark.parametrize("seed", range(40))
    def test_count_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        vector = rng.integers(-1, int(rng.integers(1, 15)), size=n) * 7
        pool = ["a", "b", "", "a b", "ab"][: int(rng.integers(1, 6))]
        categories = [pool[k] for k in rng.integers(0, len(pool), size=n)]
        doc_ids = [f"d{i}" for i in range(n)]
        labels = dict(zip(doc_ids, categories))
        assignment = ClusterAssignment(labels=vector, K=len(set(vector.tolist())))
        categories = [category_of(d, labels) for d in doc_ids]
        for threshold, min_size in ((0.8, 3), (0.5, 1), (2 / 3, 3), (1.0, 2)):
            report = purity_report(assignment, doc_ids, labels, threshold, min_size)
            assert report.n_pure == loop_count_pure_clusters(vector, categories, threshold, min_size)

    def test_all_same_category(self):
        n = 9
        summary = random_baseline(n, ["a"] * n, trials=20, seed=0)
        assert summary.minimum == summary.maximum == n // 3

    def test_exhaustive_enumeration_n6(self):
        """Mean pure-cluster count over all 20 assignments is exactly 0.2."""
        categories = ["a", "a", "a", "b", "b", "b"]
        doc_ids = [f"d{i}" for i in range(6)]
        labels = dict(zip(doc_ids, categories))
        counts = []
        for positions in itertools.combinations(range(6), 3):
            vector = [0 if i in positions else 1 for i in range(6)]
            assignment = ClusterAssignment(labels=vector, K=2)
            counts.append(purity_report(assignment, doc_ids, labels).n_pure)
        exact_mean = sum(counts) / len(counts)
        assert exact_mean == pytest.approx(0.2)
        simulated = random_baseline(6, categories, trials=10_000, seed=0)
        assert simulated.mean == pytest.approx(exact_mean, rel=0.02)

    def test_same_seed_identical(self):
        categories = ["a", "b", "c"] * 4
        a = random_baseline(12, categories, trials=50, seed=9)
        b = random_baseline(12, categories, trials=50, seed=9)
        assert a == b

    def test_last_cluster_smaller_excluded_by_min_size(self):
        # n=7 gives clusters of sizes 3,3,1; the singleton can never count
        summary = random_baseline(7, ["a"] * 7, trials=10, seed=1)
        assert summary.maximum == 2


def counter_cluster_purity(members, labels) -> tuple[float, str]:
    """The ``Counter`` version of ``cluster_purity`` that the table replaced."""
    if not members:
        raise EmptyCluster("purity of an empty cluster is undefined")
    counts = Counter(category_of(d, labels) for d in members)
    top = max(counts.values())
    category = min(c for c, k in counts.items() if k == top)
    return top / len(members), category


def loop_purity_report(assignment, doc_ids, labels, purity_threshold=0.8, min_size=3) -> dict:
    """The per-cluster dict loop that ``purity_report`` replaced, as
    ``to_dict()`` plus the namespace-defining ids it selected."""
    by_cluster: dict[int, list[str]] = {}
    noise = 0
    for doc_id, label in zip(doc_ids, assignment.labels.tolist()):
        if label == NOISE:
            noise += 1
            continue
        by_cluster.setdefault(label, []).append(doc_id)
    rows = []
    weighted = 0.0
    total = 0
    for cluster_id in sorted(by_cluster):
        members = by_cluster[cluster_id]
        purity, category = counter_cluster_purity(members, labels)
        rows.append({"cluster_id": cluster_id, "size": len(members),
                     "category": category, "purity": purity})
        weighted += len(members) * purity
        total += len(members)
    pure = [r for r in rows if r["purity"] >= purity_threshold and r["size"] >= min_size]
    pure.sort(key=lambda r: (-r["size"], r["cluster_id"]))
    return {
        "overall": weighted / total if total else 0.0,
        "n_pure": len(pure),
        "noise_fraction": noise / len(doc_ids) if len(doc_ids) else 0.0,
        "clusters": rows,
        "chosen": [r["cluster_id"] for r in pure],
    }


def bits(obj) -> str:
    """A float's repr round-trips, so equal text means equal bits."""
    return json.dumps(obj, sort_keys=True)


# tied majorities are common with this few categories; "" is unlabeled,
# "a\x00" must stay apart from "a", and the names sort by code point
CATEGORIES = st.sampled_from(["", "a", "a\x00", "b", "Zeta", "é", "数学", "αβ"])
THRESHOLDS = st.sampled_from([0.0, 0.5, 2 / 3, 0.8, 1.0])


@st.composite
def labelled_assignments(draw):
    """(assignment, doc_ids, labels): noise, empty and all-noise included,
    and some documents absent from the labels."""
    clusters = draw(st.lists(st.integers(NOISE, 6), max_size=30))
    doc_ids = [f"d{i}" for i in range(len(clusters))]
    labels = {d: draw(CATEGORIES) for d in doc_ids if draw(st.booleans())}
    return ClusterAssignment(labels=np.array(clusters, dtype=int), K=7), doc_ids, labels


class TestTableMatchesLoops:
    @given(st.lists(CATEGORIES, min_size=1, max_size=12), st.data())
    def test_cluster_purity(self, cats, data):
        members = [f"m{i}" for i in range(len(cats))]
        labels = {m: c for m, c in zip(members, cats) if data.draw(st.booleans())}
        got = cluster_purity(members, labels)
        assert bits(got) == bits(counter_cluster_purity(members, labels))

    @given(labelled_assignments(), THRESHOLDS, st.integers(1, 4))
    def test_purity_report_and_selection(self, case, threshold, min_size):
        assignment, doc_ids, labels = case
        expected = loop_purity_report(assignment, doc_ids, labels, threshold, min_size)
        chosen = expected.pop("chosen")
        report = purity_report(assignment, doc_ids, labels, threshold, min_size)
        assert bits(report.to_dict()) == bits(expected)
        assert namespace_defining(assignment, doc_ids, labels, threshold, min_size) == chosen

    def test_tied_majority_goes_to_the_smallest_category(self):
        labels = {"d0": "é", "d1": "b", "d2": "a\x00", "d3": "a", "d4": "a\x00", "d5": "a"}
        assignment = ClusterAssignment(labels=np.array([0, 0, 1, 1, 1, 1]), K=2)
        rows = purity_report(assignment, list(labels), labels).per_cluster
        assert [(r.category, r.purity) for r in rows] == [("b", 0.5), ("a", 0.5)]

    @pytest.mark.parametrize("clusters", [[], [NOISE], [NOISE] * 4])
    def test_all_noise_and_empty(self, clusters):
        doc_ids = [f"d{i}" for i in range(len(clusters))]
        assignment = ClusterAssignment(labels=np.array(clusters, dtype=int), K=0)
        report = purity_report(assignment, doc_ids, {})
        expected = loop_purity_report(assignment, doc_ids, {})
        assert bits(report.to_dict()) == bits({k: v for k, v in expected.items() if k != "chosen"})
        assert report.noise_fraction == (1.0 if clusters else 0.0)
        assert namespace_defining(assignment, doc_ids, {}) == []

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_random_baseline_raises_on_unequal_lengths(self, n, m):
        if n == m:
            m += 1
        with pytest.raises(ValueError):
            random_baseline(n, ["a"] * m)

    @given(st.lists(CATEGORIES, max_size=20), st.integers(1, 4), st.integers(0, 2**16),
           THRESHOLDS, st.integers(1, 4))
    def test_random_baseline(self, cats, cluster_size, seed, threshold, min_size):
        categories = [c or f"__unlabeled__{i}" for i, c in enumerate(cats)]
        counts = []
        for trial in range(5):
            rng = np.random.default_rng([seed, trial])
            vector = _baseline_assignment(len(categories), cluster_size, rng)
            counts.append(loop_count_pure_clusters(vector, categories, threshold, min_size))
        summary = random_baseline(
            len(categories), categories, cluster_size, 5, seed, threshold, min_size
        )
        assert (summary.minimum, summary.mean, summary.maximum) == (
            min(counts), float(np.mean(counts)), max(counts)
        )


class TestLoadLabels:
    def test_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("d1\tphysics\nd2\tmath\n", encoding="utf-8")
        assert load_labels(path) == {"d1": "physics", "d2": "math"}

    def test_blank_lines_and_empty_categories(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("\nd1\tphysics \n  \nd2\t\n", encoding="utf-8")
        assert load_labels(path) == {"d1": "physics", "d2": ""}

    @pytest.mark.parametrize("line", ["d1 physics", "d1", "d1\tphysics\tmath", "\td1\t"])
    def test_line_that_is_not_two_fields_names_itself(self, tmp_path, line):
        # "d1 physics" used to read as doc id "d1 physics" with no category
        path = tmp_path / "labels.tsv"
        path.write_text(f"d0\tmath\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}, line 2: expected two fields"):
            load_labels(path)
