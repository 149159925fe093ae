"""Cluster purity, namespace-defining selection and a random baseline.

Purity of a cluster is the fraction held by its majority category.
Clusters that are both pure enough and large enough are the
namespace-defining ones; a shuffled fixed-size assignment gives the
baseline count to beat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import NOISE, ClusterAssignment
from .errors import EmptyCluster


def category_of(doc_id: str, labels: Mapping[str, str]) -> str:
    """Unlabeled documents count as their own unique category."""
    cat = labels.get(doc_id, "")
    return cat if cat else f"__unlabeled__{doc_id}"


def cluster_purity(members: Sequence[str], labels: Mapping[str, str]) -> tuple[float, str]:
    """Majority-category fraction and the majority category itself.

    Ties break to the lexicographically smallest category.
    """
    if not members:
        raise EmptyCluster("purity of an empty cluster is undefined")
    counts = Counter(category_of(d, labels) for d in members)
    top = max(counts.values())
    category = min(c for c, k in counts.items() if k == top)
    return top / len(members), category


@dataclass
class ClusterPurity:
    cluster_id: int
    size: int
    category: str
    purity: float


@dataclass
class PurityReport:
    """Size-weighted purity over non-noise clusters plus per-cluster rows."""

    per_cluster: list[ClusterPurity]
    overall: float
    n_pure: int
    noise_fraction: float

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "n_pure": self.n_pure,
            "noise_fraction": self.noise_fraction,
            "clusters": [
                {
                    "cluster_id": row.cluster_id,
                    "size": row.size,
                    "category": row.category,
                    "purity": row.purity,
                }
                for row in self.per_cluster
            ],
        }


def purity_report(
    assignment: ClusterAssignment,
    doc_ids: Sequence[str],
    labels: Mapping[str, str],
    purity_threshold: float = 0.8,
    min_size: int = 3,
) -> PurityReport:
    """Evaluate a cluster assignment against category labels.

    Noise documents are excluded from the weighted overall purity and
    reported as a separate fraction.
    """
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
    n_pure = 0
    for cluster_id in sorted(by_cluster):
        members = by_cluster[cluster_id]
        purity, category = cluster_purity(members, labels)
        rows.append(ClusterPurity(cluster_id, len(members), category, purity))
        weighted += len(members) * purity
        total += len(members)
        if purity >= purity_threshold and len(members) >= min_size:
            n_pure += 1
    return PurityReport(
        per_cluster=rows,
        overall=weighted / total if total else 0.0,
        n_pure=n_pure,
        noise_fraction=noise / len(doc_ids) if len(doc_ids) else 0.0,
    )


def namespace_defining(
    assignment: ClusterAssignment,
    doc_ids: Sequence[str],
    labels: Mapping[str, str],
    purity_threshold: float = 0.8,
    min_size: int = 3,
) -> list[int]:
    """Clusters meeting both thresholds, sorted by size descending."""
    report = purity_report(assignment, doc_ids, labels, purity_threshold, min_size)
    chosen = [
        row
        for row in report.per_cluster
        if row.purity >= purity_threshold and row.size >= min_size
    ]
    chosen.sort(key=lambda row: (-row.size, row.cluster_id))
    return [row.cluster_id for row in chosen]


@dataclass
class BaselineSummary:
    trials: int
    cluster_size: int
    minimum: int
    mean: float
    maximum: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "cluster_size": self.cluster_size,
            "min": self.minimum,
            "mean": self.mean,
            "max": self.maximum,
        }


def _baseline_assignment(n_docs: int, cluster_size: int, rng) -> np.ndarray:
    slots = np.repeat(np.arange(int(np.ceil(n_docs / cluster_size))), cluster_size)
    slots = slots[:n_docs]
    rng.shuffle(slots)
    return slots


def count_pure_clusters(
    assignment_vector: Sequence[int],
    categories: Sequence[str],
    purity_threshold: float = 0.8,
    min_size: int = 3,
) -> int:
    """Pure-cluster count of one flat assignment vector.

    One sparse contingency table: the count of each (cluster, category)
    pair present, its largest count per cluster, and the cluster sizes.
    """
    _, cluster = np.unique(np.asarray(assignment_vector, dtype=int), return_inverse=True)
    names, category = np.unique(np.asarray(categories, dtype=str), return_inverse=True)
    pairs, counts = np.unique(cluster * len(names) + category, return_counts=True)
    sizes = np.bincount(cluster)
    top = np.zeros_like(sizes)
    np.maximum.at(top, pairs // len(names), counts)
    return int(np.count_nonzero((sizes >= min_size) & (top / sizes >= purity_threshold)))


def random_baseline(
    n_docs: int,
    categories: Sequence[str],
    cluster_size: int = 3,
    trials: int = 200,
    seed: int = 0,
    purity_threshold: float = 0.8,
    min_size: int = 3,
) -> BaselineSummary:
    """Shuffled fixed-size cluster assignments, repeated.

    Each trial shuffles a vector with ``cluster_size`` slots per cluster
    (the last cluster may be smaller) and counts namespace-defining
    clusters.  Trial t draws from its own stream (seed, t).
    """
    counts = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        vector = _baseline_assignment(n_docs, cluster_size, rng)
        counts.append(
            count_pure_clusters(vector, categories, purity_threshold, min_size)
        )
    return BaselineSummary(
        trials=trials,
        cluster_size=cluster_size,
        minimum=int(min(counts)),
        mean=float(np.mean(counts)),
        maximum=int(max(counts)),
    )


def load_labels(path: str | Path) -> dict[str, str]:
    """Read a labels file: TSV doc_id<TAB>category."""
    labels = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        doc_id, _, category = line.partition("\t")
        labels[doc_id] = category.strip()
    return labels
