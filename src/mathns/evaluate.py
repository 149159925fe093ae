"""Cluster purity, namespace-defining selection and a random baseline.

Purity of a cluster is the fraction held by its majority category.
Clusters that are both pure enough and large enough are the
namespace-defining ones; a shuffled fixed-size assignment gives the
baseline count to beat.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cluster import NOISE, ClusterAssignment
from .errors import EmptyCluster


def category_of(doc_id: str, labels: Mapping[str, str]) -> str:
    """Unlabeled documents count as their own unique category."""
    cat = labels.get(doc_id, "")
    return cat if cat else f"__unlabeled__{doc_id}"


def _encode(categories: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct categories in Python's order, and each item's index
    among them.  Not a numpy ``str`` array: it drops trailing NULs."""
    names = sorted(set(categories))
    index = {name: i for i, name in enumerate(names)}
    return names, np.array([index[c] for c in categories], dtype=np.int64)


class _Table(NamedTuple):
    """Clusters against categories, one row per cluster id, ascending."""

    ids: np.ndarray
    sizes: np.ndarray
    top: np.ndarray  # the count of the majority category
    majority: np.ndarray  # its code; a tie goes to the smallest

    def pure(self, purity_threshold: float, min_size: int) -> np.ndarray:
        """Per row: is the cluster namespace-defining?"""
        return (self.top / self.sizes >= purity_threshold) & (self.sizes >= min_size)


def _table(clusters: Sequence[int], codes: np.ndarray) -> _Table:
    """The contingency table of a cluster vector and category codes."""
    clusters = np.asarray(clusters, dtype=int)
    if len(clusters) != len(codes):
        raise ValueError(f"{len(clusters)} cluster labels for {len(codes)} categories")
    width = int(codes.max(initial=0)) + 1
    ids, cluster = np.unique(clusters, return_inverse=True)
    pairs, counts = np.unique(cluster * width + codes, return_counts=True)
    owner = pairs // width
    # pairs run in (cluster, category) order, so a stable sort on -count
    # within each cluster puts the smallest of its majority categories first
    first = np.lexsort((-counts, owner))[np.flatnonzero(np.diff(owner, prepend=-1))]
    return _Table(ids, np.bincount(cluster), counts[first], pairs[first] % width)


def cluster_purity(members: Sequence[str], labels: Mapping[str, str]) -> tuple[float, str]:
    """Majority-category fraction and the majority category itself.

    Ties break to the lexicographically smallest category.
    """
    if not members:
        raise EmptyCluster("purity of an empty cluster is undefined")
    names, codes = _encode([category_of(d, labels) for d in members])
    table = _table(np.zeros(len(codes), dtype=int), codes)
    return int(table.top[0]) / len(members), names[table.majority[0]]


def _assignment_table(
    assignment: ClusterAssignment, doc_ids: Sequence[str], labels: Mapping[str, str]
) -> tuple[_Table, list[str], int]:
    """The table of the non-noise documents, its category names and the
    noise count."""
    clusters = assignment.labels[: len(doc_ids)]
    kept = clusters != NOISE
    names, codes = _encode([category_of(d, labels) for d, k in zip(doc_ids, kept) if k])
    return _table(clusters[kept], codes), names, len(kept) - int(kept.sum())


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
            "clusters": [asdict(row) for row in self.per_cluster],
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
    table, names, noise = _assignment_table(assignment, doc_ids, labels)
    purity = table.top / table.sizes
    majority = [names[code] for code in table.majority.tolist()]
    rows = list(map(ClusterPurity, table.ids.tolist(), table.sizes.tolist(), majority,
                    purity.tolist()))
    total = int(table.sizes.sum())
    # cumsum adds one cluster at a time, in ascending order; np.sum adds pairwise
    weighted = np.cumsum(table.sizes * purity)
    return PurityReport(
        per_cluster=rows,
        overall=float(weighted[-1]) / total if total else 0.0,
        n_pure=int(np.count_nonzero(table.pure(purity_threshold, min_size))),
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
    table, _, _ = _assignment_table(assignment, doc_ids, labels)
    pure = table.pure(purity_threshold, min_size)
    ids, sizes = table.ids[pure], table.sizes[pure]
    return ids[np.lexsort((ids, -sizes))].tolist()


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
    """Pure-cluster count of one flat assignment vector."""
    _, codes = _encode(categories)
    table = _table(assignment_vector, codes)
    return int(np.count_nonzero(table.pure(purity_threshold, min_size)))


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
    _, codes = _encode(categories)
    counts = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        table = _table(_baseline_assignment(n_docs, cluster_size, rng), codes)
        counts.append(int(np.count_nonzero(table.pure(purity_threshold, min_size))))
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
