"""Assemble namespaces from namespace-defining clusters.

All relations of a cluster are grouped per identifier; identical
definitions merge with summed scores, near-duplicates merge via fuzzy
token-set matching, and the best-scoring group wins the identifier.
Raw score sums are squashed to (0, 1) with tanh(x/2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import read_json, split_key
from .errors import EmptyScheme, NoRelationsInCluster
from .evaluate import cluster_purity
from .extraction import Relation
from .stemming import definition_tokens

OTHERS = "OTHERS"


def levenshtein(a: str, b: str, cutoff: int) -> int:
    """``min(edit distance, cutoff + 1)``, from the band ``|i - j| <= cutoff``:
    cells outside it hold the cap, which is exact as a cell's distance is at
    least ``|i - j|``, and a row all at the cap ends it."""
    if len(a) < len(b):
        a, b = b, a
    cap = cutoff + 1
    previous = [min(j, cap) for j in range(len(b) + 1)]
    for i, ca in enumerate(a, start=1):
        current = [min(i, cap)] + [cap] * len(b)
        for j in range(max(1, i - cap + 1), min(len(b), i + cap - 1) + 1):
            cost = 0 if ca == b[j - 1] else 1
            current[j] = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost, cap)
        if min(current) == cap:
            return cap
        previous = current
    return previous[-1]


def _ratio_at_least(a: str, b: str, threshold: float) -> bool:
    """Does the ratio ``1 - distance / max length`` (1.0 for two empty
    strings) reach ``threshold``?  The length gap bounds the distance from
    below, and is the distance when one string prefixes the other; else the
    DP is cut off past the largest passing distance, which is exact because
    the ratio is monotone in the distance."""
    m = max(len(a), len(b), 1)  # two empty strings pass as a ratio of 1.0
    if 1.0 - abs(len(a) - len(b)) / m < threshold:
        return False
    if a.startswith(b) or b.startswith(a):
        return True
    cutoff = min(m, int(min(1.0, 1.0 - threshold) * m) + 1)
    return 1.0 - levenshtein(a, b, cutoff) / m >= threshold


def _token_set_pairs(a: str, b: str, ta: frozenset, tb: frozenset) -> list[tuple[str, str]]:
    """String pairs whose best ratio is the token-set ratio; ``s0`` prefixes both others."""
    if not ta and not tb:
        return [(a.lower(), b.lower())]
    inter = sorted(ta & tb)
    s1 = " ".join(inter + sorted(ta - tb))
    s2 = " ".join(inter + sorted(tb - ta))
    if not inter:
        return [(s1, s2)]
    s0 = " ".join(inter)
    return [(s0, s1), (s0, s2), (s1, s2)]


def merge_exact(pairs: Iterable[Relation]) -> dict[str, list[tuple[str, float]]]:
    """Group relations by identifier; identical definitions sum scores.

    Per identifier the result is sorted by descending score, ties by
    definition text.
    """
    merged: dict[str, dict[str, float]] = {}
    for rel in pairs:
        per_ident = merged.setdefault(rel.identifier, {})
        per_ident[rel.definition] = per_ident.get(rel.definition, 0.0) + rel.score
    return {
        key: sorted(defs.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, defs in sorted(merged.items())
    }


@dataclass(frozen=True)
class DefinitionGroup:
    """Fuzzy-merged definitions with their summed score."""

    label: str
    members: tuple[str, ...]
    score: float


class FuzzyMemo:
    """Each definition's tokens and each unordered pair's decision at one
    threshold, for the ``merge_fuzzy`` calls of one namespaces stage."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self.tokens = functools.cache(lambda d: frozenset(definition_tokens(d)))
        self.decisions: dict[tuple[str, str], bool] = {}

    def near(self, a: str, b: str) -> bool:
        """Does the token-set ratio of ``a`` and ``b`` reach the threshold?"""
        pair = (a, b) if a <= b else (b, a)  # the decision is symmetric
        if pair not in self.decisions:
            self.decisions[pair] = any(
                _ratio_at_least(x, y, self.threshold)
                for x, y in _token_set_pairs(*pair, *map(self.tokens, pair))
            )
        return self.decisions[pair]


def merge_fuzzy(
    merged: Mapping[str, list[tuple[str, float]]], memo: FuzzyMemo
) -> dict[str, list[DefinitionGroup]]:
    """Group near-duplicate definitions of each identifier.

    Definitions connect when their token-set ratio reaches the memo's
    threshold (transitively); a group's score is the member sum and its
    label the highest-scoring member, ties lexicographic.

    These are the groups of the token-set ratio over all pairs, found
    with less work: ``memo`` (shared by the namespaces stage) tokenizes
    each definition and decides each pair once; a pair already in one
    group is skipped, as its union would be a no-op; and
    ``_ratio_at_least`` decides the rest, in closed form when the length
    gap rejects the pair or one string is a prefix of the other (which
    covers token-set containment, ratio 1.0), else by a cut-off DP.
    """
    out: dict[str, list[DefinitionGroup]] = {}
    for key, defs in merged.items():
        n = len(defs)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (a, _) in enumerate(defs):
            for j in range(i + 1, n):
                ri, rj = find(i), find(j)
                if ri != rj and memo.near(a, defs[j][0]):
                    parent[max(ri, rj)] = min(ri, rj)
        groups: dict[int, list[tuple[str, float]]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(defs[i])
        built = []
        for members in groups.values():
            score = sum(s for _, s in members)
            label = min(members, key=lambda kv: (-kv[1], kv[0]))[0]
            built.append(
                DefinitionGroup(
                    label=label,
                    members=tuple(d for d, _ in members),
                    score=score,
                )
            )
        built.sort(key=lambda g: (-g.score, g.label))
        out[key] = built
    return out


def squash_score(raw: float) -> float:
    """Map a raw score sum into [0, 1) with the gentle tanh(x/2)."""
    if raw < 0:
        raise ValueError("raw score must be non-negative")
    return math.tanh(raw / 2.0)


@dataclass(frozen=True)
class NamespaceEntry:
    identifier: str  # its key
    definition: str
    score: float  # squashed, in (0, 1)


_ENTRY_KEYS = ("identifier", "subscript", "definition", "score")


@dataclass
class Namespace:
    """A named, conflict-free set of identifier definitions."""

    name: str
    entries: list[NamespaceEntry]
    cluster_id: int
    doc_ids: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cluster_id": self.cluster_id,
            "docs": list(self.doc_ids),
            "entries": [
                dict(zip(_ENTRY_KEYS, (*split_key(e.identifier), e.definition, e.score)))
                for e in self.entries
            ],
        }


def build_namespace(
    cluster_docs: Sequence[str],
    relations: Iterable[Relation],
    labels: Mapping[str, str],
    memo: FuzzyMemo,
    cluster_id: int = 0,
) -> Namespace:
    """Exact merge, fuzzy merge, per-identifier argmax, squash, name.

    An identifier keeps at most one definition: the label of its
    highest-scoring group (ties to the lexicographically smaller
    label).  The namespace is named after the majority category of the
    member documents.  ``memo`` decides the fuzzy merge.
    """
    doc_set = set(cluster_docs)
    cluster_relations = [r for r in relations if r.doc_id in doc_set]
    if not cluster_relations:
        raise NoRelationsInCluster(f"cluster {cluster_id} has no relations")
    grouped = merge_fuzzy(merge_exact(cluster_relations), memo)
    entries = []
    for key in sorted(grouped):
        best = grouped[key][0]  # merge_fuzzy sorts groups by (-score, label)
        entries.append(
            NamespaceEntry(
                identifier=key,
                definition=best.label,
                score=squash_score(best.score),
            )
        )
    _, majority = cluster_purity(list(cluster_docs), labels)
    return Namespace(
        name=majority,
        entries=entries,
        cluster_id=cluster_id,
        doc_ids=tuple(cluster_docs),
    )


@dataclass(frozen=True)
class HierarchyCategory:
    top: str
    second: str
    keywords: frozenset[str]


@dataclass
class HierarchyScheme:
    """Two-level category scheme with stemmed keyword sets."""

    categories: list[HierarchyCategory]

    @classmethod
    def from_records(cls, records: Iterable[dict]):
        categories = []
        for rec in records:
            keywords = set()
            for kw in rec.get("keywords", []):
                keywords.update(definition_tokens(kw))
            # the category names themselves contribute keywords
            keywords.update(definition_tokens(rec["top"]))
            keywords.update(definition_tokens(rec["second"]))
            categories.append(
                HierarchyCategory(
                    top=rec["top"], second=rec["second"], keywords=frozenset(keywords)
                )
            )
        return cls(categories)

    @classmethod
    def load(cls, path: str | Path):
        """Read a hierarchy file: a non-empty JSON list of objects with string
        ``top`` and ``second`` and an optional list of string ``keywords``.
        A ValueError names the file and what is wrong in it."""
        records = read_json(path)
        if not isinstance(records, list) or not records:
            raise ValueError(f"{path}: expected a non-empty JSON list of categories")
        for n, rec in enumerate(records, start=1):
            if not isinstance(rec, dict):
                raise ValueError(f"{path}: category {n} is not an object")
            for key in ("top", "second"):
                if not isinstance(rec.get(key), str):
                    raise ValueError(f"{path}: category {n}: {key!r} must be a string")
            keywords = rec.get("keywords", [])
            if not (isinstance(keywords, list) and all(isinstance(kw, str) for kw in keywords)):
                raise ValueError(f"{path}: category {n}: 'keywords' must be a list of strings")
        return cls.from_records(records)


@dataclass(frozen=True)
class HierarchyAssignment:
    top: str
    second: str
    cosine: float
    matched_keywords: int


def namespace_keywords(
    ns: Namespace,
    labels: Mapping[str, str],
    titles: Mapping[str, str] | None = None,
) -> frozenset[str]:
    """Stemmed keywords of a namespace: its name, member categories and
    member document titles (when the corpus has them)."""
    words = set(definition_tokens(ns.name))
    for doc_id in ns.doc_ids:
        words.update(definition_tokens(labels.get(doc_id, "")))
        if titles is not None:
            words.update(definition_tokens(titles.get(doc_id, "")))
    return frozenset(words)


def map_to_hierarchy(
    ns: Namespace,
    scheme: HierarchyScheme,
    labels: Mapping[str, str],
    titles: Mapping[str, str] | None = None,
    min_cos: float = 0.2,
    min_matches: int = 2,
) -> HierarchyAssignment:
    """Keyword-cosine mapping of a namespace onto the category scheme.

    Binary keyword vectors on both sides; the namespace goes to the
    best-cosine category unless the score is below ``min_cos`` or fewer
    than ``min_matches`` keywords overlap, in which case it lands in
    OTHERS.
    """
    if not scheme.categories:
        raise EmptyScheme("hierarchy scheme has no categories")
    ns_words = namespace_keywords(ns, labels, titles)
    best: Optional[HierarchyAssignment] = None
    for cat in scheme.categories:
        overlap = len(ns_words & cat.keywords)
        denom = math.sqrt(len(ns_words)) * math.sqrt(len(cat.keywords))
        cos = overlap / denom if denom > 0 else 0.0
        candidate = HierarchyAssignment(cat.top, cat.second, cos, overlap)
        if best is None or (candidate.cosine, candidate.matched_keywords) > (
            best.cosine,
            best.matched_keywords,
        ):
            best = candidate
    if best.cosine < min_cos or best.matched_keywords < min_matches:
        return HierarchyAssignment(
            OTHERS, OTHERS, best.cosine, best.matched_keywords
        )
    return best
