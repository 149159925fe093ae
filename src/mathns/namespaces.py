"""Assemble namespaces from namespace-defining clusters.

All relations of a cluster are grouped per identifier; identical
definitions merge with summed scores, near-duplicates merge via fuzzy
token-set matching, and the best-scoring group wins the identifier.
Raw score sums are squashed to (0, 1) with tanh(x/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import Identifier
from .errors import EmptyScheme, NoRelationsInCluster
from .evaluate import cluster_purity
from .extraction import Relation
from .stemming import definition_tokens

OTHERS = "OTHERS"


def levenshtein(a: str, b: str, cutoff: int | None = None) -> int:
    """Edit distance; with a cutoff, ``min(distance, cutoff + 1)`` from the band
    ``|i - j| <= cutoff``: cells outside it hold the cap, which is exact as a
    cell's distance is at least ``|i - j|``, and a row all at the cap ends it."""
    if len(a) < len(b):
        a, b = b, a
    cap = (len(a) if cutoff is None else cutoff) + 1
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


def levenshtein_ratio(a: str, b: str) -> float:
    """Normalized similarity: 1 - distance / max length."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


def _ratio_at_least(a: str, b: str, threshold: float) -> bool:
    """``levenshtein_ratio(a, b) >= threshold``.  The length gap bounds the
    distance from below, and is the distance when one string prefixes the
    other; else the DP is cut off past the largest passing distance, which
    is exact because ``1 - d / m`` is monotone in ``d``."""
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


def token_set_ratio(a: str, b: str) -> float:
    """Fuzzy similarity over stemmed, token-sorted strings.

    Shared tokens are factored out so that a phrase fully contained in
    another ("variance" vs "population variance") scores 1.0.
    """
    ta = frozenset(definition_tokens(a))
    tb = frozenset(definition_tokens(b))
    return max(levenshtein_ratio(x, y) for x, y in _token_set_pairs(a, b, ta, tb))


def merge_exact(pairs: Iterable[Relation]) -> dict[str, list[tuple[str, float]]]:
    """Group relations by identifier; identical definitions sum scores.

    Per identifier the result is sorted by descending score, ties by
    definition text.
    """
    merged: dict[str, dict[str, float]] = {}
    for rel in pairs:
        per_ident = merged.setdefault(rel.identifier.key, {})
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


def merge_fuzzy(
    merged: Mapping[str, list[tuple[str, float]]],
    ratio_threshold: float = 0.85,
) -> dict[str, list[DefinitionGroup]]:
    """Group near-duplicate definitions of each identifier.

    Definitions connect when their token-set ratio reaches the
    threshold (transitively); a group's score is the member sum and its
    label the highest-scoring member, ties lexicographic.

    These are the groups of ``token_set_ratio`` over all pairs, found
    with less work: each distinct definition is tokenized once; a pair
    already in one group is skipped, as its union would be a no-op; and
    ``_ratio_at_least`` decides the rest, in closed form when the length
    gap rejects the pair or one string is a prefix of the other (which
    covers token-set containment, ratio 1.0), else by a cut-off DP.
    """
    out: dict[str, list[DefinitionGroup]] = {}
    tokens: dict[str, frozenset[str]] = {}
    for key, defs in merged.items():
        n = len(defs)
        parent = list(range(n))
        for d in {d for d, _ in defs} - tokens.keys():
            tokens[d] = frozenset(definition_tokens(d))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (a, _) in enumerate(defs):
            for j in range(i + 1, n):
                b = defs[j][0]
                ri, rj = find(i), find(j)
                if ri != rj and any(
                    _ratio_at_least(x, y, ratio_threshold)
                    for x, y in _token_set_pairs(a, b, tokens[a], tokens[b])
                ):
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
    identifier: Identifier
    definition: str
    score: float  # squashed, in (0, 1)


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
                {
                    "identifier": e.identifier.base,
                    "subscript": e.identifier.subscript,
                    "definition": e.definition,
                    "score": e.score,
                }
                for e in self.entries
            ],
        }


def build_namespace(
    cluster_docs: Sequence[str],
    relations: Iterable[Relation],
    labels: Mapping[str, str],
    fuzzy_threshold: float = 0.85,
    cluster_id: int = 0,
) -> Namespace:
    """Exact merge, fuzzy merge, per-identifier argmax, squash, name.

    An identifier keeps at most one definition: the label of its
    highest-scoring group (ties to the lexicographically smaller
    label).  The namespace is named after the majority category of the
    member documents.
    """
    doc_set = set(cluster_docs)
    cluster_relations = [r for r in relations if r.doc_id in doc_set]
    if not cluster_relations:
        raise NoRelationsInCluster(f"cluster {cluster_id} has no relations")
    identifiers: dict[str, Identifier] = {}
    for rel in cluster_relations:
        identifiers.setdefault(rel.identifier.key, rel.identifier)
    grouped = merge_fuzzy(merge_exact(cluster_relations), fuzzy_threshold)
    entries = []
    for key in sorted(grouped):
        best = grouped[key][0]  # merge_fuzzy sorts groups by (-score, label)
        entries.append(
            NamespaceEntry(
                identifier=identifiers[key],
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
        import json

        records = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_records(records)


@dataclass(frozen=True)
class HierarchyAssignment:
    top: str
    second: str
    cosine: float
    matched_keywords: int

    @property
    def is_others(self) -> bool:
        return self.top == OTHERS


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
