"""Assemble a namespace from a cluster of scored relations.

Follows one document cluster end to end: exact merge of identical
definitions, fuzzy grouping of near-duplicates, tanh score squashing,
and finally mapping the namespace onto a category hierarchy.
"""

from pathlib import Path

from mathns import (
    HierarchyScheme,
    Relation,
    build_namespace,
    map_to_hierarchy,
    merge_exact,
    merge_fuzzy,
    squash_score,
)
from mathns.namespaces import FuzzyMemo

DATA = Path(__file__).parent / "data"


def rel(doc, base, definition, score):
    return Relation(base, definition, score, "ranker", doc)


RELATIONS = [
    rel("A", "theta", "estimator", 0.98),
    rel("A", "theta", "unknown parameter", 0.98),
    rel("A", "sigma", "population variance", 0.86),
    rel("A", "sigma", "estimators", 0.82),
    rel("B", "theta", "sufficient statistic", 0.93),
    rel("B", "sigma", "variance", 0.99),
    rel("B", "mu", "mean", 0.99),
    rel("C", "theta", "estimator", 0.93),
    rel("C", "sigma", "variance", 0.94),
    rel("C", "sigma", "population variance", 0.91),
    rel("C", "mu", "true mean", 0.96),
]

LABELS = {"A": "Statistics", "B": "Statistics", "C": "Statistics"}


def main():
    merged = merge_exact(RELATIONS)
    print("after exact merge (identical strings summed):")
    for ident, defs in merged.items():
        print(f"  {ident}: {[(d, round(s, 2)) for d, s in defs]}")

    memo = FuzzyMemo(0.85)  # the threshold of near-duplicate definitions
    grouped = merge_fuzzy(merged, memo)
    print("\nafter fuzzy grouping (near-duplicates pooled):")
    for ident, groups in grouped.items():
        for g in groups:
            print(f"  {ident}: {sorted(g.members)} -> {g.score:.2f}")

    print("\ntanh(x/2) keeps scores comparable on [0, 1):")
    for raw in (0.86, 1.91, 2.84):
        print(f"  raw {raw:.2f} -> {squash_score(raw):.2f}")

    ns = build_namespace(["A", "B", "C"], RELATIONS, LABELS, memo, cluster_id=0)
    print(f"\nnamespace {ns.name!r}:")
    for entry in ns.entries:
        print(f"  ({entry.identifier}, {entry.definition!r}, {entry.score:.2f})")

    scheme = HierarchyScheme.load(DATA / "toy_hierarchy.json")
    hit = map_to_hierarchy(ns, scheme, LABELS)
    print(
        f"\nhierarchy: {hit.top} / {hit.second} "
        f"(cosine {hit.cosine:.2f}, {hit.matched_keywords} keywords matched)"
    )


if __name__ == "__main__":
    main()
