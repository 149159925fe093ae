"""Walk through definition extraction on a single document.

Shows the text pipeline step by step: formula spans, math-aware POS
tags, and the relations produced by all three extraction methods.
"""

from mathns import (
    build_corpus,
    default_stop_lists,
    extract_relations,
    prepare_corpus,
    rank_candidates,
)

TEXT = (
    "The relation between energy and mass is described by the "
    "mass-energy equivalence formula $E = mc^2$, where $E$ is energy, "
    "$m$ is mass and $c$ is the [[ speed of light ]]. "
    "Let $t$ be the time. In other words, the bijection $\\sigma$ "
    "normalizes $G$."
)


def main():
    stops = default_stop_lists()
    corpus = build_corpus(
        [{"doc_id": "demo", "title": "Mass-energy equivalence", "text": TEXT}],
        stops,
    )
    doc = corpus.documents[0]

    print("formulas found:")
    for i, formula in enumerate(doc.formulas):
        ids = list(doc.identifiers[i])
        print(f"  [{i}] {formula!r} -> identifiers {ids}")

    prepared = next(prepare_corpus(corpus))
    print("\ntagged sentences (after math annotation and chunking):")
    for sentence in prepared.sentences:
        print("  " + " ".join(f"{t.text}/{t.tag}" for t in sentence))

    for method in ("nearest_noun", "pattern", "ranker"):
        rels = extract_relations(
            prepared, method, definition_stop=stops.definition_stop
        )
        print(f"\n{method} relations:")
        for rel in rels:
            print(f"  ({rel.identifier}, {rel.definition!r})  score={rel.score:.3f}")

    print("\nranker candidates for E, best first:")
    for token, score in rank_candidates(prepared, "E")[:5]:
        print(f"  {score:.3f}  {token.text!r}")


if __name__ == "__main__":
    main()
